"""Symmetric group arithmetic and the Bruhat order criterion."""

import pytest
from hypothesis import given, strategies as st

from hessgkm.perms import (
    all_permutations,
    apply_transposition,
    as_permutation,
    bruhat_covers_above,
    bruhat_interval,
    bruhat_leq,
    compose,
    format_permutation,
    identity,
    inverse,
    length,
    longest_element,
    parse_permutation,
    transpositions,
)
from hessgkm.verify import oracle_bruhat_upset

perms_of = lambda n: st.permutations(list(range(1, n + 1))).map(tuple)


def test_as_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        as_permutation([1, 1, 2])
    with pytest.raises(ValueError):
        as_permutation([0, 1, 2])
    with pytest.raises(ValueError):
        as_permutation([2, 3, 4])


def test_identity_and_longest():
    assert identity(4) == (1, 2, 3, 4)
    assert longest_element(1) == (1,)
    assert longest_element(3) == (3, 2, 1)
    assert longest_element(4) == (4, 3, 2, 1)


def test_compose_frozen_values():
    w = (3, 1, 4, 2)
    assert compose(identity(4), w) == w
    # hand evaluation of (u o v)(i) = u(v(i))
    assert compose((1, 4, 2, 3), (4, 3, 1, 2)) == (3, 2, 1, 4)
    assert compose(w, inverse(w)) == identity(4)


def test_compose_rank_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_inverse_frozen_values():
    assert inverse(identity(5)) == identity(5)
    assert inverse((4, 3, 1, 2)) == (3, 4, 2, 1)
    assert inverse(longest_element(6)) == longest_element(6)


def test_length_frozen_values():
    assert length(identity(7)) == 0
    assert length(longest_element(4)) == 6
    assert length((3, 2, 1, 4)) == 3


def test_apply_transposition():
    assert apply_transposition(identity(3), 1, 2) == (2, 1, 3)
    assert apply_transposition((4, 3, 2, 1), 3, 4) == (4, 3, 1, 2)
    w = (2, 4, 1, 3)
    assert apply_transposition(apply_transposition(w, 2, 4), 2, 4) == w
    with pytest.raises(ValueError):
        apply_transposition(w, 3, 3)
    with pytest.raises(ValueError):
        apply_transposition(w, 0, 2)
    with pytest.raises(ValueError):
        apply_transposition(w, 2, 5)


@given(perms_of(6), perms_of(6))
def test_group_laws_random(u, v):
    assert compose(u, inverse(u)) == identity(6)
    assert inverse(inverse(u)) == u
    assert compose(inverse(v), compose(v, u)) == u


def test_bruhat_frozen_values():
    assert bruhat_leq((3, 2, 1, 4), (3, 2, 1, 4))
    # the representative of 3214 under h=(3,3,4,4) sits above it
    assert bruhat_leq((3, 2, 1, 4), (4, 3, 1, 2))
    assert not bruhat_leq((4, 3, 1, 2), (3, 4, 2, 1))


def test_bruhat_rank_mismatch():
    with pytest.raises(ValueError):
        bruhat_leq((1, 2), (1, 2, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bruhat_is_partial_order(n):
    perms = list(all_permutations(n))
    for u in perms:
        assert bruhat_leq(u, u)
        for v in perms:
            if bruhat_leq(u, v) and bruhat_leq(v, u):
                assert u == v
            if bruhat_leq(u, v):
                assert length(u) <= length(v)
                if length(u) == length(v):
                    assert u == v


def test_bruhat_transitive_n5_bitsets():
    perms = sorted(all_permutations(5))
    index = {w: i for i, w in enumerate(perms)}
    up = []
    for u in perms:
        mask = 0
        for v in perms:
            if bruhat_leq(u, v):
                mask |= 1 << index[v]
        up.append(mask)
    for i, u in enumerate(perms):
        m = up[i]
        j = 0
        rest = m
        while rest:
            if rest & 1:
                # everything above v must already be above u
                assert up[j] & ~m == 0
            rest >>= 1
            j += 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_interval_upward_closed(n):
    for w in all_permutations(n):
        interval = bruhat_interval(w)
        assert w in interval
        assert longest_element(n) in interval
        for v in interval:
            for z in all_permutations(n):
                if bruhat_leq(v, z):
                    assert z in interval


def test_interval_frozen_values():
    assert bruhat_interval(longest_element(5)) == frozenset({longest_element(5)})
    assert bruhat_interval((4, 3, 1, 2)) == frozenset({(4, 3, 1, 2), (4, 3, 2, 1)})
    assert len(bruhat_interval(identity(4))) == 24


def test_interval_matches_chain_oracle():
    for n in range(1, 6):
        for w in all_permutations(n):
            assert bruhat_interval(w) == oracle_bruhat_upset(w)
    perms6 = list(all_permutations(6))
    for w in perms6:
        assert bruhat_interval(w) == {v for v in perms6 if bruhat_leq(w, v)}
    # Near the top of S_10, where the chain oracle stays small.
    n = 10
    w0 = longest_element(n)
    near_top = [apply_transposition(w0, i, i + 1) for i in range(1, n)]
    near_top += [
        apply_transposition(apply_transposition(w0, i, i + 1), j, j + 1)
        for i, j in [(1, 2), (1, 5), (3, 4), (4, 8), (9, 2)]
    ]
    for w in near_top:
        assert length(w) >= length(w0) - 2
        assert bruhat_interval(w) == oracle_bruhat_upset(w)


def _cover_bfs_interval(w):
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = {v for u in frontier for v in bruhat_covers_above(u)} - seen
        seen |= nxt
        frontier = list(nxt)
    return frozenset(seen)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_interval_cover_bfs_matches_scan(n):
    perms = list(all_permutations(n))
    for w in perms:
        scan = frozenset(v for v in perms if bruhat_leq(w, v))
        assert _cover_bfs_interval(w) == scan
        assert bruhat_interval(w) == scan


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_covers_increase_length_by_one(n):
    for w in all_permutations(n):
        for v in bruhat_covers_above(w):
            assert length(v) == length(w) + 1
            assert bruhat_leq(w, v)


def test_transpositions_count():
    assert len(transpositions(5)) == 10
    assert transpositions(2) == [(1, 2)]


def test_text_forms():
    assert parse_permutation("4312") == (4, 3, 1, 2)
    assert format_permutation((4, 3, 1, 2)) == "4312"
    big = tuple([10] + list(range(1, 10)))
    text = format_permutation(big)
    assert text == "10,1,2,3,4,5,6,7,8,9"
    assert parse_permutation(text) == big
    assert parse_permutation("2,1") == (2, 1)
    with pytest.raises(ValueError):
        parse_permutation("4->1")
    with pytest.raises(ValueError):
        parse_permutation("")
    with pytest.raises(ValueError):
        parse_permutation("1123")
