"""Symmetric group arithmetic and the Bruhat order criterion."""

import gc
import math
import random

import pytest
from hypothesis import given, strategies as st

from hessgkm.perms import (
    SIZE_LIMIT,
    check_factorial,
    check_size,
    all_permutations,
    apply_transposition,
    as_permutation,
    bruhat_interval,
    bruhat_interval_lex,
    bruhat_leq,
    compose,
    format_permutation,
    identity,
    inverse,
    inversion_mask,
    length,
    longest_element,
    parse_permutation,
    transpositions,
)
from hessgkm.verify import oracle_bruhat_upset, oracle_sorted_prefix_leq

perms_of = lambda n: st.permutations(list(range(1, n + 1))).map(tuple)


def test_as_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        as_permutation([1, 1, 2])
    with pytest.raises(ValueError):
        as_permutation([0, 1, 2])
    with pytest.raises(ValueError):
        as_permutation([2, 3, 4])


def test_as_permutation_rejects_non_integral_entries():
    # An entry is not truncated: 1.5 is no value of a permutation.
    with pytest.raises(ValueError, match=r"w\(1\) = 1\.5 is not an integer"):
        as_permutation([1.5, 2.9])
    with pytest.raises(ValueError, match=r"w\(2\) = 1\.25 is not an integer"):
        as_permutation([2, 1.25])
    assert as_permutation([2.0, 1]) == (2, 1)


@pytest.mark.parametrize("w", [(1, 1, 3), (0, 1, 2), (2, 3, 4)])
def test_intervals_reject_non_permutations(w):
    # Every interval is listed by the one cached enumerator, which checks w.
    for interval in (bruhat_interval_lex, bruhat_interval):
        with pytest.raises(ValueError, match="not a permutation of 1..3"):
            interval(w)


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


@pytest.mark.parametrize("n", range(1, 7))
def test_inversion_mask_bit_layout(n):
    pairs = transpositions(n)
    for w in all_permutations(n):
        mask = inversion_mask(w)
        assert mask >> len(pairs) == 0
        assert [mask >> k & 1 == 1 for k in range(len(pairs))] == [w[i - 1] > w[j - 1] for i, j in pairs]


@pytest.mark.parametrize("n", range(1, 6))
def test_length_is_the_inversion_count(n):
    for w in all_permutations(n):
        assert length(w) == sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


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
    for leq in (bruhat_leq, oracle_sorted_prefix_leq):
        with pytest.raises(ValueError, match="rank mismatch"):
            leq((1, 2), (1, 2, 3))
        with pytest.raises(ValueError, match="rank mismatch"):
            leq((3, 2, 1), (2, 1))


def test_bruhat_leq_matches_sorted_prefix_oracle_n5():
    for n in range(1, 6):
        perms = list(all_permutations(n))
        for u in perms:
            assert [bruhat_leq(u, v) for v in perms] == [oracle_sorted_prefix_leq(u, v) for v in perms], u


# The packed-slack fields are n.bit_length() + 1 bits wide, so the width
# steps up between these ranks.
FIELD_WIDTH_EDGES = [7, 8, 15, 16, 31, 32]


@st.composite
def bruhat_pairs(draw):
    """(u, v, swaps) of rank 6..40: v random (swaps None), or v = u with one
    or two transpositions made, each an ascent swap one way or the other."""
    n = draw(st.one_of(st.sampled_from(FIELD_WIDTH_EDGES), st.integers(6, 40)))
    u = draw(perms_of(n))
    swaps = draw(st.sampled_from([None, 1, 2]))
    if swaps is None:
        return u, draw(perms_of(n)), None
    v = u
    for _ in range(swaps):
        i = draw(st.integers(1, n - 1))
        v = apply_transposition(v, i, draw(st.integers(i + 1, n)))
    return u, v, swaps


@given(bruhat_pairs())
def test_bruhat_leq_matches_sorted_prefix_oracle_random(pair):
    u, v, swaps = pair
    assert bruhat_leq(u, v) == oracle_sorted_prefix_leq(u, v)
    assert bruhat_leq(v, u) == oracle_sorted_prefix_leq(v, u)
    if swaps == 1:  # u and v = u t differ in length, so exactly one lies below
        assert bruhat_leq(u, v) != bruhat_leq(v, u)


def test_bruhat_leq_at_the_field_width_edges():
    # e <= w0 at every rank, and the one-swap pairs below and above e and w0.
    for n in FIELD_WIDTH_EDGES:
        e, w0 = identity(n), longest_element(n)
        assert bruhat_leq(e, w0) and not bruhat_leq(w0, e)
        up, down = apply_transposition(e, 1, n), apply_transposition(w0, 1, n)
        assert bruhat_leq(e, up) and not bruhat_leq(up, e)
        assert bruhat_leq(down, w0) and not bruhat_leq(w0, down)


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


def test_interval_size_limit_boundary():
    # All of S_8 (40,320) fits under the size limit; at n = 9 the
    # enumeration stops as soon as it passes the limit.
    assert len(bruhat_interval(identity(8))) == 40320 <= SIZE_LIMIT
    with pytest.raises(ValueError, match="65537 items exceed the size limit SIZE_LIMIT = 65536"):
        bruhat_interval(identity(9))


def test_size_checks_name_the_limit_for_any_count():
    # A count that prints keeps its digits; one past 4,300 digits, which
    # Python does not print, is named by a power of two below it.
    # check_factorial bounds n! 2^s so before it takes the factorial.
    with pytest.raises(ValueError, match=r"^x: more than 2\^19999 items exceed the size limit SIZE_LIMIT = 65536$"):
        check_size(1 << 19999, "x")
    with pytest.raises(ValueError, match=r"^S_9: 362880 items exceed the size limit SIZE_LIMIT = 65536$"):
        check_factorial(9, "S_9")
    with pytest.raises(ValueError, match=r"^W\(B7\): 645120 items"):
        check_factorial(7, "W(B7)", 7)
    check_factorial(8, "S_8")
    check_factorial(6, "W(B6)", 6)
    # Across the switch, near n = 1,700, each message is n! or below it.
    forms = set()
    for n in range(1000, 2200, 23):
        with pytest.raises(ValueError, match="exceed the size limit SIZE_LIMIT") as caught:
            check_factorial(n, "S_n")
        shown = str(caught.value).split(": ")[1].split(" items")[0]
        if shown.startswith("more than 2^"):
            assert 1 << int(shown[len("more than 2^"):]) < math.factorial(n), n
        else:
            assert shown == str(math.factorial(n)), n
        forms.add(shown.startswith("more"))
    assert forms == {False, True}
    for n, shift in [(10**6, 0), (10**30, 0), (10**6, 10**6)]:
        with pytest.raises(ValueError, match=r"^S_n: more than 2\^\d+ items exceed the size limit SIZE_LIMIT"):
            check_factorial(n, "S_n", shift)


def test_interval_matches_chain_oracle():
    # The enumeration order is lexicographic: the tuple is the bruhat_leq
    # filter of S_n, in its order, for every w with n <= 6 and for seeded
    # samples of S_7 and S_8.
    for n in range(1, 6):
        for w in all_permutations(n):
            assert bruhat_interval(w) == oracle_bruhat_upset(w)
    for n in range(1, 7):
        perms = list(all_permutations(n))
        for w in perms:
            assert bruhat_interval_lex(w) == tuple(v for v in perms if bruhat_leq(w, v))
    for n, count in ((7, 12), (8, 3)):
        perms = list(all_permutations(n))
        for w in random.Random(n).sample(perms, count):
            assert bruhat_interval_lex(w) == tuple(v for v in perms if bruhat_leq(w, v))
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


def test_interval_enumeration_leaves_no_cyclic_garbage():
    # The per-prefix-set memo is freed by reference counting when the
    # enumeration returns; a memo held by a self-recursive closure would be
    # a cycle, kept until the collector runs.
    gc.collect()
    gc.disable()
    try:
        assert len(bruhat_interval_lex.__wrapped__(identity(7))) == 5040
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_interval_cover_bfs_matches_scan(n):
    perms = list(all_permutations(n))
    for w in perms:
        scan = frozenset(v for v in perms if bruhat_leq(w, v))
        assert bruhat_interval(w) == scan


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_covers_increase_length_by_one(n):
    # The covers of w are the w(i,j) with w(i) < w(j) and no value of w
    # strictly between them at a position between i and j; they are the
    # elements of [w, w0] one longer than w.
    for w in all_permutations(n):
        covers = {
            apply_transposition(w, i, j)
            for i, j in transpositions(n)
            if w[i - 1] < w[j - 1] and not any(w[i - 1] < w[k - 1] < w[j - 1] for k in range(i + 1, j))
        }
        assert covers == {v for v in bruhat_interval(w) if length(v) == length(w) + 1}


def test_transpositions_count():
    assert len(transpositions(5)) == 10
    assert transpositions(2) == [(1, 2)]


@pytest.mark.parametrize("n", range(8))
def test_labels_are_the_joined_entries(n):
    # The digit string is one translation of the entries' bytes.
    for w in all_permutations(n):
        assert format_permutation(w) == "".join(str(x) for x in w)


@pytest.mark.parametrize("n", [10, 12])
def test_comma_labels_are_the_joined_entries(n):
    rng = random.Random(n)
    for _ in range(200):
        w = tuple(rng.sample(range(1, n + 1), n))
        assert format_permutation(w) == ",".join(str(x) for x in w)


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
    with pytest.raises(ValueError, match="empty field 2 in '21,'"):
        parse_permutation("21,")
    with pytest.raises(ValueError):
        parse_permutation("1123")
