"""Hessenberg functions, admissibility, representatives, fixed points."""

import pytest

from hessgkm.graphs import bruhat_move_graph, interval_move_graph
from hessgkm.hess import (
    admissible_representative,
    cell_dimension,
    complexity_dimension,
    enumerate_admissible,
    format_hessenberg,
    h_length,
    hess_schubert_fixed_points,
    hessenberg_connected,
    is_admissible,
    parse_hessenberg,
    validate_hessenberg,
    window_mask,
    windows,
)
from hessgkm.perms import (
    all_permutations,
    bruhat_interval,
    bruhat_leq,
    compose,
    identity,
    inverse,
    inversion_mask,
    longest_element,
    transpositions,
)
from hessgkm.verify import h_bruhat_steps, h_bruhat_walk, hessenberg_functions, oracle_admissible_representative

H3344 = (3, 3, 4, 4)

TWELVE = [
    (1, 2, 3, 4), (1, 4, 2, 3), (2, 1, 3, 4), (2, 3, 4, 1), (2, 4, 3, 1),
    (3, 2, 4, 1), (3, 4, 1, 2), (3, 4, 2, 1), (4, 1, 2, 3), (4, 2, 3, 1),
    (4, 3, 1, 2), (4, 3, 2, 1),
]


def test_validate():
    assert validate_hessenberg([2, 3, 3]) == (2, 3, 3)
    assert validate_hessenberg([1, 2, 3]) == (1, 2, 3)
    with pytest.raises(ValueError):
        validate_hessenberg([3, 2, 3])
    with pytest.raises(ValueError):
        validate_hessenberg([1, 1, 3])
    with pytest.raises(ValueError):
        validate_hessenberg([2, 3, 4])
    with pytest.raises(ValueError):
        validate_hessenberg([])
    # Non-integral values raise, naming the entry, rather than truncate.
    with pytest.raises(ValueError, match=r"h\(1\) = 2\.7 is not an integer"):
        validate_hessenberg([2.7, 3, 3])
    with pytest.raises(ValueError, match=r"h\(3\) = 3\.5 is not an integer"):
        validate_hessenberg([2, 3, 3.5])
    assert validate_hessenberg([2.0, 3, 3]) == (2, 3, 3)


def test_parse_format():
    assert parse_hessenberg("3,3,4,4") == H3344
    assert format_hessenberg(H3344) == "3,3,4,4"
    with pytest.raises(ValueError):
        parse_hessenberg("3;3")
    for text, field in [("2,,2", 2), ("3,3,4,4,", 5), (",3,3", 1), ("3, ,3", 2)]:
        with pytest.raises(ValueError, match=f"empty field {field} in "):
            parse_hessenberg(text)


def test_complexity_dimension():
    assert complexity_dimension((4, 4, 4, 4)) == 6
    assert complexity_dimension((2, 3, 3)) == 2
    assert complexity_dimension(H3344) == 4
    assert complexity_dimension((1, 2, 3)) == 0


def test_windows():
    assert windows((2, 2, 3)) == ((1, 2),)
    assert windows((2, 3, 3)) == ((1, 2), (2, 3))
    assert windows(H3344) == ((1, 2), (1, 3), (2, 3), (3, 4))


@pytest.mark.parametrize("n", range(1, 7))
def test_window_mask_matches_windows(n):
    pairs = transpositions(n)
    for h in hessenberg_functions(n):
        mask = window_mask(h)
        assert mask >> len(pairs) == 0
        assert [pairs[k] for k in range(len(pairs)) if mask >> k & 1] == list(windows(h))


@pytest.mark.parametrize("n", range(1, 6))
def test_h_length_is_the_window_inversion_count(n):
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            expected = sum(1 for i in range(1, n + 1) for j in range(i + 1, h[i - 1] + 1) if w[i - 1] > w[j - 1])
            assert h_length(w, h) == expected


def test_h_length_frozen_values():
    assert h_length(identity(4), H3344) == 0
    assert h_length((2, 1, 3, 4), H3344) == 1
    assert h_length((4, 3, 1, 2), H3344) == 3
    with pytest.raises(ValueError):
        h_length((1, 2, 3), H3344)


def test_cell_dimension_nonnegative_exhaustive():
    for n in range(1, 6):
        for h in hessenberg_functions(n):
            for w in all_permutations(n):
                assert cell_dimension(w, h) >= 0


def test_is_admissible_frozen():
    assert is_admissible((2, 1, 3, 4), H3344)
    assert not is_admissible((3, 2, 1, 4), H3344)
    for h in hessenberg_functions(4):
        assert is_admissible(longest_element(4), h)


def test_enumerate_admissible_twelve():
    assert list(enumerate_admissible(H3344)) == TWELVE


def test_enumerate_admissible_full_h_is_everything():
    assert set(enumerate_admissible((4, 4, 4, 4))) == set(all_permutations(4))


def test_enumerate_admissible_minimal_h():
    # exhaustive scan over S_3 leaves only the order-reversing element
    assert enumerate_admissible((1, 2, 3)) == ((3, 2, 1),)


def test_representative_frozen_values():
    assert admissible_representative((3, 2, 1, 4), H3344) == ((4, 3, 1, 2), (1, 4, 2, 3))
    assert admissible_representative((2, 1, 3, 4), H3344) == ((2, 1, 3, 4), identity(4))
    assert admissible_representative((1, 2, 3), (1, 2, 3)) == ((3, 2, 1), (3, 2, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_representative_properties_exhaustive(n):
    e = identity(n)
    for h in hessenberg_functions(n):
        win = windows(h)
        for w in all_permutations(n):
            wt, u = admissible_representative(w, h)
            assert is_admissible(wt, h)
            assert bruhat_leq(w, wt)
            assert compose(u, wt) == w
            assert u == compose(w, inverse(wt))
            for i, j in win:
                assert (wt[i - 1] < wt[j - 1]) == (w[i - 1] < w[j - 1])
            if is_admissible(w, h):
                assert wt == w and u == e


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_representative_matches_interval_scan_oracle(n):
    # The greedy ascent against the admissible elements with w's window
    # order that lie in [w, w0]: the oracle finds w~ and nothing else.
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            assert oracle_admissible_representative(w, h) == [admissible_representative(w, h)[0]]


def _window_order_scan(w, h):
    """The representative oracle as the definition: v in [w, w0],
    admissible, with v(i) < v(j) iff w(i) < w(j) on every window pair."""
    return sorted(
        v
        for v in bruhat_interval(w)
        if all((v[i - 1] < v[j - 1]) == (w[i - 1] < w[j - 1]) for i, j in windows(h))
        and is_admissible(v, h)
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_mask_oracle_matches_window_order_scan(n):
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            assert oracle_admissible_representative(w, h) == _window_order_scan(w, h)


@pytest.mark.parametrize("n", range(1, 6))
def test_admissible_window_orders_are_distinct_and_cover(n):
    # Prop2.4's uniqueness, pinned directly: no two admissible elements share
    # a window order, and every window order over S_n has one.  Summed over
    # h the classes number (2n - 1)!!, as the admissible elements do.
    classes = 0
    for h in hessenberg_functions(n):
        win = window_mask(h)
        orders = [inversion_mask(v) & win for v in enumerate_admissible(h)]
        assert len(set(orders)) == len(orders)
        assert len(orders) == len({inversion_mask(w) & win for w in all_permutations(n)})
        classes += len(orders)
    assert classes == [1, 3, 15, 105, 945][n - 1]


def test_admissible_pair_counts_observed():
    # Observed, not proved: summed over all h at rank n, the admissible
    # permutations number (2n - 1)!! for n = 1..6.  The n <= 5 total, 1,069,
    # is the case count of the `shortcut` suite.
    totals = [
        sum(len(enumerate_admissible(h)) for h in hessenberg_functions(n)) for n in range(1, 7)
    ]
    assert totals == [1, 3, 15, 105, 945, 10395]
    assert sum(totals[:5]) == 1069


def test_fixed_points_frozen():
    assert hess_schubert_fixed_points((3, 2, 1, 4), H3344) == frozenset(
        {(3, 2, 1, 4), (3, 2, 4, 1)}
    )
    assert hess_schubert_fixed_points(longest_element(4), H3344) == frozenset(
        {longest_element(4)}
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fixed_points_vs_interval_exhaustive(n):
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            fixed = hess_schubert_fixed_points(w, h)
            interval = bruhat_interval(w)
            assert fixed <= interval
            assert (fixed == interval) == is_admissible(w, h)


def test_hessenberg_connected():
    assert hessenberg_connected((2, 3, 3))
    assert not hessenberg_connected((2, 2, 3))
    assert not hessenberg_connected((1, 2, 3))
    assert hessenberg_connected((2, 3, 4, 4))


# The h-Bruhat order is reachability along the up-steps of the interval's
# kernel (its length-increasing window swaps inside the interval).


def _reached(g, start, toward, within=-1):
    steps = h_bruhat_steps(g, within)[toward < 0]
    return {g.vertices[x] for x in h_bruhat_walk(steps, [g.vertices.index(start)])}


def test_h_bruhat_reflexive_and_full_h():
    w = (2, 1, 3)
    assert w in _reached(interval_move_graph((2, 3, 3), w), w, 1)
    # with the maximal function the h-order is the Bruhat order
    for n in (1, 2, 3, 4):
        full = tuple([n] * n)
        for u in all_permutations(n):
            assert _reached(interval_move_graph(full, u), u, 1) == bruhat_interval(u)


def test_h_bruhat_full_h_reachable_sets_n5():
    full = (5, 5, 5, 5, 5)
    for u in all_permutations(5):
        assert _reached(interval_move_graph(full, u), u, 1) == bruhat_interval(u)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_h_bruhat_sandwich_for_admissible(n):
    # The windowed build, and the per-w build of every pair under h's windows.
    w0 = longest_element(n)
    for h in hessenberg_functions(n):
        win = window_mask(h)
        for w in enumerate_admissible(h):
            for g, within in ((interval_move_graph(h, w), -1), (bruhat_move_graph(w), win)):
                assert _reached(g, w, 1, within) == bruhat_interval(w)
                assert _reached(g, w0, -1, within) == bruhat_interval(w)
