"""Verdict assembly: smoothness, irreducibility, smooth points, bounds."""

import pytest

from hessgkm.classify import classify, component_lower_bound
from hessgkm.graphs import (
    _lane_layout,
    build_hessenberg_graph,
    interval_graph,
    interval_move_graph,
)
from hessgkm.hess import (
    admissible_representative,
    cell_dimension,
    enumerate_admissible,
    hess_schubert_fixed_points,
)
from hessgkm.patterns import avoids_all_associated, pattern_witnesses
from hessgkm.perms import (
    all_permutations,
    apply_transposition,
    bruhat_interval,
    bruhat_leq,
    compose,
    identity,
    length,
    longest_element,
)
from hessgkm.verify import _degrees, hessenberg_functions, is_connected, oracle_smooth_fixed_points
from test_contract import CHECKED, VALID, as_data, call_with

H3344 = (3, 3, 4, 4)


def test_report_for_translated_curve_case():
    r = classify((3, 2, 1, 4), H3344)
    assert r.admissible is False
    assert r.representative == (4, 3, 1, 2)
    assert r.translation == (1, 4, 2, 3)
    assert r.h_length == 3
    assert r.cell_dimension == 1
    assert r.interval_size == 8
    assert r.fixed_points == ((3, 2, 1, 4), (3, 2, 4, 1))
    assert r.intersection_smooth == "no"
    assert r.intersection_irreducible == "no"
    assert r.intersection_equals_closure == "unknown"
    assert r.hess_schubert_smooth == "yes"
    assert r.smooth_fixed_points == ((3, 2, 1, 4), (3, 2, 4, 1))
    assert r.reducible_reason is not None
    assert r.graph_stats.connected and not r.graph_stats.regular
    assert r.graph_stats.violating_vertex == (3, 2, 4, 1)
    assert "Thm1.2" in r.citations and "Prop2.5" in r.citations


def test_report_for_admissible_irregular_case():
    r = classify((2, 1, 3, 4), H3344)
    assert r.admissible is True
    assert r.representative == (2, 1, 3, 4)
    assert r.translation == identity(4)
    assert r.graph_stats.connected and not r.graph_stats.regular
    assert r.graph_stats.min_degree == 3 and r.graph_stats.max_degree == 4
    assert r.graph_stats.violating_vertex == (2, 3, 4, 1)
    assert r.intersection_smooth == "no"
    assert r.intersection_irreducible == "unknown"
    assert r.hess_schubert_smooth == "unknown"
    assert ("2134", (1, 2, 3, 4)) in r.pattern_witnesses
    assert len(r.smooth_fixed_points) == 12
    assert (2, 4, 3, 1) not in r.smooth_fixed_points  # degree 4 vertex


def test_report_top_element():
    w0 = longest_element(4)
    r = classify(w0, H3344)
    assert r.admissible
    assert r.intersection_smooth == "yes"
    assert r.intersection_irreducible == "yes"
    assert r.intersection_equals_closure == "yes"
    assert r.hess_schubert_smooth == "yes"
    assert r.smooth_fixed_points == (w0,)
    assert r.fixed_points == (w0,)


def test_rank12_edge_past_bit_63():
    """Type A has no rank cap.  At n = 12 the pair (11, 12) is bit 65 of
    the position-pair masks, and it is the one edge of [w, w0] here."""
    h = (12,) * 12
    w = (12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 1, 2)
    w0 = longest_element(12)
    g = interval_move_graph(h, w)
    bit = 1 << 65
    assert g.width == 66 and g.vertices == (w, w0)
    assert g.moves == (bit, bit) and g.up == (bit, 0)
    assert list(g.up_steps()) == [(0, 65, 1)]
    r = classify(w, h)
    assert r.interval_size == 2 and r.fixed_points == (w, w0)
    assert r.graph_stats.connected and r.graph_stats.regular
    assert r.graph_stats.min_degree == r.graph_stats.max_degree == 1
    assert r.intersection_smooth == "yes" and r.smooth_fixed_points == (w, w0)


# The (w, h) entries of the contract table, each called by keyword on its
# valid arguments (h = (3, 3, 4, 4), w = 4312) with one replaced.
PAIR_ENTRIES = [name for name, entry in CHECKED.items() if {"w", "h"} <= set(entry.kinds)]


@pytest.mark.parametrize("entry", PAIR_ENTRIES)
def test_rank_mismatch(entry):
    with pytest.raises(ValueError, match=r"rank mismatch: \|w\| = 3, \|h\| = 4"):
        call_with(entry, w=(1, 2, 3))


@pytest.mark.parametrize("w", [(1, 1, 3), (0, 1, 2), (1.5, 2, 3)])
def test_non_permutation_w_raises(w):
    # w is checked by check_pair before a report or a graph is built on it.
    for entry in PAIR_ENTRIES:
        with pytest.raises(ValueError, match="not a permutation|not an integer"):
            call_with(entry, w=w, h=(3, 3, 3))


def test_pattern_scan_rejects_non_permutations():
    # Neither reads as an answer: (1, 1, 1, 1) passes the admissibility
    # test, and no quadruple of (2, 1, 2, 1) has distinct values.
    with pytest.raises(ValueError, match="not a permutation"):
        avoids_all_associated((1, 1, 1, 1), (4, 4, 4, 4))
    with pytest.raises(ValueError, match="not a permutation"):
        pattern_witnesses((2, 1, 2, 1), (4, 4, 4, 4))


def test_list_w_is_taken_as_a_permutation():
    # classify takes a list w; so does every (w, h) entry.
    for entry in PAIR_ENTRIES:
        assert as_data(call_with(entry, w=list(VALID["w"]))) == as_data(call_with(entry)), entry


@pytest.mark.parametrize("entry", PAIR_ENTRIES)
def test_pair_entries_take_w_as_classify_does(entry):
    # A list w gives the tuple's result; a w that is not a permutation raises.
    w = VALID["w"]
    assert as_data(call_with(entry, w=list(w))) == as_data(call_with(entry, w=w))
    for bad in [(1, 1, 1, 1), (1, 1, 2, 2), (0, 1, 2, 3), (1, 2, 3, 5)]:
        with pytest.raises(ValueError, match="not a permutation"):
            call_with(entry, w=bad)


def test_classify_checks_the_quadruple_limit_before_any_graph():
    # C(200, 4) quadruples exceed the size limit.  w0's interval is one
    # vertex, but S_200's lane schedule would hold megabytes.
    n = 200
    before = _lane_layout.cache_info().currsize
    with pytest.raises(ValueError, match="position quadruples"):
        classify(longest_element(n), (n,) * n)
    assert _lane_layout.cache_info().currsize == before


def test_classify_keeps_one_pair_table_per_rank():
    # The one per-rank table is the kernel's lane schedule: three h of one
    # rank build it once.
    _lane_layout.cache_clear()
    w = (2, 1, 3, 4, 5, 6)
    for h in [(2, 3, 4, 5, 6, 6), (3, 3, 4, 6, 6, 6), (6,) * 6]:
        classify(w, h)
    assert _lane_layout.cache_info().currsize == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fixed_points_are_the_cell_closure_fixed_points(n):
    # classify reads the fixed points off the kernels' vertices, not from
    # hess_schubert_fixed_points.
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            assert classify(w, h).fixed_points == tuple(sorted(hess_schubert_fixed_points(w, h))), (h, w)


def test_json_round_trip_shape():
    d = classify((3, 2, 1, 4), H3344).to_json_dict()
    assert d["w"] == "3214"
    assert d["representative"] == "4312"
    assert d["translation"] == "1423"
    assert d["verdicts"]["intersection_irreducible"] == "no"
    assert d["verdicts"]["smooth_fixed_points"] == ["3214", "3241"]
    assert d["graph_stats"]["violating_vertex"] == "3241"
    assert isinstance(d["citations"], list)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verdict_soundness_exhaustive(n):
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            r = classify(w, h)
            g = interval_graph(h, w)
            # independent degree recount from the edge list
            degs = {u: 0 for u in g.vertices}
            for e in g.edges:
                degs[e.u] += 1
                degs[e.v] += 1
            if r.intersection_smooth == "yes":
                assert all(d == r.cell_dimension for d in degs.values())
            else:
                assert any(d != r.cell_dimension for d in degs.values())
            if r.intersection_irreducible == "no":
                assert hess_schubert_fixed_points(w, h) != bruhat_interval(w)
            if r.intersection_irreducible == "yes":
                assert r.intersection_smooth == "yes" and r.graph_stats.connected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rep_smooth_matches_pattern_criterion(n):
    for h in hessenberg_functions(n):
        for w in enumerate_admissible(h):
            r = classify(w, h)
            avoids, _ = avoids_all_associated(w, h)
            assert (r.hess_schubert_smooth == "yes") == avoids


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_smooth_points_cover_everything_when_regular(n):
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            r = classify(w, h)
            assert w in r.smooth_fixed_points
            assert set(r.smooth_fixed_points) <= set(r.fixed_points)
            if r.hess_schubert_smooth == "yes":
                assert r.smooth_fixed_points == r.fixed_points


def test_reflection_rule_over_certifies_at_1324():
    # The literal reflection rule (every fixed point w t, t a transposition,
    # is smooth) over-certifies: at full h the neighbor 4321 = 1324 (1,4)
    # is a fixed point of the cell closure but a singular one.
    r = classify((1, 3, 2, 4), (4, 4, 4, 4))
    top = apply_transposition((1, 3, 2, 4), 1, 4)
    assert top == (4, 3, 2, 1)
    assert top in r.fixed_points
    assert top not in r.smooth_fixed_points


def test_certified_smooth_points_match_classical_singular_locus():
    # full flag, w = 1324: the closure is a Schubert variety that is
    # singular exactly on the sub-interval above 3412; the degree
    # certificate recovers its complement
    r = classify((1, 3, 2, 4), (4, 4, 4, 4))
    singular = {(3, 4, 1, 2), (3, 4, 2, 1), (4, 3, 1, 2), (4, 3, 2, 1)}
    assert set(r.fixed_points) - set(r.smooth_fixed_points) == singular


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_full_h_smooth_points_match_carrell_peterson_locus(n):
    # At h = (n,...,n) the closure is a Schubert variety up to w0, and by
    # the local Carrell-Peterson criterion it is rationally smooth at x iff
    # every y in [w, x] has degree l(w0) - l(w) in the Bruhat graph.
    full = (n,) * n
    for w in all_permutations(n):
        interval = sorted(bruhat_interval(w))
        degrees = _degrees(interval_graph(full, w))
        dim = length(longest_element(n)) - length(w)
        bad = [y for y in interval if degrees[y] != dim]
        locus = [x for x in interval if not any(bruhat_leq(y, x) for y in bad)]
        assert list(classify(w, full).smooth_fixed_points) == locus


def _reach(g, starts, longer):
    # The vertices of a GkmGraph reached from ``starts`` along its edges
    # toward longer (or shorter) permutations.
    steps = {u: [] for u in g.vertices}
    for e in g.edges:
        lo, hi = (e.u, e.v) if length(e.u) < length(e.v) else (e.v, e.u)
        if longer:
            steps[lo].append(hi)
        else:
            steps[hi].append(lo)
    seen = set(starts)
    stack = list(seen)
    while stack:
        for v in steps[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_connectivity_and_smooth_points_match_graph_search(n):
    # classify counts sinks for connectivity and reads the smooth set off
    # the degrees; here both come from searches on the GkmGraph, the smooth
    # set as the whole sandwich above w~ and below a vertex whose degree is
    # the cell dimension, translated along u.
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            r = classify(w, h)
            assert r.graph_stats.connected == is_connected(interval_graph(h, w))
            wt, u = admissible_representative(w, h)
            g = interval_graph(h, wt)
            degs = _degrees(g)
            good = [v for v in g.vertices if degs[v] == cell_dimension(wt, h)]
            sandwich = _reach(g, [wt], True) & _reach(g, good, False)
            assert set(r.smooth_fixed_points) == {compose(u, v) for v in sandwich}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_smooth_points_match_the_walked_sandwich(n):
    # The full-degree set against the sandwich walked from both ends on
    # w~'s kernel.
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            assert classify(w, h).smooth_fixed_points == oracle_smooth_fixed_points(w, h), (h, w)


def test_component_lower_bound_frozen():
    b = component_lower_bound((3, 2, 1, 4), H3344)
    assert b == frozenset({(3, 2, 1, 4), (3, 4, 1, 2), (4, 2, 1, 3)})
    w0 = longest_element(4)
    assert component_lower_bound(w0, H3344) == frozenset({w0})
    # regular + connected: irreducible, the bound collapses to {w}
    assert component_lower_bound((4, 3, 1, 2), H3344) == frozenset({(4, 3, 1, 2)})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_component_lower_bound_structure(n):
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            b = component_lower_bound(w, h)
            assert w in b
            assert b <= bruhat_interval(w)
            r = classify(w, h)
            if r.intersection_irreducible == "yes":
                assert b == frozenset({w})


def test_report_and_graph_reject_attribute_assignment():
    report = classify((3, 2, 1, 4), H3344)
    graph = build_hessenberg_graph((2, 3, 3))
    for obj, name in [(report, "w"), (report.graph_stats, "regular"), (graph, "edges"), (graph, "w")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    assert graph.w is None
