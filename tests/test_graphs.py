"""Moment graph construction, degrees, regularity, connectivity, exports."""

import math

import pytest

from hessgkm.graphs import (
    GkmEdge,
    build_hessenberg_graph,
    degree,
    edge_set_at,
    fixed_point_induced_graph,
    interval_graph,
    interval_summary,
    is_connected,
    is_regular,
    phi_map,
    regularity_via_w0,
    to_dot,
    to_json,
    to_json_dict,
    translated_unlabeled_graph,
)
from hessgkm.hess import cell_dimension, enumerate_admissible, h_length, complexity_dimension, windows
from hessgkm.perms import all_permutations, bruhat_interval, length, longest_element
from hessgkm.verify import hessenberg_functions, oracle_bruhat_upset

H3344 = (3, 3, 4, 4)


def test_small_rank_graph_edge_sets():
    g = build_hessenberg_graph((2, 2, 3))
    assert len(g.edges) == 3
    assert g.edge_pairs() == {
        frozenset({(1, 2, 3), (2, 1, 3)}),
        frozenset({(2, 3, 1), (3, 2, 1)}),
        frozenset({(1, 3, 2), (3, 1, 2)}),
    }
    g2 = build_hessenberg_graph((2, 3, 3))
    assert len(g2.edges) == 6
    # edge data: every edge joins u and its window swap, value pair sorted
    from hessgkm.perms import apply_transposition

    for e in g2.edges:
        i, j = e.pos
        assert e.v == apply_transposition(e.u, i, j)
        assert set(e.val) == {e.u[i - 1], e.u[j - 1]} == {e.v[i - 1], e.v[j - 1]}
        assert e.val[0] < e.val[1]


def test_full_flag_edge_count():
    n = 3
    g = build_hessenberg_graph((3, 3, 3))
    assert len(g.edges) == 6 * 3 * 2 // 4  # n! * n(n-1)/4


def test_rank_cap():
    with pytest.raises(ValueError):
        build_hessenberg_graph((3, 3, 3), max_rank=2)
    # override allows it
    assert len(build_hessenberg_graph((3, 3, 3), max_rank=3).vertices) == 6


def test_interval_graph_vertices_and_edges():
    g = interval_graph((2, 3, 3), (2, 1, 3))
    assert g.vertices == ((2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))
    assert g.edge_pairs() == {
        frozenset({(2, 1, 3), (2, 3, 1)}),
        frozenset({(2, 3, 1), (3, 2, 1)}),
        frozenset({(3, 1, 2), (3, 2, 1)}),
    }
    assert sorted(g.degrees().values()) == [1, 1, 2, 2]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_interval_graph_edges_match_definition(n):
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            interval = oracle_bruhat_upset(w)
            expected = set()
            for u in interval:
                for i, j in windows(h):
                    v = list(u)
                    v[i - 1], v[j - 1] = v[j - 1], v[i - 1]
                    v = tuple(v)
                    if v in interval:
                        val = tuple(sorted((u[i - 1], u[j - 1])))
                        expected.add((min(u, v), max(u, v), (i, j), val))
            g = interval_graph(h, w)
            assert g.vertices == tuple(sorted(interval))
            assert len(set(g.edges)) == len(g.edges)
            assert set(g.edges) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_full_graph_edge_count(n):
    for h in hessenberg_functions(n):
        g = build_hessenberg_graph(h)
        assert len(g.edges) == math.factorial(n) * len(windows(h)) // 2


def test_interval_graph_trivial_cases():
    g = interval_graph(H3344, longest_element(4))
    assert g.vertices == (longest_element(4),)
    assert g.edges == ()
    full = interval_graph((3, 3, 3), (1, 2, 3))
    assert len(full.vertices) == 6 and len(full.edges) == 9


def test_edge_set_at_worked_example():
    assert edge_set_at(H3344, (2, 1, 3, 4), (3, 1, 4, 2)) == frozenset(
        {(1, 3), (2, 3), (3, 4)}
    )
    assert edge_set_at(H3344, (2, 1, 3, 4), (3, 4, 1, 2)) == frozenset(
        {(1, 2), (2, 3), (3, 4)}
    )
    w0 = longest_element(4)
    assert edge_set_at(H3344, w0, w0) == frozenset()
    with pytest.raises(ValueError):
        edge_set_at(H3344, (3, 2, 1, 4), (1, 2, 3, 4))


def test_degree_frozen_values():
    assert degree((2, 3, 3), (2, 1, 3), (2, 1, 3)) == 1
    assert degree((2, 3, 3), (2, 1, 3), (3, 2, 1)) == 2
    assert degree(H3344, (4, 3, 1, 2), (4, 3, 2, 1)) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_degree_at_minimum_is_cell_dimension(n):
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            assert degree(h, w, w) == cell_dimension(w, h)


def test_is_regular():
    g = interval_graph((2, 3, 3), (2, 1, 3))
    chk = is_regular(g, 1)
    assert not chk.ok and chk.violator == (2, 3, 1)
    g2 = interval_graph(H3344, (4, 3, 1, 2))
    assert is_regular(g2, 1) == (True, None)
    single = interval_graph(H3344, longest_element(4))
    assert is_regular(single, 0).ok


def test_regularity_via_w0():
    assert regularity_via_w0(H3344, (4, 3, 1, 2)) is True
    assert regularity_via_w0(H3344, (2, 1, 3, 4)) is False
    assert regularity_via_w0(H3344, longest_element(4)) is True
    with pytest.raises(ValueError):
        regularity_via_w0(H3344, (3, 2, 1, 4))  # not admissible


def test_is_connected():
    assert is_connected(interval_graph((2, 3, 3), (2, 1, 3)))
    assert not is_connected(build_hessenberg_graph((2, 2, 3)))
    assert is_connected(interval_graph(H3344, longest_element(4)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_interval_summary_matches_graph(n):
    # The edge-free summary against the GkmGraph it stands in for, on every
    # (h, w): same degrees, the up-steps are the edges from their lower end
    # (checked by length too, since both are built by the same traversal),
    # the same first violator for every degree value, the same connectivity.
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            g = interval_graph(h, w)
            s = interval_summary(h, w)
            degs = g.degrees()
            assert s.degrees == degs
            steps = {(u, v, ij) for u, out in s.up.items() for v, ij in out.items()}
            assert steps == {(e.u, e.v, e.pos) for e in g.edges}
            assert all(length(v) > length(u) for u, v, _ in steps)
            for d in set(degs.values()) | {cell_dimension(w, h)}:
                assert s.regularity(d) == is_regular(g, d)
            assert s.connected == is_connected(g)


def test_phi_map_worked_example():
    m = phi_map(H3344, (2, 1, 3, 4), (3, 1, 4, 2), 2, 3)
    assert m == {(1, 3): (1, 2), (2, 3): (2, 3), (3, 4): (3, 4)}


def test_phi_map_identity_when_no_exceptional_case():
    # at w0's lower neighbor both exceptional cases stay silent
    m = phi_map(H3344, (4, 3, 1, 2), (4, 3, 1, 2), 3, 4)
    assert m == {(3, 4): (3, 4)}


def test_phi_map_preconditions():
    with pytest.raises(ValueError):
        phi_map(H3344, (3, 2, 1, 4), (3, 2, 1, 4), 3, 4)  # w not admissible
    with pytest.raises(ValueError):
        phi_map(H3344, (2, 1, 3, 4), (3, 1, 4, 2), 1, 2)  # (1,2) not an edge there
    with pytest.raises(ValueError):
        phi_map(H3344, (2, 1, 3, 4), (3, 4, 1, 2), 2, 3)  # length decreases


def test_fixed_point_induced_graph():
    g = fixed_point_induced_graph(H3344, (3, 2, 1, 4))
    assert g.vertices == ((3, 2, 1, 4), (3, 2, 4, 1))
    assert len(g.edges) == 1
    w0 = longest_element(4)
    assert fixed_point_induced_graph(H3344, w0).vertices == (w0,)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fixed_point_graph_equals_interval_graph_for_admissible(n):
    for h in hessenberg_functions(n):
        for w in enumerate_admissible(h):
            assert fixed_point_induced_graph(h, w) == interval_graph(h, w)


def test_translated_graph_frozen():
    g = translated_unlabeled_graph(H3344, (3, 2, 1, 4))
    assert g.vertices == ((3, 2, 1, 4), (3, 2, 4, 1))
    assert len(g.edges) == 1
    # admissible w: translation is trivial
    ga = translated_unlabeled_graph(H3344, (2, 1, 3, 4))
    assert ga == fixed_point_induced_graph(H3344, (2, 1, 3, 4))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_translation_preserves_counts_and_nests_in_bounds(n):
    from hessgkm.hess import admissible_representative

    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            wt, _ = admissible_representative(w, h)
            base = fixed_point_induced_graph(h, wt)
            trans = translated_unlabeled_graph(h, w)
            induced = fixed_point_induced_graph(h, w)
            inter = interval_graph(h, w)
            assert len(trans.vertices) == len(base.vertices)
            assert len(trans.edges) == len(base.edges)
            # translate <= induced-on-fixed <= interval graph edge sets
            assert trans.edge_pairs() <= induced.edge_pairs()
            assert induced.edge_pairs() <= inter.edge_pairs()
            assert set(trans.vertices) == set(induced.vertices) <= set(inter.vertices)


def test_dot_export_deterministic():
    g = interval_graph((2, 3, 3), (2, 1, 3))
    dot = to_dot(g)
    assert dot == to_dot(interval_graph((2, 3, 3), (2, 1, 3)))
    assert dot.startswith("graph {\n")
    assert '"213" -- "231" [weight="t1-t3"];' in dot
    assert dot.endswith("}\n")


def test_json_export_schema():
    g = interval_graph((2, 3, 3), (2, 1, 3))
    d = to_json_dict(g)
    assert d["n"] == 3 and d["h"] == [2, 3, 3] and d["w"] == "213"
    assert d["vertices"] == ["213", "231", "312", "321"]
    assert {"u": "213", "v": "231", "pos": [2, 3], "val": [1, 3]} in d["edges"]
    full = to_json_dict(build_hessenberg_graph((2, 2, 3)))
    assert full["w"] is None
    assert to_json(g) == to_json(interval_graph((2, 3, 3), (2, 1, 3)))
