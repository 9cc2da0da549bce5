"""Moment graph construction, degrees, regularity, connectivity, exports."""

import math
import tracemalloc
from array import array
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hessgkm import graphs
from hessgkm.graphs import (
    _lane_layout,
    _type_a_move_graph,
    build_hessenberg_graph,
    bruhat_move_graph,
    interval_graph,
    interval_move_graph,
    is_connected,
    is_regular,
    to_dot,
    to_json,
    to_json_dict,
)
from hessgkm.hess import cell_dimension, enumerate_admissible, h_length, complexity_dimension, window_mask, windows
from hessgkm.perms import (
    all_permutations,
    apply_transposition,
    bruhat_interval,
    bruhat_interval_lex,
    compose,
    identity,
    inversion_mask,
    length,
    longest_element,
    transpositions,
)
from hessgkm.verify import (
    _induced,
    edge_set_at,
    fixed_point_induced_graph,
    h_bruhat_walk,
    hessenberg_functions,
    oracle_bruhat_upset,
    oracle_json,
    oracle_move_graph,
    phi_map,
    regularity_via_w0,
)

H3344 = (3, 3, 4, 4)


def edge_pairs(g):
    return {frozenset((e.u, e.v)) for e in g.edges}


def test_small_rank_graph_edge_sets():
    g = build_hessenberg_graph((2, 2, 3))
    assert len(g.edges) == 3
    assert edge_pairs(g) == {
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
    # S_9 (362,880 vertices) is past the size limit, so rank 9 fails before
    # any vertex is built; 8! = 40,320 fits.
    with pytest.raises(ValueError, match="S_9: 362880 items exceed the size limit"):
        build_hessenberg_graph((9,) * 9)


def test_interval_graph_vertices_and_edges():
    g = interval_graph((2, 3, 3), (2, 1, 3))
    assert g.vertices == ((2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))
    assert edge_pairs(g) == {
        frozenset({(2, 1, 3), (2, 3, 1)}),
        frozenset({(2, 3, 1), (3, 2, 1)}),
        frozenset({(3, 1, 2), (3, 2, 1)}),
    }
    assert sorted(g.degrees().values()) == [1, 1, 2, 2]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_degrees_and_adjacency_count_the_edges(n):
    # Both read the rows of the edge walk; here they are counted off the
    # GkmEdge tuples, in edge order.
    def graphs():
        for h in hessenberg_functions(n):
            yield build_hessenberg_graph(h)
            for w in all_permutations(n):
                yield interval_graph(h, w)

    for g in graphs():
        degs = {u: 0 for u in g.vertices}
        adj = {u: [] for u in g.vertices}
        for e in g.edges:
            degs[e.u] += 1
            degs[e.v] += 1
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        assert g.degrees() == degs
        assert g.adjacency() == adj


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
    assert len(edge_set_at((2, 3, 3), (2, 1, 3), (2, 1, 3))) == 1
    assert len(edge_set_at((2, 3, 3), (2, 1, 3), (3, 2, 1))) == 2
    assert len(edge_set_at(H3344, (4, 3, 1, 2), (4, 3, 2, 1))) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_degree_at_minimum_is_cell_dimension(n):
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            assert len(edge_set_at(h, w, w)) == cell_dimension(w, h)


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


def _components(vertices, edges):
    # The components of a graph on ``vertices`` with ``edges``, counted by
    # search.
    adj = {u: [] for u in vertices}
    for e in edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    seen, count = set(), 0
    for u in vertices:
        if u not in seen:
            count += 1
            seen.add(u)
            stack = [u]
            while stack:
                for v in adj[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
    return count


@pytest.mark.parametrize("n", range(1, 6))
def test_one_sink_iff_connected(n):
    # Both type A kernels have as many sinks as the induced graph has
    # components (the rule of MoveGraph.sinks: one sink in each coset of the
    # Young subgroup of h's blocks), so one sink is connectivity.  At n = 5,
    # 2,025 pairs have one sink and 3,015 several.
    counts = {True: 0, False: 0}
    for h in hessenberg_functions(n):
        win = window_mask(h)
        for w in all_permutations(n):
            g = interval_graph(h, w)
            sinks = bruhat_move_graph(w).sinks(win)
            components = _components(g.vertices, _induced(h, g.vertices))
            assert sinks == interval_move_graph(h, w).sinks() == components, (h, w)
            assert (sinks == 1) == is_connected(g)
            counts[sinks == 1] += 1
    if n == 5:
        assert counts == {True: 2025, False: 3015}


def _check_move_graph(kernel, within, h, w, pairs):
    # A kernel read through ``within`` against the oracle's edges induced by
    # h on [w, w0], which share no arithmetic with it.  First the masks: the
    # moves at each vertex are the pairs of its edges, the up bits those of
    # the edges it is the lower end of.  Then the up-step walk is the edges
    # from their lower ends, in order; the degrees, the first violator for
    # every degree value and the components are the induced graph's.
    assert kernel.vertices == tuple(sorted(bruhat_interval(w)))
    induced = _induced(h, kernel.vertices)
    bit = {ij: 1 << k for k, ij in pairs}
    expect_moves = dict.fromkeys(kernel.vertices, 0)
    expect_up = dict.fromkeys(kernel.vertices, 0)
    for e in induced:
        expect_moves[e.u] |= bit[e.pos]
        expect_moves[e.v] |= bit[e.pos]
        expect_up[e.u] |= bit[e.pos]
    assert [m & within for m in kernel.moves] == list(expect_moves.values())
    assert [u & m & within for u, m in zip(kernel.up, kernel.moves)] == list(expect_up.values())
    vertices = kernel.vertices
    steps = [(vertices[x], vertices[y], pairs[k][1]) for x, k, y in kernel.up_steps() if within >> k & 1]
    assert sorted(steps) == [(e.u, e.v, e.pos) for e in induced]
    assert all(length(v) > length(u) for u, v, _ in steps)
    degs = dict.fromkeys(kernel.vertices, 0)
    for e in induced:
        degs[e.u] += 1
        degs[e.v] += 1
    assert dict(zip(kernel.vertices, kernel.degrees(within))) == degs
    for d in set(degs.values()) | {cell_dimension(w, h)}:
        bad = next((u for u, k in degs.items() if k != d), None)
        assert kernel.regularity(d, within) == (bad is None, bad)
    assert kernel.sinks(within) == _components(kernel.vertices, induced)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_interval_summary_matches_graph(n):
    # The windowed kernel of every (h, w) against the induced edges of the
    # GkmGraph it stands in for.
    pairs = list(enumerate(transpositions(n)))
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            _check_move_graph(interval_move_graph(h, w), -1, h, w, pairs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_move_masks_agree_with_summary(n):
    # The sweeps' per-w kernel of every pair, read through h's window mask,
    # against the windowed kernel, which the test above holds to the
    # GkmGraph: the same moves and up bits at each vertex, the same up-steps
    # in the same order, and the same degrees, violators, connectivity and
    # up- and down-reach.
    walks = {w: list(bruhat_move_graph(w).up_steps()) for w in all_permutations(n)}
    for h in hessenberg_functions(n):
        win = window_mask(h)
        for w in all_permutations(n):
            shared, own = bruhat_move_graph(w), interval_move_graph(h, w)
            assert shared.vertices == own.vertices
            for x in range(len(own.vertices)):
                moves = shared.moves[x] & win
                assert moves == own.moves[x] and shared.up[x] & moves == own.up[x]
            assert [step for step in walks[w] if win >> step[1] & 1] == list(own.up_steps())
            degs = own.degrees()
            assert shared.degrees(win) == degs
            for d in set(degs) | {cell_dimension(w, h)}:
                assert shared.regularity(d, win) == own.regularity(d)
            assert shared.sinks(win) == own.sinks()
            for toward in (1, -1):
                assert h_bruhat_walk(shared, [0], toward, win) == h_bruhat_walk(own, [0], toward)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_summary_edges_at_matches_edge_set_at(n):
    # Each vertex's move bits in both kernels are the edges that the
    # one-vertex probe finds at it.
    pairs = list(enumerate(transpositions(n)))
    for h in hessenberg_functions(n):
        win = window_mask(h)
        for w in all_permutations(n):
            for kernel, within in ((interval_move_graph(h, w), -1), (bruhat_move_graph(w), win)):
                for x, u in enumerate(kernel.vertices):
                    moves = kernel.moves[x] & within
                    assert {ij for k, ij in pairs if moves >> k & 1} == edge_set_at(h, w, u)


@pytest.mark.parametrize("n", range(1, 6))
def test_bruhat_move_graph_matches_definition(n):
    # Per w, [w, w0] in lexicographic order; at each u the pairs k with
    # u t_k in the interval, and the up bits are the pairs off u's
    # inversions.  The up-step walk, each step taken from both ends, leads
    # along every move k at u to u t_k.
    pairs = transpositions(n)
    full = (1 << len(pairs)) - 1
    for w in all_permutations(n):
        interval = bruhat_interval(w)
        g = bruhat_move_graph.__wrapped__(w)
        assert g.vertices == tuple(sorted(interval)) and g.width == len(pairs)
        index = {u: x for x, u in enumerate(g.vertices)}
        steps = []
        for x, u in enumerate(g.vertices):
            inside = {k: apply_transposition(u, i, j) for k, (i, j) in enumerate(pairs)}
            inside = {k: v for k, v in inside.items() if v in interval}
            assert g.moves[x] == sum(1 << k for k in inside)
            assert g.up[x] == full & ~inversion_mask(u)
            steps += [(x, k, index[v]) for k, v in inside.items()]
        walked = list(g.up_steps())
        assert sorted(walked + [(y, k, x) for x, k, y in walked]) == sorted(steps)


def test_kernel_codes_past_rank_255():
    # An entry takes two bytes of a vertex's code from n = 128, as it takes
    # two bytes of a lane, so neither caps the rank short of the pair
    # limit.  Near w0 of S_300, [w, w0] is a square: w, its up-steps by the
    # pairs (1, 2) and (299, 300), and w0.
    n = 300
    w0 = longest_element(n)
    w = apply_transposition(apply_transposition(w0, 1, 2), n - 1, n)
    pairs = transpositions(n)
    first, last = pairs.index((1, 2)), pairs.index((n - 1, n))
    for g in (interval_move_graph((n,) * n, w), bruhat_move_graph.__wrapped__(w)):
        assert g.vertices == tuple(sorted(bruhat_interval(w))) and len(g.vertices) == 4
        assert g.width == len(pairs)
        assert list(g.moves) == [1 << first | 1 << last] * 4
        assert list(g.up) == [1 << first | 1 << last, 1 << first, 1 << last, 0]
        assert list(g.up_steps()) == [(0, first, 2), (0, last, 1), (1, first, 3), (2, last, 3)]
        for x, k, y in g.up_steps():
            assert g.vertices[y] == apply_transposition(g.vertices[x], *pairs[k])
        assert g.degrees() == [2] * 4 and g.sinks() == 1


def test_interval_kernel_checks_the_pair_limit_first():
    # C(363, 2) position pairs exceed the size limit (C(362, 2) do not), so
    # w0's one-vertex interval is refused before a lane schedule is cached.
    n = 363
    before = _lane_layout.cache_info().currsize
    with pytest.raises(ValueError, match="position pairs"):
        interval_move_graph((n,) * n, longest_element(n))
    assert _lane_layout.cache_info().currsize == before


def test_bruhat_move_graph_size_limit():
    with pytest.raises(ValueError, match="exceed the size limit SIZE_LIMIT"):
        bruhat_move_graph(identity(9))


def _same_kernel(w, allowed):
    # The lane kernel against the per-vertex pass it replaced: the same
    # vertices, width and masks, bit for bit and of the same type.
    got, want = _type_a_move_graph(w, allowed), oracle_move_graph(w, allowed)
    assert got.vertices == want.vertices and got.width == want.width, (w, allowed)
    assert type(got.moves) is type(want.moves) and type(got.up) is type(want.up), (w, allowed)
    assert got.moves == want.moves and got.up == want.up, (w, allowed)
    return got


@pytest.mark.parametrize("n", range(1, 6))
def test_lane_kernel_matches_the_pass_oracle(n):
    # Every w under every window mask and under every pair.
    masks = [window_mask(h) for h in hessenberg_functions(n)] + [-1]
    for w in all_permutations(n):
        for allowed in masks:
            _same_kernel(w, allowed)


@pytest.mark.parametrize("n,block", [(n, b) for n in range(1, 5) for b in (1, 2, 7)] + [(5, 7)])
def test_lane_kernel_by_blocks_matches_the_pass_oracle(monkeypatch, n, block):
    # The kernel runs over blocks of vertices: a pair may have an ascent in
    # one block only and its descents in another.  Blocks of 1, 2 and 7
    # vertices, every w under every window mask and under every pair.
    layout = graphs._lane_layout
    monkeypatch.setattr(graphs, "_lane_layout", lambda n: layout(n)[:-1] + (block,))
    masks = [window_mask(h) for h in hessenberg_functions(n)] + [-1]
    for w in all_permutations(n):
        for allowed in masks:
            _same_kernel(w, allowed)


def test_lane_kernel_peak_memory_is_the_oracles():
    # A Boolean interval of 2^16 vertices at n = 36 (w0 times 16 disjoint
    # adjacent swaps) under a banded h: the kernel's big ints run block by
    # block, so its peak stays near its masks', as the pass oracle's does,
    # not a whole-interval group int per position.  Its masks, from over a
    # hundred blocks, are the oracle's.
    n = 36
    w = _below_w0(n, [(p, p + 1) for p in range(1, n, 2)][:16])
    h = tuple(min(i + 3, n) for i in range(1, n + 1))
    allowed = window_mask(h)
    try:
        assert len(bruhat_interval_lex(w)) == 1 << 16
        built, peaks = [], []
        for build in (_type_a_move_graph, oracle_move_graph):
            tracemalloc.start()
            try:
                built.append(build(w, allowed))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 1.25 * peaks[1], peaks
        got, want = built
        assert got.moves == want.moves and got.up == want.up
    finally:
        bruhat_interval_lex.cache_clear()


def _below_w0(n, swaps):
    # w0 with the given position swaps applied in order: for a few adjacent
    # swaps, a short interval [w, w0].
    w = longest_element(n)
    for i, j in swaps:
        w = apply_transposition(w, i, j)
    return w


@pytest.mark.parametrize(
    "n,swaps",
    [
        (1, []),
        (2, []),
        (2, [(1, 2)]),
        (3, []),
        (6, []),
        (11, [(1, 2), (5, 6), (10, 11)]),
        (11, [(3, 4), (2, 3), (4, 5)]),
        (12, [(1, 2), (6, 7), (11, 12)]),
        (12, [(3, 4), (2, 3), (4, 5)]),
        (127, [(1, 2), (63, 64), (126, 127)]),
        (128, [(1, 2), (64, 65), (127, 128)]),
        (128, [(2, 3), (1, 2), (3, 4)]),
        (129, [(1, 2), (64, 65), (128, 129)]),
        (200, [(1, 2), (100, 101), (199, 200), (2, 3)]),
        (255, [(1, 2), (127, 128), (254, 255), (2, 3)]),
        (256, [(1, 2), (128, 129), (255, 256), (2, 3)]),
    ],
)
def test_lane_kernel_at_its_edges(n, swaps):
    # One vertex (w = w0), the ranks 1 and 2, masks of 55 and 66 bits
    # (array('Q') at n = 11, ints from n = 12), and both sides of the
    # lane-width switch (one byte a lane to n = 127, two from 128), which
    # the vertex codes of the edge walks share.  Each kernel is held to the
    # pass oracle, and its up-step walk and the export's rows to the edges
    # of _induced, under every pair (h = (n, ..., n)) and under h's windows.
    w = _below_w0(n, swaps)
    pairs = list(enumerate(transpositions(n)))
    for h in [(n,) * n, tuple(min(i + 2, n) for i in range(1, n + 1))]:
        kernel = _same_kernel(w, window_mask(h))
        assert isinstance(kernel.moves, array) == (len(pairs) <= 64)
        _check_move_graph(kernel, -1, h, w, pairs)
        assert interval_graph(h, w).edges == _induced(h, kernel.vertices)


def test_export_near_w0_at_the_pair_limit_peaks_in_bounded_memory():
    # [w, w0] for w = w0 (1, 2) at n = 362, the pair limit: two vertices and
    # one edge.  Its export once built a per-rank code table that grows as
    # n^3, 336 MB at the peak of graph, DOT and JSON under tracemalloc; the
    # walk now reads the lane schedule, of n^2 rows and n weights.  The
    # schedule is built inside the measurement.
    n = 362
    w = apply_transposition(longest_element(n), 1, 2)
    _lane_layout.cache_clear()
    tracemalloc.start()
    try:
        g = interval_graph((n,) * n, w)
        dot, text = to_dot(g), to_json(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _lane_layout.cache_clear()
    assert len(g.vertices) == 2 and dot.count(" -- ") == 1 and text.count('"pos"') == 1
    assert peak <= 336 * 2**20 // 3, peak


@st.composite
def kernel_cases(draw):
    # A rank 6..9 and a window mask (a Hessenberg function's, or every
    # pair).  At n = 6 and 7 w is any permutation; at n = 8 and 9 it is w0
    # after up to 12 random adjacent swaps, which keeps [w, w0] small.
    n = draw(st.integers(6, 9))
    if n <= 7:
        w = tuple(draw(st.permutations(range(1, n + 1))))
    else:
        swaps = draw(st.lists(st.integers(1, n - 1), max_size=12))
        w = _below_w0(n, [(i, i + 1) for i in swaps])
    bounds = draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    h = []
    for i, b in enumerate(bounds, 1):
        h.append(max(b, i, h[-1] if h else 1))
    allowed = draw(st.sampled_from([window_mask(tuple(h)), -1]))
    return w, allowed


@given(kernel_cases())
@settings(deadline=None)
def test_lane_kernel_matches_the_pass_oracle_random(case):
    _same_kernel(*case)


def _pattern(values):
    return tuple(sorted(values).index(x) + 1 for x in values)


@pytest.mark.parametrize(
    "n,regular_count", [(1, 1), (2, 2), (3, 6), (4, 22), (5, 88), (6, 366)]
)
def test_full_h_regularity_matches_classical_criteria(n, regular_count):
    # At h = (n, ..., n) the cell closure of w is w0 times the Schubert
    # variety of w0 w.  Its interval graph is regular iff the rank-generating
    # function of [w, w0] is palindromic (Carrell-Peterson) iff w0 w avoids
    # 3412 and 4231 (Lakshmibai-Sandhya).  The regular counts are the
    # smooth-permutation counts.
    h = (n,) * n
    w0 = longest_element(n)
    regular = 0
    for w in all_permutations(n):
        is_reg = interval_move_graph(h, w).regularity(cell_dimension(w, h)).ok
        ranks = [0] * (length(w0) + 1)
        for v in bruhat_interval(w):
            ranks[length(v)] += 1
        ranks = ranks[length(w):]
        palindromic = ranks == ranks[::-1]
        avoids = all(
            _pattern(values) not in ((3, 4, 1, 2), (4, 2, 3, 1))
            for values in combinations(compose(w0, w), 4)
        )
        assert is_reg == palindromic == avoids, w
        regular += is_reg
    assert regular == regular_count


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


def test_edge_set_at_and_phi_map_check_u():
    # u is taken as a permutation, as w is: a list is one, and a u of the
    # wrong rank is named so rather than reported outside the interval.
    h, w = (2, 3, 3), (2, 1, 3)
    assert edge_set_at(h, w, [2, 1, 3]) == edge_set_at(h, w, (2, 1, 3))
    assert phi_map(H3344, (1, 2, 3, 4), [1, 2, 3, 4], 1, 2) == phi_map(H3344, (1, 2, 3, 4), (1, 2, 3, 4), 1, 2)
    with pytest.raises(ValueError, match=r"rank mismatch: \|u\| = 4, \|h\| = 3"):
        edge_set_at(h, w, (2, 1, 3, 4))
    with pytest.raises(ValueError, match=r"rank mismatch: \|u\| = 3, \|h\| = 4"):
        phi_map(H3344, (1, 2, 3, 4), (1, 2, 3), 1, 2)
    for u in [(2, 2, 3), (0, 1, 2)]:
        with pytest.raises(ValueError, match="not a permutation"):
            edge_set_at(h, w, u)
        with pytest.raises(ValueError, match="not a permutation"):
            phi_map(h, w, u, 1, 2)


def test_fixed_point_induced_graph_keeps_w_as_a_tuple():
    g = fixed_point_induced_graph((2, 3, 3), [2, 1, 3])
    assert type(g.w) is tuple and g == fixed_point_induced_graph((2, 3, 3), (2, 1, 3))


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_translation_preserves_counts_and_nests_in_bounds(n):
    # The left translate by u of the graph at the representative w~ keeps
    # its vertex and edge counts, and nests: translate <= graph induced on
    # the fixed points <= interval graph.
    from hessgkm.hess import admissible_representative

    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            wt, u = admissible_representative(w, h)
            base = fixed_point_induced_graph(h, wt)
            trans_vertices = {compose(u, x) for x in base.vertices}
            trans_edges = {frozenset((compose(u, e.u), compose(u, e.v))) for e in base.edges}
            induced = fixed_point_induced_graph(h, w)
            inter = interval_graph(h, w)
            assert len(trans_vertices) == len(base.vertices)
            assert len(trans_edges) == len(base.edges)
            assert trans_edges <= edge_pairs(induced)
            assert edge_pairs(induced) <= edge_pairs(inter)
            assert trans_vertices == set(induced.vertices) <= set(inter.vertices)


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


def _export_cases():
    """The full graph and every interval graph for n <= 4, every full graph
    for n = 5, both edge-free shapes, and a rank-10 interval graph, whose
    labels are comma-separated."""
    for n in range(1, 5):
        for h in hessenberg_functions(n):
            yield build_hessenberg_graph(h)
            for w in all_permutations(n):
                yield interval_graph(h, w)
    for h in hessenberg_functions(5):
        yield build_hessenberg_graph(h)
    yield build_hessenberg_graph(tuple(range(1, 6)))
    yield interval_graph((5, 5, 5, 5, 5), longest_element(5))
    w0 = longest_element(10)
    yield interval_graph((10,) * 10, compose(w0, (2, 1, 3, 4, 5, 6, 7, 8, 9, 10)))


def test_json_export_matches_encoder_oracle():
    shapes = {"edge-free": 0, "comma labels": 0}
    for g in _export_cases():
        text = to_json(g)
        assert text == oracle_json(to_json_dict(g))
        shapes["edge-free"] += '"edges": []' in text
        shapes["comma labels"] += '"10,9,' in text
    assert all(shapes.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_graph_order_is_canonical(n):
    # Edges are emitted vertex by vertex rather than sorted at the end; the
    # result must still be the sorted order, each edge once from its lower end.
    cases = [build_hessenberg_graph(h) for h in hessenberg_functions(n)]
    if n <= 4:
        for h in hessenberg_functions(n):
            for w in all_permutations(n):
                cases += [interval_graph(h, w), fixed_point_induced_graph(h, w)]
    for g in cases:
        assert g.vertices == tuple(sorted(g.vertices))
        assert g.edges == tuple(sorted(g.edges))
        assert len(edge_pairs(g)) == len(g.edges)
        for u, _, (i, j), _ in g.edges:
            assert u[i - 1] < u[j - 1]


@pytest.mark.parametrize("n", range(1, 7))
def test_edge_rows_match_the_induced_oracle(n):
    # GkmGraph.edges come from the kernel's arithmetic on integer codes; the
    # oracle swaps entries of a list and probes the vertex set.  Every full
    # graph with n <= 6, every interval graph with n <= 5, and every graph on
    # the cell-closure fixed points, which are not an upset, with n <= 4.
    for h in hessenberg_functions(n):
        cases = [build_hessenberg_graph(h)]
        if n <= 5:
            cases += [interval_graph(h, w) for w in all_permutations(n)]
        if n <= 4:
            cases += [fixed_point_induced_graph(h, w) for w in all_permutations(n)]
        for g in cases:
            assert g.edges == _induced(h, g.vertices), (h, g.w)
