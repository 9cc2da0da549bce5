"""Moment graphs of type A Hessenberg spaces and their interval subgraphs.

The full graph on a Hessenberg function h has vertex set S_n and one edge
{u, u(i,j)} for every window pair (i, j) of h.  Each edge carries a datum
(pos, val): the position pair (i, j) and the value pair (a, b) with a < b
and {a, b} = {u(i), u(j)} = {v(i), v(j)}; the torus weight of the edge is
+-(t_a - t_b), reconstructed from val on demand.

Every induced graph is enumerated by one traversal, :func:`_window_steps`:
for each vertex u, the in-set window swaps u(i,j) with u(i) < u(j), so each
edge appears once, from its lower end.  :func:`interval_summary` reads
degrees, regularity and connectivity off those steps without building edge
objects; :mod:`hessgkm.classify` and the graph sweeps of
:mod:`hessgkm.verify` use it.  ``GkmEdge`` objects are built only for
DOT/JSON export, :mod:`hessgkm.cohomology` and the fixed-point graph, as
these graphs:

* ``interval_graph(h, w)``     -- induced on the Bruhat interval [w, w0];
* ``fixed_point_induced_graph``-- induced on the cell-closure fixed points;
* ``translated_unlabeled_graph``-- the left translate by u of the graph at
  the admissible representative w~ (same vertex set as the previous one,
  possibly fewer edges; meaningful as an unlabeled graph).

:func:`is_regular` and :func:`is_connected` on them are the summary's oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .hess import (
    HessFunc,
    admissible_representative,
    cell_dimension,
    hess_schubert_fixed_points,
    is_admissible,
    validate_hessenberg,
    windows,
)
from .perms import (
    Perm,
    all_permutations,
    apply_transposition,
    bruhat_interval,
    compose,
    format_permutation,
    length,
)

# Full-graph construction keeps all of S_n in memory; 8! = 40320 vertices is
# the default ceiling, overridable via the max_rank argument.
DEFAULT_MAX_RANK = 8


class GkmEdge(NamedTuple):
    u: Perm
    v: Perm
    pos: tuple[int, int]
    val: tuple[int, int]


class RegularityCheck(NamedTuple):
    ok: bool
    violator: Perm | None


@dataclass(frozen=True)
class GkmGraph:
    """Immutable labeled graph; vertices and edges are canonically sorted."""

    vertices: tuple[Perm, ...]
    edges: tuple[GkmEdge, ...]
    h: HessFunc
    w: Perm | None = None

    def vertex_set(self) -> frozenset[Perm]:
        return frozenset(self.vertices)

    def degrees(self) -> dict[Perm, int]:
        degs = {u: 0 for u in self.vertices}
        for e in self.edges:
            degs[e.u] += 1
            degs[e.v] += 1
        return degs

    def adjacency(self) -> dict[Perm, list[Perm]]:
        adj: dict[Perm, list[Perm]] = {u: [] for u in self.vertices}
        for e in self.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        return adj

    def edge_pairs(self) -> frozenset[frozenset[Perm]]:
        return frozenset(frozenset((e.u, e.v)) for e in self.edges)


def _edge_between(u: Perm, i: int, j: int) -> GkmEdge:
    v = apply_transposition(u, i, j)
    a, b = u[i - 1], u[j - 1]
    val = (a, b) if a < b else (b, a)
    if u <= v:
        return GkmEdge(u, v, (i, j), val)
    return GkmEdge(v, u, (i, j), val)


def _window_steps(
    h: HessFunc, vertex_set: frozenset[Perm]
) -> dict[Perm, dict[Perm, tuple[int, int]]]:
    """For each vertex u, the map v -> (i, j) over the window swaps
    v = u(i,j) in the set with u(i) < u(j): every edge of the induced graph
    once, from its lower end (v is longer than u, so these are the h-Bruhat
    steps)."""
    wins = windows(h)
    steps = {}
    for u in vertex_set:
        out = steps[u] = {}
        for ij in wins:
            i, j = ij
            a, b = u[i - 1], u[j - 1]
            if a < b:
                v = list(u)
                v[i - 1], v[j - 1] = b, a
                v = tuple(v)
                if v in vertex_set:
                    out[v] = ij
    return steps


def _induced(h: HessFunc, vertex_set: frozenset[Perm], w: Perm | None) -> GkmGraph:
    edges = [
        GkmEdge(u, v, ij, (u[ij[0] - 1], u[ij[1] - 1]))
        for u, out in _window_steps(h, vertex_set).items()
        for v, ij in out.items()
    ]
    edges.sort()
    return GkmGraph(tuple(sorted(vertex_set)), tuple(edges), h, w)


def build_hessenberg_graph(h, max_rank: int = DEFAULT_MAX_RANK) -> GkmGraph:
    """The full moment graph: vertices S_n, edges all window swaps."""
    h = validate_hessenberg(h)
    n = len(h)
    if n > max_rank:
        raise ValueError(
            f"rank {n} exceeds the vertex-set cap {max_rank} (pass max_rank to override)"
        )
    return _induced(h, frozenset(all_permutations(n)), None)


def interval_graph(h, w: Perm) -> GkmGraph:
    """Subgraph induced on the Bruhat interval [w, w0]."""
    h = validate_hessenberg(h)
    if len(w) != len(h):
        raise ValueError(f"rank mismatch: |w| = {len(w)}, |h| = {len(h)}")
    return _induced(h, bruhat_interval(w), w)


class WindowSummary(NamedTuple):
    """The interval graph as adjacency: ``up[u]`` holds the h-Bruhat steps
    from u (keyed by target, valued by window pair), ``down[u]`` their
    reverses."""

    up: dict[Perm, dict[Perm, tuple[int, int]]]
    down: dict[Perm, list[Perm]]
    degrees: dict[Perm, int]
    connected: bool

    def regularity(self, expected: int) -> RegularityCheck:
        """Like :func:`is_regular`: the violator is the least in sorted order."""
        bad = [u for u, d in self.degrees.items() if d != expected]
        return RegularityCheck(not bad, min(bad) if bad else None)


def interval_summary(h, w: Perm) -> WindowSummary:
    """Degrees and connectivity of ``interval_graph(h, w)``, read off the
    window steps without building edge objects."""
    h = validate_hessenberg(h)
    if len(w) != len(h):
        raise ValueError(f"rank mismatch: |w| = {len(w)}, |h| = {len(h)}")
    interval = bruhat_interval(w)
    up = _window_steps(h, interval)
    down: dict[Perm, list[Perm]] = {u: [] for u in interval}
    for u, vs in up.items():
        for v in vs:
            down[v].append(u)
    degrees = {u: len(vs) + len(down[u]) for u, vs in up.items()}
    return WindowSummary(up, down, degrees, len(reach((w,), up, down)) == len(up))


def reach(starts, *adjacencies) -> set[Perm]:
    """The vertices reachable from ``starts`` along the given adjacency maps."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        x = stack.pop()
        for adj in adjacencies:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return seen


def window_edges(h: HessFunc, interval: frozenset[Perm], u: Perm) -> list[tuple[int, int]]:
    """Window pairs (i, j) with u(i,j) in the interval, in window order:
    the edges at u of the graph induced on the interval."""
    return [(i, j) for i, j in windows(h) if apply_transposition(u, i, j) in interval]


def edge_set_at(h, w: Perm, u: Perm) -> frozenset[tuple[int, int]]:
    """Window transpositions (i, j) with u(i,j) >= w: the edges at u in the
    interval graph of (w, h)."""
    h = validate_hessenberg(h)
    interval = bruhat_interval(w)
    if u not in interval:
        raise ValueError(f"{format_permutation(u)} is not in the interval of {format_permutation(w)}")
    return frozenset(window_edges(h, interval, u))


def degree(h, w: Perm, u: Perm) -> int:
    return len(edge_set_at(h, w, u))


def is_regular(g: GkmGraph, expected: int) -> RegularityCheck:
    """Whether every vertex has the expected degree; reports the first
    violating vertex in sorted vertex order."""
    degs = g.degrees()
    for u in g.vertices:
        if degs[u] != expected:
            return RegularityCheck(False, u)
    return RegularityCheck(True, None)


def regularity_via_w0(h, w: Perm) -> bool:
    """Degree shortcut at the top vertex, valid for admissible w only:
    the interval graph is regular iff deg(w0) equals the cell dimension."""
    h = validate_hessenberg(h)
    if not is_admissible(w, h):
        raise ValueError(f"{format_permutation(w)} is not admissible for h={h}; the shortcut does not apply")
    w0 = tuple(range(len(w), 0, -1))
    return degree(h, w, w0) == cell_dimension(w, h)


def is_connected(g: GkmGraph) -> bool:
    if not g.vertices:
        return True
    adj = g.adjacency()
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(g.vertices)


def phi_rule(
    edge_set, a: int, b: int
) -> dict[tuple[int, int], tuple[int, int]]:
    """The raw edge comparison rule for the move (a, b): (i, j) goes to
    (b, j) when i = a, j > b and (b, j) is not in the edge set; to (i, a)
    when i < a, j = b and (i, a) is not in the edge set; else stays put."""
    e_set = frozenset(edge_set)
    out = {}
    for i, j in sorted(e_set):
        if i == a and j > b and (b, j) not in e_set:
            out[(i, j)] = (b, j)
        elif i < a and j == b and (i, a) not in e_set:
            out[(i, j)] = (i, a)
        else:
            out[(i, j)] = (i, j)
    return out


def phi_map(
    h,
    w: Perm,
    u: Perm,
    a: int,
    b: int,
    require_window: bool = True,
) -> dict[tuple[int, int], tuple[int, int]]:
    """The edge comparison map from the edges at u to the edges at v = u(a,b).

    Applies :func:`phi_rule` to the edge set of the interval graph of
    (w, h) at u.  With (a, b) itself an edge at u and a length-increasing
    swap, the map is injective into the edges at v.

    ``require_window=False`` drops the demand that (a, b) be a window pair,
    which is the setting of the surjectivity check at u = w for an
    arbitrary transposition.
    """
    h = validate_hessenberg(h)
    if not is_admissible(w, h):
        raise ValueError("phi is only defined for admissible w")
    e_u = edge_set_at(h, w, u)
    v = apply_transposition(u, a, b)
    if length(v) <= length(u):
        raise ValueError(f"({a},{b}) does not increase length at {format_permutation(u)}")
    if require_window and (a, b) not in e_u:
        raise ValueError(f"({a},{b}) is not an edge of the interval graph at {format_permutation(u)}")
    if v not in bruhat_interval(w):
        raise ValueError(f"{format_permutation(v)} leaves the interval of {format_permutation(w)}")
    return phi_rule(e_u, a, b)


def fixed_point_induced_graph(h, w: Perm) -> GkmGraph:
    """Subgraph induced on the fixed points of the cell closure of (w, h)."""
    h = validate_hessenberg(h)
    return _induced(h, hess_schubert_fixed_points(w, h), w)


def translated_unlabeled_graph(h, w: Perm) -> GkmGraph:
    """Left translate by u of the induced graph at the representative w~.

    Vertex set is the fixed-point set of (w, h).  Edge count and degrees
    match the graph at w~; the value pairs are recomputed from the new
    endpoints, so only the unlabeled structure is transported.
    """
    h = validate_hessenberg(h)
    wt, u = admissible_representative(w, h)
    base = fixed_point_induced_graph(h, wt)
    edges = set()
    for e in base.edges:
        edges.add(_edge_between(compose(u, e.u), e.pos[0], e.pos[1]))
    vertices = frozenset(compose(u, x) for x in base.vertices)
    return GkmGraph(tuple(sorted(vertices)), tuple(sorted(edges)), h, w)


def to_dot(g: GkmGraph) -> str:
    """DOT text with deterministic vertex and edge order."""
    lines = ["graph {"]
    for u in g.vertices:
        lines.append(f'  "{format_permutation(u)}";')
    for e in g.edges:
        a, b = e.val
        lines.append(
            f'  "{format_permutation(e.u)}" -- "{format_permutation(e.v)}" [weight="t{a}-t{b}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(g: GkmGraph) -> dict:
    return {
        "n": len(g.h),
        "h": list(g.h),
        "w": format_permutation(g.w) if g.w is not None else None,
        "vertices": [format_permutation(u) for u in g.vertices],
        "edges": [
            {
                "u": format_permutation(e.u),
                "v": format_permutation(e.v),
                "pos": list(e.pos),
                "val": list(e.val),
            }
            for e in g.edges
        ],
    }


def to_json(g: GkmGraph) -> str:
    return json.dumps(to_json_dict(g), sort_keys=True, indent=2) + "\n"
