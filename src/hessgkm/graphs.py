"""Moment graphs of type A Hessenberg spaces and their interval subgraphs.

The full graph on a Hessenberg function h has vertex set S_n and one edge
{u, u(i,j)} for every window pair (i, j) of h.  Each edge carries a datum
(pos, val): the position pair (i, j) and the value pair (a, b) with a < b
and {a, b} = {u(i), u(j)} = {v(i), v(j)}; the torus weight of the edge is
+-(t_a - t_b), reconstructed from val on demand.

An induced graph is enumerated by one traversal of the in-set window swaps
u(i,j) with u(i) < u(j) at each vertex u, so each edge appears once, from
its lower end.  Each edge question has one source.  A whole interval's is
the summary: :func:`_window_steps` maps the swaps by target, and
:func:`summarize` reads degrees, regularity, connectivity and the edges at
each vertex (:meth:`GraphSummary.edges_at`) off them; it is type-neutral,
and :mod:`hessgkm.roots` runs the graphs of arbitrary Lie type through it.
:func:`interval_summary` is its type A entry point.  One vertex's is
:func:`edge_set_at`, which probes u's windows alone.  Export's is
:func:`_induced`, the only builder of ``GkmEdge`` objects, for DOT/JSON and
the compatibility check, on the full graph and on these:

* ``interval_graph(h, w)``     -- induced on the Bruhat interval [w, w0];
* ``fixed_point_induced_graph``-- induced on the cell-closure fixed points.

:func:`is_regular` and :func:`is_connected` on them are the summary's oracle.

The sweeps have a second source for a whole interval's degrees and
connectivity: :func:`hessgkm.perms.interval_move_masks`, built once per w,
gives each vertex's moves inside [w, w0] as a position-pair mask, and h
only filters it through :func:`hessgkm.hess.window_mask`.
:func:`masks_regular` and :func:`masks_connected` read it; the tests check
both, and the masks themselves, against the summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .hess import (
    HessFunc,
    _check_rank,
    cell_dimension,
    hess_schubert_fixed_points,
    is_admissible,
    validate_hessenberg,
    window_mask,
    windows,
)
from .perms import (
    Perm,
    all_permutations,
    apply_transposition,
    bruhat_interval,
    check_size,
    format_permutation,
    interval_move_masks,
    length,
    move_table,
)


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


def _window_steps(
    h: HessFunc, vertex_set: frozenset[Perm]
) -> dict[Perm, dict[Perm, tuple[int, int]]]:
    """For each vertex u, the map v -> (i, j) over the window swaps
    v = u(i,j) in the set with u(i) < u(j): every edge of the induced graph
    once, from its lower end (v is longer than u, so these are the h-Bruhat
    steps).  Each v is the set's own vertex object, not a fresh tuple."""
    wins = windows(h)
    vertex_of = {u: u for u in vertex_set}
    steps = {}
    for u in vertex_set:
        out = steps[u] = {}
        for ij in wins:
            i, j = ij
            a, b = u[i - 1], u[j - 1]
            if a < b:
                v = list(u)
                v[i - 1], v[j - 1] = b, a
                v = vertex_of.get(tuple(v))
                if v is not None:
                    out[v] = ij
    return steps


def _induced(h: HessFunc, vertex_set: frozenset[Perm], w: Perm | None) -> GkmGraph:
    """The graph induced on ``vertex_set``, its edges in sorted order: the
    vertices ascending, each one's up-steps by target (for a fixed u the
    target determines the window pair and the value pair).  An edge refers
    to the vertex objects and to a shared value pair, so it costs one tuple.

    This walks the window swaps as :func:`_window_steps` does, but in sorted
    order and straight into edge objects, with no map of maps between.
    Built from the summary walk, hessbench ``export`` took 8-10% longer on a
    2-vCPU VM (``wall_s`` 0.363-0.378 -> 0.395-0.413 s, 3 alternating pairs)
    and the S_8 export's peak RSS stayed 126 MB (DOT) and 239 MB (JSON)."""
    vertices = sorted(vertex_set)
    vertex_of = dict(zip(vertices, vertices))
    n = len(h)
    pair = [[(a, b) for b in range(n + 1)] for a in range(n + 1)]
    wins = windows(h)
    edges = []
    for u in vertices:
        out = []
        for ij in wins:
            i, j = ij
            a, b = u[i - 1], u[j - 1]
            if a < b:
                v = list(u)
                v[i - 1], v[j - 1] = b, a
                v = vertex_of.get(tuple(v))
                if v is not None:
                    out.append(GkmEdge(u, v, ij, pair[a][b]))
        out.sort()
        edges += out
    return GkmGraph(tuple(vertices), tuple(edges), h, w)


def build_hessenberg_graph(h) -> GkmGraph:
    """The full moment graph: vertices S_n, edges all window swaps."""
    h = validate_hessenberg(h)
    n = len(h)
    check_size(math.factorial(n), f"S_{n}")
    return _induced(h, frozenset(all_permutations(n)), None)


def interval_graph(h, w: Perm) -> GkmGraph:
    """Subgraph induced on the Bruhat interval [w, w0]."""
    h = validate_hessenberg(h)
    _check_rank(w, h)
    return _induced(h, bruhat_interval(w), w)


class GraphSummary(NamedTuple):
    """A moment graph as adjacency: ``up[u]`` maps the target of each
    length-increasing step from u to the step's edge label, ``down[u]``
    lists the reverses."""

    up: dict
    down: dict
    degrees: dict

    @property
    def connected(self) -> bool:
        """Computed on each read; any start vertex gives the same answer."""
        return len(reach(list(self.up)[:1], self.up, self.down)) == len(self.up)

    def regularity(self, expected: int, key=None) -> RegularityCheck:
        """The violator is the least bad vertex, ordered by ``key`` (by
        default the vertices' own order, as in :func:`is_regular`)."""
        bad = [u for u, d in self.degrees.items() if d != expected]
        return RegularityCheck(not bad, min(bad, key=key) if bad else None)

    def edges_at(self, u) -> list:
        """The labels of u's up-steps, then those of the steps into u."""
        return [*self.up[u].values(), *(self.up[x][u] for x in self.down[u])]


def summarize(up: dict) -> GraphSummary:
    """Degrees and connectivity of the graph whose edges are the steps in
    ``up`` (a map from each vertex to its up-steps, target -> edge label),
    each edge given once."""
    down: dict = {u: [] for u in up}
    for u, vs in up.items():
        for v in vs:
            down[v].append(u)
    degrees = {u: len(vs) + len(down[u]) for u, vs in up.items()}
    return GraphSummary(up, down, degrees)


def interval_summary(h, w: Perm) -> GraphSummary:
    """Degrees and connectivity of ``interval_graph(h, w)``, read off the
    window steps (labelled by window pair) without building edge objects."""
    h = validate_hessenberg(h)
    _check_rank(w, h)
    return summarize(_window_steps(h, bruhat_interval(w)))


def masks_regular(h: HessFunc, w: Perm, expected: int) -> bool:
    """Whether every vertex of ``interval_graph(h, w)`` has the expected
    degree, read off :func:`hessgkm.perms.interval_move_masks` under the
    window mask.  For the sweeps: h valid and of w's rank, unchecked."""
    win = window_mask(h)
    return all((mask & win).bit_count() == expected for mask in interval_move_masks(w).values())


def masks_connected(h: HessFunc, w: Perm) -> bool:
    """Whether ``interval_graph(h, w)`` is connected, by a depth-first
    search over ids along the window moves of each vertex's mask; it stops
    once every vertex is seen.  For the sweeps: h valid and of w's rank,
    unchecked."""
    win = window_mask(h)
    masks = interval_move_masks(w)
    rows = move_table(len(w)).rows
    size = len(masks)
    start = next(iter(masks))
    seen = {start}
    stack = [start]
    while len(seen) < size and stack:
        x = stack.pop()
        row = rows[x]
        moves = masks[x] & win
        while moves:
            low = moves & -moves
            y = row[low.bit_length() - 1]
            if y not in seen:
                seen.add(y)
                stack.append(y)
            moves ^= low
    return len(seen) == size


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


def edge_set_at(h, w: Perm, u: Perm) -> frozenset[tuple[int, int]]:
    """Window transpositions (i, j) with u(i,j) >= w: the edges at u in the
    interval graph of (w, h), probed at u alone."""
    h = validate_hessenberg(h)
    _check_rank(w, h)
    interval = bruhat_interval(w)
    if u not in interval:
        raise ValueError(f"{format_permutation(u)} is not in the interval of {format_permutation(w)}")
    return frozenset((i, j) for i, j in windows(h) if apply_transposition(u, i, j) in interval)


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
    return len(edge_set_at(h, w, w0)) == cell_dimension(w, h)


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


def phi_map(h, w: Perm, u: Perm, a: int, b: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The edge comparison map from the edges at u to the edges at v = u(a,b).

    Applies :func:`phi_rule` to the edge set of the interval graph of
    (w, h) at u.  With (a, b) itself an edge at u and a length-increasing
    swap, the map is injective into the edges at v.
    """
    h = validate_hessenberg(h)
    if not is_admissible(w, h):
        raise ValueError("phi is only defined for admissible w")
    e_u = edge_set_at(h, w, u)
    v = apply_transposition(u, a, b)
    if length(v) <= length(u):
        raise ValueError(f"({a},{b}) does not increase length at {format_permutation(u)}")
    if (a, b) not in e_u:
        raise ValueError(f"({a},{b}) is not an edge of the interval graph at {format_permutation(u)}")
    return phi_rule(e_u, a, b)


def fixed_point_induced_graph(h, w: Perm) -> GkmGraph:
    """Subgraph induced on the fixed points of the cell closure of (w, h)."""
    h = validate_hessenberg(h)
    return _induced(h, hess_schubert_fixed_points(w, h), w)


def to_dot(g: GkmGraph) -> str:
    """DOT text with deterministic vertex and edge order.  Each vertex is
    formatted once, and each vertex's edges (consecutive in ``g.edges``)
    become one string, so a big graph's text is not held line by line."""
    label = {u: format_permutation(u) for u in g.vertices}
    parts = ["graph {\n"]
    parts += [f'  "{x}";\n' for x in label.values()]
    for u, group in groupby(g.edges, itemgetter(0)):
        head = f'  "{label[u]}" -- "'
        parts.append("".join(f'{head}{label[v]}" [weight="t{a}-t{b}"];\n' for _, v, _, (a, b) in group))
    parts.append("}\n")
    return "".join(parts)


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


# An edge object of to_json's "edges" array, in the layout of ``json.dumps``
# with ``sort_keys=True, indent=2``.
_JSON_EDGE = (
    '{\n      "pos": [\n        %d,\n        %d\n      ],\n      "u": "%s",\n      "v": "%s",\n'
    '      "val": [\n        %d,\n        %d\n      ]\n    }'
)


def _json_array(items: list[str]) -> list[str]:
    """The pieces of a top-level member array of encoded ``items``, in the
    ``indent=2`` layout.  Each item may itself be several array items
    joined by the separator."""
    if not items:
        return ["[]"]
    pieces = ["[\n    "]
    for x in items:
        pieces += (x, ",\n    ")
    pieces[-1] = "\n  ]"
    return pieces


def to_json(g: GkmGraph) -> str:
    """``json.dumps(to_json_dict(g), sort_keys=True, indent=2)`` and a newline,
    written directly: labels hold only digits and commas, so nothing needs
    escaping.  Vertices and edges are chunked as in :func:`to_dot`;
    ``verify.oracle_graph_json`` is the encoder path."""
    label = {u: format_permutation(u) for u in g.vertices}
    edges = [
        ",\n    ".join(_JSON_EDGE % (i, j, label[u], label[v], a, b) for _, v, (i, j), (a, b) in group)
        for u, group in groupby(g.edges, itemgetter(0))
    ]
    w = "null" if g.w is None else f'"{format_permutation(g.w)}"'
    return "".join([
        '{\n  "edges": ', *_json_array(edges),
        ',\n  "h": ', *_json_array([str(x) for x in g.h]),
        f',\n  "n": {len(g.h)},\n  "vertices": ', *_json_array([f'"{x}"' for x in label.values()]),
        f',\n  "w": {w}\n}}\n',
    ])
