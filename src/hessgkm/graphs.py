"""Moment graphs of type A Hessenberg spaces and their interval subgraphs.

The full graph on a Hessenberg function h has vertex set S_n and one edge
{u, u(i,j)} for every window pair (i, j) of h.  Each edge carries a datum
(pos, val): the position pair (i, j) and the value pair (a, b) with a < b
and {a, b} = {u(i), u(j)} = {v(i), v(j)}; the torus weight of the edge is
+-(t_a - t_b), reconstructed from val on demand.

Each edge question has one source.  A whole interval's, in either type, is
the kernel :class:`MoveGraph`: per vertex a mask of its moves and one of its
up-steps, which answer degrees, regularity and connectivity.  The targets
are filled from the type's walk of its up-steps on the first read, which
only the sweeps' phi suites and the oracles of :mod:`hessgkm.verify` make.
Type A moves by the swaps u(i,j).  [w, w0] is an upset, so every descent
inside it mirrors an ascent of its lower end, and one pass over the
ascents sets each edge's bit at both ends, the target found by arithmetic
on integer codes of the vertices.  Its kernels are
:func:`interval_move_graph` by h's windows (``classify``, the localized
classes, example61) and :func:`bruhat_move_graph` by every pair, once per
w, for the sweeps to read under each h's window mask.  :mod:`hessgkm.roots`
reads its masks off inversion sets and walks its reflection table.
Export reads a ``GkmGraph``, the full graph or ``interval_graph(h, w)``
on the Bruhat interval [w, w0], which keeps only its vertices, h and w.
One walk, :func:`_edge_rows`, lists each vertex's window ascents inside
the vertex set by the same arithmetic on codes.  DOT/JSON and the
compatibility check stream its rows; ``GkmGraph.edges`` builds ``GkmEdge``
objects from them on each read, for ``to_json_dict``, :func:`is_regular`,
:func:`is_connected` and the tests.  ``verify._induced``, which swaps the
entries and probes the vertex set, is the oracle of those edges, and the
kernels are checked against it.
The claims that only the sweeps and the tests check (the one-vertex probe
``edge_set_at``, the top-degree shortcut, the phi maps, the h-Bruhat walk
and the graph on the cell-closure fixed points) live in :mod:`hessgkm.verify`.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import count, repeat
from typing import NamedTuple

from .hess import HessFunc, _check_rank, validate_hessenberg, window_mask
from .perms import (
    Perm,
    all_permutations,
    as_permutation,
    bruhat_interval_lex,
    check_size,
    format_permutation,
    transpositions,
)


class GkmEdge(NamedTuple):
    u: Perm
    v: Perm
    pos: tuple[int, int]
    val: tuple[int, int]


class RegularityCheck(NamedTuple):
    ok: bool
    violator: Perm | None


class GkmGraph(NamedTuple):
    """Immutable labeled graph on canonically sorted vertices.  Its edges
    are not stored: :func:`_edge_rows` walks them from the vertices and h,
    and ``edges`` builds them, sorted, on each read."""

    vertices: tuple[Perm, ...]
    h: HessFunc
    w: Perm | None = None

    @property
    def edges(self) -> tuple[GkmEdge, ...]:
        """The edges in sorted order, from their lower ends."""
        vertices = self.vertices
        return tuple(
            GkmEdge(u, vertices[y], (i, j), (a, b))
            for u, rows in zip(vertices, _edge_rows(self))
            for y, i, j, a, b in rows
        )

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


def _edge_rows(g: GkmGraph):
    """Per vertex u of g, in order, its window ascents u -> u(i,j) inside the
    vertex set, as rows (target id, i, j, u(i), u(j)) sorted by target id.
    Each target is found by the kernel's arithmetic on integer codes and
    looked up with ``get``: the vertex set need not be an upset (the
    cell-closure fixed points are not)."""
    vertices = g.vertices
    index = _code_index(vertices)
    get = index.get
    win = window_mask(g.h)
    rows = [(i, j, d, i + 1, j + 1) for bit, i, j, d in _code_pairs(len(g.h)) if bit & win]
    for u, code in zip(vertices, index):
        out = []
        for i, j, d, p, q in rows:
            a, b = u[i], u[j]
            if a < b:
                y = get(code + (b - a) * d)
                if y is not None:
                    out.append((y, p, q, a, b))
        out.sort()
        yield out


def build_hessenberg_graph(h) -> GkmGraph:
    """The full moment graph: vertices S_n, edges all window swaps."""
    h = validate_hessenberg(h)
    n = len(h)
    check_size(math.factorial(n), f"S_{n}")
    return GkmGraph(tuple(all_permutations(n)), h)


def interval_graph(h, w: Perm) -> GkmGraph:
    """Subgraph induced on the Bruhat interval [w, w0]."""
    h = validate_hessenberg(h)
    w = as_permutation(w)
    _check_rank(w, h)
    return GkmGraph(bruhat_interval_lex(w), h, w)


class MoveGraph:
    """An interval's moment graph on local ids 0, 1, ... in the order of
    ``vertices``, which the caller chooses.  An edge has one bit at both
    ends: a position pair in type A (as in :func:`hessgkm.perms.inversion_mask`),
    a positive root in general type; ``width`` is the number of bits.
    ``moves[x]`` has the bits of the edges at x inside the interval and
    ``up[x]`` those that lengthen x.  A read sees only the bits of
    ``within``.  The masks answer degrees, regularity and sinks; bit k at x
    leads to ``targets[x * width + k]``, filled on the first read that walks
    edges from ``up_steps(self)``, the type's own walk of (x, k, y) over the
    up bits, each mirrored into its target."""

    __slots__ = ("vertices", "moves", "up", "width", "_up_steps", "_targets")

    def __init__(self, vertices, moves, up, width, up_steps) -> None:
        self.vertices = vertices
        self.width = width
        self.moves = _pack(moves, width)
        self.up = _pack(up, width)
        self._up_steps = up_steps
        self._targets = None

    @property
    def targets(self) -> array:
        """Each up-step's target id, mirrored into it: the down-step back."""
        if self._targets is None:
            width = self.width
            targets = array("i", [0]) * (len(self.vertices) * width)
            for x, k, y in self._up_steps(self):
                targets[x * width + k] = y
                targets[y * width + k] = x
            self._targets = targets
        return self._targets

    def degrees(self, within: int = -1) -> list[int]:
        return [(m & within).bit_count() for m in self.moves]

    def regularity(self, expected: int, within: int = -1) -> RegularityCheck:
        """The violator is the vertex of the least bad id."""
        bad = next((x for x, m in enumerate(self.moves) if (m & within).bit_count() != expected), None)
        return RegularityCheck(bad is None, None if bad is None else self.vertices[bad])

    def sinks(self, within: int = -1) -> int:
        """The number of ids with no up-step.  On a kernel of an upset read
        under a Hessenberg mask (h's windows, M, or every pair) it is the
        number of components.  Every root of the mask is supported on the
        mask's simple roots I (in type A, h's blocks), so each edge keeps its
        coset x W_I, and each component is the upset's part of one coset.
        The part holds the coset's top, and from any other vertex x some s in
        I has x s > x, an up-step inside the part: the top is its only sink
        (Bjorner and Brenti, *Combinatorics of Coxeter Groups*, 2.4)."""
        return [u & within for u in self.up].count(0)


def _pack(masks: list[int], width: int):
    # array('Q') keeps 8 bytes a mask; wider masks (type A from n = 12) stay ints.
    return array("Q", masks) if width <= 64 else tuple(masks)


def _type_a_move_graph(w: Perm, allowed: int) -> MoveGraph:
    """[w, w0] in lexicographic order, its edges the swaps u t_k with k in
    ``allowed``.  The interval is an upset, so every ascent u t_k of u
    (u(i) < u(j)) lies in it, and every descent of a vertex inside it is
    the mirror of an ascent of its lower end: one pass over the ascents
    sets the bits at both ends, each target found by its integer code."""
    vertices = bruhat_interval_lex(w)
    index = _code_index(vertices)
    chosen = [row for row in _code_pairs(len(w)) if row[0] & allowed]
    moves = [0] * len(vertices)
    up = []
    for x, (u, code) in enumerate(zip(vertices, index)):
        ascents = 0
        for bit, i, j, d in chosen:
            a, b = u[i], u[j]
            if a < b:
                ascents |= bit
                moves[index[code + (b - a) * d]] |= bit
        moves[x] |= ascents
        up.append(ascents)
    return MoveGraph(vertices, moves, up, len(w) * (len(w) - 1) // 2, _type_a_up_steps)


def _type_a_up_steps(g: MoveGraph):
    """(x, k, y) per up bit k at x, y the id of u t_k, by the mask pass's
    arithmetic on codes made afresh: a kernel keeps no code table."""
    vertices = g.vertices
    index = _code_index(vertices)
    pairs = _code_pairs(len(vertices[0]))
    for x, (u, code, bits) in enumerate(zip(vertices, index, g.up)):
        while bits:
            low = bits & -bits
            k = low.bit_length() - 1
            _, i, j, d = pairs[k]
            yield x, k, index[code + (u[j] - u[i]) * d]
            bits ^= low


def _code_bytes(n: int) -> int:
    """Bytes per entry in the codes of S_n: one up to n = 255."""
    return (n.bit_length() + 7) // 8


def _code_index(vertices) -> dict[int, int]:
    """Code to id, in id order.  A permutation's code is the big-endian
    integer of its entries, each in :func:`_code_bytes` bytes."""
    size = _code_bytes(len(vertices[0]))
    if size == 1:
        raw = map(bytes, vertices)
    else:
        raw = (b"".join(x.to_bytes(size, "big") for x in u) for u in vertices)
    return dict(zip(map(int.from_bytes, raw, repeat("big")), count()))


@lru_cache(maxsize=None)
def _code_pairs(n: int) -> tuple:
    """(1 << k, i - 1, j - 1, d_k) per pair k = (i, j) of S_n, one table per
    rank; a kernel keeps the rows of its mask.  With B = 256 ** _code_bytes(n),
    the code of u t_k is u's plus (u(j) - u(i)) * d_k, where
    d_k = B^(n - i) - B^(n - j)."""
    power = [(256 ** _code_bytes(n)) ** e for e in range(n)]
    return tuple(
        (1 << k, i - 1, j - 1, power[n - i] - power[n - j])
        for k, (i, j) in enumerate(transpositions(n))
    )


def interval_move_graph(h, w: Perm) -> MoveGraph:
    """The kernel of ``interval_graph(h, w)``: h's window swaps only."""
    h = validate_hessenberg(h)
    w = as_permutation(w)
    _check_rank(w, h)
    return _type_a_move_graph(w, window_mask(h))


@lru_cache(maxsize=None)
def bruhat_move_graph(w: Perm) -> MoveGraph:
    """The Bruhat graph of [w, w0], once per w, for the sweeps to read under
    each h's window mask.  Shared by every caller: read it only."""
    return _type_a_move_graph(w, -1)


def is_regular(g: GkmGraph, expected: int) -> RegularityCheck:
    """Whether every vertex has the expected degree; reports the first
    violating vertex in sorted vertex order."""
    degs = g.degrees()
    for u in g.vertices:
        if degs[u] != expected:
            return RegularityCheck(False, u)
    return RegularityCheck(True, None)


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


def to_dot(g: GkmGraph) -> str:
    """DOT text with deterministic vertex and edge order.  Each vertex is
    formatted once, and each vertex's edges (one list of :func:`_edge_rows`)
    become one string, so a big graph's text is not held line by line."""
    labels = [format_permutation(u) for u in g.vertices]
    parts = ["graph {\n"]
    parts += [f'  "{x}";\n' for x in labels]
    for x, rows in zip(labels, _edge_rows(g)):
        head = f'  "{x}" -- "'
        parts.append("".join(f'{head}{labels[y]}" [weight="t{a}-t{b}"];\n' for y, _, _, a, b in rows))
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
    labels = [format_permutation(u) for u in g.vertices]
    edges = [
        ",\n    ".join(_JSON_EDGE % (i, j, x, labels[y], a, b) for y, i, j, a, b in rows)
        for x, rows in zip(labels, _edge_rows(g))
        if rows
    ]
    w = "null" if g.w is None else f'"{format_permutation(g.w)}"'
    return "".join([
        '{\n  "edges": ', *_json_array(edges),
        ',\n  "h": ', *_json_array([str(x) for x in g.h]),
        f',\n  "n": {len(g.h)},\n  "vertices": ', *_json_array([f'"{x}"' for x in labels]),
        f',\n  "w": {w}\n}}\n',
    ])
