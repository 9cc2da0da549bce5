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
only the oracles of :mod:`hessgkm.verify` and phi-injective's walk of a
failing pair make; the phi suites read the walk itself.
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
the vertex set by the same arithmetic on codes.  DOT/JSON, the
compatibility check and ``GkmGraph.degrees`` and ``adjacency`` (so
:func:`is_regular` and :func:`is_connected`) stream its rows;
``GkmGraph.edges`` builds ``GkmEdge`` objects from them on each read, for
``to_json_dict`` and the tests.  ``verify._induced``, which swaps the
entries and probes the vertex set, is the oracle of those edges, and the
kernels are checked against it.  The export's text is pieces made once per
graph: each vertex's label, DOT's weight tail per value pair, and JSON's
edge object cut from the writer's text of a stand-in edge, a head per
position pair and a tail per value pair.  So an edge is three
concatenations, and :mod:`hessgkm.jsontext` writes the JSON around them.
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

from .hess import HessFunc, check_pair, validate_hessenberg, window_mask
from .jsontext import Encoded, document, dumps
from .perms import (
    Perm,
    all_permutations,
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
        degs = [0] * len(self.vertices)
        for x, rows in enumerate(_edge_rows(self)):
            degs[x] += len(rows)
            for row in rows:
                degs[row[0]] += 1
        return dict(zip(self.vertices, degs))

    def adjacency(self) -> dict[Perm, list[Perm]]:
        vertices = self.vertices
        adj: list[list[Perm]] = [[] for _ in vertices]
        for x, rows in enumerate(_edge_rows(self)):
            u = vertices[x]
            for row in rows:
                y = row[0]
                adj[x].append(vertices[y])
                adj[y].append(u)
        return dict(zip(vertices, adj))


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
    w, h = check_pair(w, h)
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
    edges from :meth:`up_steps`, the type's own walk of (x, k, y) over the
    up bits, each mirrored into its target."""

    __slots__ = ("vertices", "moves", "up", "width", "_up_steps", "_targets")

    def __init__(self, vertices, moves, up, width, up_steps) -> None:
        self.vertices = vertices
        self.width = width
        self.moves = _pack(moves, width)
        self.up = _pack(up, width)
        self._up_steps = up_steps
        self._targets = None

    def up_steps(self):
        """(x, k, y) per up bit k at x, y its target, by the type's walk;
        it fills no ``targets``."""
        return self._up_steps(self)

    @property
    def targets(self) -> array:
        """Each up-step's target id, mirrored into it: the down-step back."""
        if self._targets is None:
            width = self.width
            targets = array("i", [0]) * (len(self.vertices) * width)
            for x, k, y in self.up_steps():
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
    w, h = check_pair(w, h)
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


def _pair_table(n: int, first, second) -> list[list[str]]:
    """``first(a) + second(b)`` at [a][b], for 1 <= a < b <= n (an edge's
    position and value pairs ascend).  One concatenation an entry, so the
    table costs less than one vertex's pass of :func:`_edge_rows` over the
    pairs, even when n is large and the graph small."""
    seconds = [second(b) for b in range(n + 1)]
    firsts = [first(a) for a in range(n + 1)]
    return [[""] * (a + 1) + [x + y for y in seconds[a + 1 :]] for a, x in enumerate(firsts)]


def to_dot(g: GkmGraph) -> str:
    """DOT text with deterministic vertex and edge order.  Each vertex is
    formatted once, each value pair's weight tail once per graph, and each
    vertex's edges (one list of :func:`_edge_rows`) become one string, so a
    big graph's text is not held line by line."""
    tails = _pair_table(len(g.h), lambda a: f'" [weight="t{a}-t', lambda b: f'{b}"];\n')
    labels = [format_permutation(u) for u in g.vertices]
    parts = ["graph {\n"]
    parts += [f'  "{x}";\n' for x in labels]
    for x, rows in zip(labels, _edge_rows(g)):
        head = f'  "{x}" -- "'
        parts.append("".join([head + labels[y] + tails[a][b] for y, _, _, a, b in rows]))
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


def _json_edge_pieces(n: int):
    """An edge object of to_json's "edges" array in pieces, its text being
    ``heads[i][j] + u + mid + v + tails[a][b]`` for labels u and v.  The
    pieces are cut from the writer's text of a stand-in edge at the array's
    depth, whose only digits are its four zeros and whose only empty
    strings are its two labels."""
    to_i, to_j, middle, to_b, end = dumps(
        {"pos": [0, 0], "u": "", "v": "", "val": [0, 0]}, depth=2
    ).split("0")
    to_u, mid, to_a = middle.split('""')
    heads = _pair_table(n, lambda i: f"{to_i}{i}{to_j}", lambda j: f'{j}{to_u}"')
    tails = _pair_table(n, lambda a: f'"{to_a}{a}{to_b}', lambda b: f"{b}{end}")
    return heads, f'"{mid}"', tails


def to_json(g: GkmGraph) -> str:
    """``json.dumps(to_json_dict(g), sort_keys=True, indent=2)`` and a newline,
    by the writer of :mod:`hessgkm.jsontext`.  The edges reach it as text,
    one list per vertex as in :func:`to_dot`, each edge three concatenations
    of pieces made once per graph; ``verify.oracle_json`` is the encoder
    path."""
    labels = [format_permutation(u) for u in g.vertices]
    heads, mid, tails = _json_edge_pieces(len(g.h))

    def edge_runs():
        for x, rows in zip(labels, _edge_rows(g)):
            u_mid = x + mid
            yield [heads[i][j] + u_mid + labels[y] + tails[a][b] for y, i, j, a, b in rows]

    payload = {
        "edges": Encoded(edge_runs()),
        "h": list(g.h),
        "n": len(g.h),
        "vertices": labels,
        "w": None if g.w is None else format_permutation(g.w),
    }
    return document(payload)
