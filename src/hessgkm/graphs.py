"""Moment graphs of type A Hessenberg spaces and their interval subgraphs.

The full graph on a Hessenberg function h has vertex set S_n and one edge
{u, u(i,j)} for every window pair (i, j) of h.  Each edge carries a datum
(pos, val): the position pair (i, j) and the value pair (a, b) with a < b
and {a, b} = {u(i), u(j)} = {v(i), v(j)}; the torus weight of the edge is
+-(t_a - t_b), reconstructed from val on demand.

Each edge question has one source.  A whole interval's, in either type, is
the kernel :class:`MoveGraph`: per vertex a mask of its moves and one of its
up-steps, which answer degrees, regularity and connectivity, and the type's
walk of its up-steps, the one read of the edges themselves.
Type A moves by the swaps u(i,j).  Its masks come from whole-interval
integer arithmetic, each vertex of [w, w0] a lane in a few big ints, so a
step is a few big-int operations per pair or per position rather than a
loop over the vertices (:func:`_type_a_move_graph`); the vertices run in
blocks that keep those ints to a fixed budget.  The per-vertex pass
it replaced is the oracle ``verify.oracle_move_graph``.  Its kernels are
:func:`interval_move_graph` by h's windows (``classify``, the localized
classes, example61) and :func:`bruhat_move_graph` by every pair, once per
w, for the sweeps to read under each h's window mask.
:mod:`hessgkm.roots` reads its masks off inversion sets and walks its
reflection table.
Export reads a ``GkmGraph``, the full graph or ``interval_graph(h, w)``
on the Bruhat interval [w, w0], which keeps only its vertices, h and w.
One walk, :func:`_edge_rows`, lists each vertex's window ascents inside
the vertex set.  It and the up-step walk find each target by arithmetic
on integer codes of the vertices, their weights and pair rows read off the
one per-rank schedule of the kernel, :func:`_lane_layout`.  DOT/JSON, the
compatibility check and ``GkmGraph.degrees`` and ``adjacency`` (so
:func:`is_regular` and :func:`is_connected`) stream its rows;
``GkmGraph.edges`` builds ``GkmEdge`` objects from them on each read, for
``to_json_dict`` and the tests.  ``verify._induced``, which swaps the
entries and probes the vertex set, is the oracle of those edges, and the
kernels are checked against it and against the pass oracle.  The export's
text is pieces made once per graph: each vertex's label, DOT's weight tail
per value pair, and JSON's edge object cut from the writer's text of a
stand-in edge, a head per position pair and a tail per value pair.  So an
edge is three concatenations, and :mod:`hessgkm.jsontext` writes the JSON
around them.
The claims that only the sweeps and the tests check (the one-vertex probe
``edge_set_at``, the top-degree shortcut, the phi maps, the h-Bruhat walk
and the graph on the cell-closure fixed points) live in :mod:`hessgkm.verify`.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import chain, count, repeat
from typing import NamedTuple

from .hess import HessFunc, check_pair, validate_hessenberg, window_mask
from .jsontext import Encoded, document, dumps
from .perms import (
    Perm,
    all_permutations,
    bruhat_interval_lex,
    check_factorial,
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
    Each target's code is u's plus (u(j) - u(i)) d, d = P[i - 1] - P[j - 1]
    from the power row of :func:`_lane_layout`, and is looked up with
    ``get``: the vertex set need not be an upset (the cell-closure fixed
    points are not)."""
    vertices = g.vertices
    layout = _lane_layout(len(g.h))
    power = layout[4]
    index = _code_index(vertices, layout)
    get = index.get
    win = window_mask(g.h).to_bytes(len(layout[5]) // 8 + 1, "little")
    rows = [(i, j, power[i] - power[j], i + 1, j + 1) for _, i, j, r, _, c, _ in layout[5] if win[c] >> r & 1]
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
    check_factorial(n, f"S_{n}")
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
    ``up[x]`` those that lengthen x; lists are packed by :func:`_pack`, and
    the type A kernel's arrays are taken as given.  A read sees only the bits of
    ``within``.  The masks answer degrees, regularity and sinks; the edges
    themselves are walked by :meth:`up_steps`, each from its lower end."""

    __slots__ = ("vertices", "moves", "up", "width", "_up_steps")

    def __init__(self, vertices, moves, up, width, up_steps) -> None:
        self.vertices = vertices
        self.width = width
        self.moves = _pack(moves, width) if isinstance(moves, list) else moves
        self.up = _pack(up, width) if isinstance(up, list) else up
        self._up_steps = up_steps

    def up_steps(self):
        """(x, k, y) per up bit k at x, y its target, by the type's walk:
        x ascending, and k ascending at each x."""
        return self._up_steps(self)

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


def _mask_bytes(width: int) -> int:
    """Bytes a mask of ``width`` bits takes: 8 up to 64 bits, the masks kept
    in ``array('Q')``; wider masks (type A from n = 12) are ints."""
    return max(8, (width + 7) // 8)


def _pack(masks, width: int):
    """``masks`` as a kernel keeps them: ``array('Q')``, or a tuple of ints."""
    return array("Q", masks) if _mask_bytes(width) == 8 else tuple(masks)


def _masks(buf, stride: int):
    """Per vertex the little-endian mask in its ``stride`` bytes of ``buf``
    (:func:`_mask_bytes`): an ``array('Q')``, or for wider masks a list of
    ints, which :class:`MoveGraph` packs (:func:`_pack`)."""
    if stride > 8:
        return [int.from_bytes(buf[x : x + stride], "little") for x in range(0, len(buf), stride)]
    masks = array("Q")
    masks.frombytes(buf)
    if sys.byteorder == "big":
        masks.byteswap()
    return masks


# The big ints of one block of lanes take about this many bytes at once.
_BLOCK_BYTES = 1 << 21


@lru_cache(maxsize=None)
def _lane_layout(n: int) -> tuple:
    """The lane schedule of rank n, one per rank: (bits, group, below,
    at_least, power, pairs, stride, block).

    A lane has ``bits`` bits, and every sum or difference the kernel forms
    in one lies in (-2^top, 2^top), top = bits - 1, so a lane biased by
    2^top borrows from no other and its top bit is the sign: one byte a
    lane up to n = 127, two up to the pair limit n = 362.  A column has one
    lane per vertex; a group has n lanes per vertex, lane m standing for
    position or threshold m + 1.  Over one group, ``group`` has a one in
    each lane, ``below[v]`` in lanes 0..v - 1 (the thresholds t <= v), and
    ``at_least`` 2^top - t in lane t - 1, whose top bit an entry e added to
    it sets iff e >= t.  A permutation's code is its entries in big-endian
    lanes (:func:`_code_index`), so with B = 2^bits, ``power[p]`` =
    B^(n - 1 - p) is the weight of position p + 1, and the code of u t_k,
    k = (i, j), is u's plus (u(j) - u(i)) (power[i - 1] - power[j - 1]).
    ``pairs`` has the row (k, i - 1, j - 1, r, top - r, c, shift) per pair
    k = (i, j): bit r = k mod 8 of mask byte c = k // 8, kept in the moves
    at bit 8 (c mod span) + r of a group of span bytes, ``shift`` bits
    below the group's top bit.  A mask takes ``stride`` bytes
    (:func:`_mask_bytes`).  A kernel runs over blocks of ``block``
    vertices: a vertex's columns, at most 2n groups and its chunks of both
    masks take some bytes each, and a block's take about
    :data:`_BLOCK_BYTES`."""
    size = 1 if n < 128 else 2
    bits = 8 * size
    top = bits - 1
    below = [0]
    for _ in range(n):
        below.append(below[-1] << bits | 1)
    at_least = sum(((1 << top) - t) << bits * (t - 1) for t in range(1, n + 1))
    power = tuple(1 << bits * (n - 1 - p) for p in range(n))
    pairs = tuple(
        (k, i - 1, j - 1, k & 7, top - (k & 7), k >> 3, bits * n - 1 - 8 * ((k >> 3) % (size * n)) - (k & 7))
        for k, (i, j) in enumerate(transpositions(n))
    )
    span, chunks, stride = size * n, (len(pairs) + 7) // 8, _mask_bytes(len(pairs))
    vertex = span * (2 * n + 16) + chunks * (size + 1) + 2 * stride
    return bits, below[n], tuple(below), at_least, power, pairs, stride, max(1, _BLOCK_BYTES // vertex)


def _type_a_move_graph(w: Perm, allowed: int) -> MoveGraph:
    """[w, w0] in lexicographic order, its edges the swaps y t_k, k = (i, j)
    in ``allowed``, by whole-interval integer arithmetic on lanes
    (:func:`_lane_layout`): each step below is a few big-int operations
    over all vertices of a block at once, per pair or per position.

    * Ascents y(i) < y(j), from the columns: one sign bit per vertex.  The
      interval is an upset, so each ascent y t_k lies in it.  A pair with
      no ascent in the interval has no move either (a descent inside it
      would mirror an ascent of its lower end), and a pair of ascents alone
      needs no more.
    * Descents, by Ehresmann's tableau test (Bjorner and Brenti,
      *Combinatorics of Coxeter Groups*, 2.1.5), on groups: with
      slack_y(p, t) = #{q <= p : y(q) >= t} - #{q <= p : w(q) >= t}, which
      is >= 0, the swap y t_k of y(i) > y(j) stays in [w, w0] iff
      slack_y(p, t) >= 1 for all i <= p < j and y(j) < t <= y(i).  Lane
      t - 1 of ``ge[q]`` marks y(q + 1) >= t, and of ``zero[p]`` a zero
      slack_y(p + 1, t).  The swap fails where a lane has y(i) >= t > y(j)
      and a zero slack at some p in [i, j); such a group carries into its
      top bit, and that bit is moved to the pair's bit.
    * Masks: pair k's bit is bit k mod 8 of mask byte k // 8, so eight
      pairs sum to one chunk (the moves' chunks side by side in a group),
      and the chunks' bytes are interleaved into 8-byte masks loaded
      straight into ``array('Q')`` (width <= 64), or into ints from wider
      slices (n >= 12).
    * Blocks: the vertices run in blocks of the layout's size, so the big
      ints stay within about :data:`_BLOCK_BYTES` whatever the rank and the
      interval.  A first pass takes every block's ascents, and so the pairs
      with an ascent anywhere; a second takes each block's descents.

    The per-vertex pass it replaced is :func:`hessgkm.verify.oracle_move_graph`."""
    vertices = bruhat_interval_lex(w)
    layout = _lane_layout(len(w))
    pairs, stride, block = layout[5:]
    chosen = [row for row in pairs if allowed >> row[0] & 1]
    reached = bytearray((len(pairs) + 7) // 8)
    up, moves, ascents = _masks(b"", stride), _masks(b"", stride), []
    for x in range(0, len(vertices), block):
        part = vertices[x : x + block]
        raw, buf, partial = _block_ascents(part, layout, chosen, reached)
        ascents.append((len(part), raw, partial))
        up += _masks(buf, stride)
    for count, raw, partial in ascents:
        moves += _masks(_block_moves(count, raw, w, layout, reached, partial), stride)
    return MoveGraph(vertices, moves, up, len(pairs), _type_a_up_steps)


def _block_ascents(part, layout, chosen, reached: bytearray):
    """One block's entry bytes, its up masks' bytes, and the rows of
    ``chosen`` with a descent in it; a pair's bit is set in ``reached``
    when it has an ascent here."""
    bits, stride = layout[0], layout[6]
    n, count = len(part[0]), len(part)
    lane, top = bits // 8, bits - 1
    raw, cols = _entry_bytes(part, n, lane)
    # Columns: one lane per vertex.
    cols = [int.from_bytes(c, "little") for c in cols]
    ones = int.from_bytes((1).to_bytes(lane, "little") * count, "little")
    bias = ones << top
    lows = [c - bias for c in cols]
    marks = [ones << r for r in range(8)]
    up = [0] * len(reached)
    partial = []
    for row in chosen:
        _, i, j, r, sign, c, _ = row
        asc = (cols[j] - lows[i]) >> sign & marks[r]
        if asc:
            up[c] |= asc
            reached[c] |= 1 << r
        if asc != marks[r]:
            partial.append(row)
    buf = bytearray(stride * count)
    for c, x in enumerate(up):
        if x:
            buf[c::stride] = x.to_bytes(count * lane, "little")[::lane]
    return raw, buf, partial


def _block_moves(count: int, raw: bytes, w: Perm, layout, reached: bytearray, partial) -> bytearray:
    """One block's moves masks' bytes: each pair of ``reached`` (an ascent
    somewhere in the interval) at every vertex, less the descents of
    ``partial`` that leave the interval."""
    bits, group, below, at_least, _, _, stride, _ = layout
    n = len(w)
    top, span = bits - 1, bits // 8 * n
    # Groups: n lanes per vertex.  The moves start as every reached pair;
    # the descents that fail are taken off.
    first = int.from_bytes((1).to_bytes(span, "little") * count, "little")
    moves = [first * int.from_bytes(reached[a : a + span], "little") for a in range(0, len(reached), span)]
    open_pairs = [row for row in partial if reached[row[5]] >> row[3] & 1]
    if open_pairs:
        full, tops = first * group, first << bits * n - 1
        at_least, carry = first * at_least, tops - first
        flat = int.from_bytes(raw, "little")
        lane0 = first * ((1 << bits) - 1)
        half = group << top
        # Position by position, the counts summed as they go; ge and zero
        # are kept from the first open row on, up to the last j.
        start, last = open_pairs[0][1], max([row[2] for row in open_pairs])
        ge, zero = [0] * (last + 1), [0] * (last + 1)
        tally = mine = 0
        for p in range(last + 1):
            g = ((flat >> bits * p & lane0) * group + at_least) >> top & full
            tally += g
            mine += below[w[p]]
            if p >= start:
                ge[p] = g
                zero[p] = (first * (mine + half) - tally) >> top & full
        row = -1
        for _, i, j, r, _, c, shift in open_pairs:
            if i != row:
                row, at, tight = i, i, 0
            while at < j:
                tight |= zero[at]
                at += 1
            inside = ge[i] & tight
            fails = inside ^ (inside & ge[j])
            if fails:
                moves[c // span] -= (fails + carry & tops) >> shift
    buf = bytearray(stride * count)
    for a, x in enumerate(moves):
        if x:
            data = x.to_bytes(count * span, "little")
            for c in range(a * span, min(len(reached), (a + 1) * span)):
                if reached[c]:
                    buf[c::stride] = data[c % span :: span]
    return buf


def _entry_bytes(vertices, n: int, lane: int) -> tuple[bytes, list[bytes]]:
    """The entries of ``vertices`` in little-endian lanes of ``lane`` bytes,
    vertex by vertex, and each position's column of them."""
    entries = chain.from_iterable(vertices)
    if lane == 1:
        raw = bytes(entries)
        return raw, [raw[q::n] for q in range(n)]
    raw = b"".join(x.to_bytes(lane, "little") for x in entries)
    planes = [raw[b::lane] for b in range(lane)]
    cols = []
    for q in range(n):
        col = bytearray(len(raw) // n)
        for b, plane in enumerate(planes):
            col[b::lane] = plane[q::n]
        cols.append(bytes(col))
    return raw, cols


def _type_a_up_steps(g: MoveGraph):
    """(x, k, y) per up bit k at x, y the id of u t_k, by the arithmetic of
    :func:`_edge_rows` on codes made afresh: a kernel keeps no code table."""
    vertices = g.vertices
    layout = _lane_layout(len(vertices[0]))
    power = layout[4]
    index = _code_index(vertices, layout)
    rows = [(i, j, power[i] - power[j]) for _, i, j, *_ in layout[5]]
    for x, (u, code, bits) in enumerate(zip(vertices, index, g.up)):
        while bits:
            low = bits & -bits
            k = low.bit_length() - 1
            i, j, d = rows[k]
            yield x, k, index[code + (u[j] - u[i]) * d]
            bits ^= low


def _code_index(vertices, layout) -> dict[int, int]:
    """Code to id, in id order.  A permutation's code is the big-endian
    integer of its entries, each in one lane of ``layout``
    (:func:`_lane_layout`)."""
    size = layout[0] // 8
    if size == 1:
        raw = map(bytes, vertices)
    else:
        raw = (b"".join(x.to_bytes(size, "big") for x in u) for u in vertices)
    return dict(zip(map(int.from_bytes, raw, repeat("big")), count()))


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
