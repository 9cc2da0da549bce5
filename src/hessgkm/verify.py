"""Independent brute-force oracles and exhaustive desk-scale sweeps.

Every suite iterates all Hessenberg functions of each rank up to n_max
(Catalan-many: 1, 2, 5, 14, 42, 132 for n = 1..6) and the relevant
permutations, and records counterexamples; a clean run returns zero
violations.  A suite is a case generator: given one item of rank n (a
permutation, an h, or an h with the shared list of S_n) it yields
``(h, w, cases, problems)``, a problem being a detail string or a (detail,
extra fields) pair.  ``cases`` is 1, except where phi-injective stands for
all the clean cases of one (h, w) with one record.  :func:`sweep` alone
walks the ranks, checks the deadline, adds up the cases and builds the
violation records.

Oracles
-------
Each shares no decision logic with the library result it checks.

oracle_bruhat(_upset)             chain reachability (BFS over length-
                                  increasing transpositions), for perms
oracle_sorted_prefix_leq          prefixes sorted by insort and compared
                                  entrywise, for the packed-slack bruhat_leq
oracle_admissible_representative  the admissible v with w's window order
                                  (inversion masks equal under the window
                                  mask) that lie in [w, w0], from a table
                                  of h's admissible elements by window
                                  order, for the greedy ascent
oracle_poincare_polynomial        cell dimensions over S_n, for the DP
oracle_json                       ``json.dumps(payload, sort_keys=True,
                                  indent=2)``, for the writer of
                                  :mod:`hessgkm.jsontext` (every --json
                                  verb and the graph export)
_induced                          each window swap made on a list and
                                  probed in the vertex set, for the edge
                                  walk of ``GkmGraph.edges`` and the kernels
oracle_move_graph                 one pass over each vertex's pairs, each
                                  ascent swapped on a list, probed in the
                                  vertex set and its bit set at both ends,
                                  for the lane arithmetic of the type-A
                                  kernel
oracle_weyl_bruhat_leq            the right-descent recursion, for the
                                  general-type upper intervals
oracle_weak_leq                   l(v) = l(u) + l(v u^-1), for weak order
                                  as inversion-mask containment
oracle_canonical_word             greedy left descents, for the word table
oracle_weyl_type_subsets          2^|M| subsets tested with is_weyl_type
                                  (two is_closed_in tests), for the
                                  class traces
oracle_weyl_type_masks            a backtracker over M in height order
                                  that never looks at W, for the class
                                  traces, also where 2^|M| is too many
oracle_smooth_fixed_points        the h-Bruhat sandwich walked from both
                                  ends, for classify's full-degree set

Claims under test
-----------------
Paper claims that no verb applies live here, with the suites and tests that
check them.

edge_set_at                     the edges at one vertex u of [w, w0], each
                                window swap probed for membership: the
                                check on the kernels' moves
regularity_via_w0               Cor 4.3's top-degree test (shortcut)
phi_rule, phi_map               the edge comparison maps of Thm 1.2's proof
                                (phi-injective, phi-surjective)
root_from_positions,            the type A dictionary h -> M, for the tests
hessenberg_space_from_function  that match the general-type engine to S_n
fixed_point_induced_graph       the ``GkmGraph`` on the cell-closure fixed
                                points (Prop 2.5), for the tests
h_bruhat_walk                   the h-Bruhat order as reach along a
                                kernel's up- or down-steps: the sandwich
                                w~ <=_h v <=_h x, deg(x) = dim, that
                                certifies v smooth (oracle_smooth_fixed_points)

Suites
------
bruhat          criterion vs. chain oracle on all pairs, and the library
                upper interval vs. the chain upset for every u
representative  defining properties of w~, and w~ vs. the window-order oracle
fixed-points    fixed set of the cell closure vs. interval, admissibility
connectivity    interval graph connected when admissible or ambient connected:
                one sink (no up-step) in w's Bruhat graph under h's windows
shortcut        top-degree test vs. full regularity scan (admissible w); the
                scan reads w's Bruhat graph under h's windows
phi-injective   edge comparison map total, well-defined, injective; edge
                sets are u's moves in w's Bruhat graph under h's windows,
                the up-steps those that lengthen u.  A case's checks read
                only its key (k, moves of u, moves of v = u t_k), so each
                w's keys and their counts are built once from the kernel's
                up-step walk and shared by every h; an (h, w) checks the
                keys of h's windows, each once, and only one with a failing
                key walks its cases one by one to name each violation.
                phi_rule's verdicts are memoized per (edge mask of u, move)
                within one h
phi-surjective  edge comparison map onto, for one-reflection moves from w;
                edge sets are moves in w's Bruhat graph under h's windows,
                w's own up-steps found once per w
patterns        pattern avoidance vs. regularity (admissible w), the latter
                read off w's Bruhat graph under h's windows
example61       the rank-6 regression case: admissibility, strict window
                length minimality over the interval, graph irregularity

w's Bruhat graph is :func:`hessgkm.graphs.bruhat_move_graph`, built once
per w and shared by every h; its edges are read only by its up-step walk,
for the keys of phi-injective and the cases of a failing pair.  example61
builds its one interval graph with
:func:`hessgkm.graphs.interval_move_graph`.  On every (h, w) with n <= 5
the agreement tests of ``tests/test_graphs.py`` check the latter against
the edges of :func:`_induced` and the former against the latter, and both
kernels' masks against :func:`oracle_move_graph`, bit for bit.

Two suites have known nonempty violation sets: phi-surjective (onto fails
already at rank 4) and example61 (the strict minimality has exactly two
equality exceptions).  Both sets are frozen as regressions in the test
suite; the suites report them rather than masking them.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left, insort
from functools import lru_cache, reduce
from operator import or_

from .graphs import (
    GkmEdge,
    GkmGraph,
    MoveGraph,
    _pack,
    _type_a_up_steps,
    bruhat_move_graph,
    interval_move_graph,
)
from .hess import (
    HessFunc,
    _ascend,
    _cell_dimension,
    _fixed_point_set,
    _h_length,
    _is_admissible,
    check_pair,
    complexity_dimension,
    enumerate_admissible,
    format_hessenberg,
    hessenberg_connected,
    validate_hessenberg,
    window_mask,
    windows,
)
from .patterns import avoids_all_associated
from .perms import (
    Perm,
    _check_same_rank,
    all_permutations,
    apply_transposition,
    bruhat_interval,
    bruhat_interval_lex,
    bruhat_leq,
    compose,
    format_permutation,
    identity,
    inversion_mask,
    length,
    longest_element,
    transpositions,
)
from .roots import (
    Coords,
    Element,
    HessenbergSpace,
    RootSystem,
    _bits,
    mask_order_key,
    submasks,
    validate_hessenberg_space,
)

_CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430)


class SweepResult:
    """One suite's outcome; each result has its own ``violations`` list."""

    def __init__(
        self, suite: str, n_max: int, cases: int, violations: list[dict] | None = None,
        elapsed: float = 0.0, complete: bool = True, note: str = "",
    ):
        self.suite, self.n_max, self.cases = suite, n_max, cases
        self.violations = [] if violations is None else violations
        self.elapsed, self.complete, self.note = elapsed, complete, note

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n_max": self.n_max,
            "cases": self.cases,
            "violations": self.violations,
            "elapsed_seconds": self.elapsed,
            "complete": self.complete,
            "note": self.note,
        }


def hessenberg_functions(n: int) -> list[HessFunc]:
    """All Hessenberg functions on [n], lexicographic; the count is a
    Catalan number, asserted as a generator self-test."""
    if n < 1:
        raise ValueError(f"rank n = {n} is below the lower limit 1")
    out: list[HessFunc] = []

    def grow(prefix: list[int]) -> None:
        i = len(prefix) + 1
        if i > n:
            out.append(tuple(prefix))
            return
        lo = max(i, prefix[-1] if prefix else 1)
        for v in range(lo, n + 1):
            prefix.append(v)
            grow(prefix)
            prefix.pop()

    grow([])
    if n < len(_CATALAN) and len(out) != _CATALAN[n]:
        raise RuntimeError(
            f"generated {len(out)} Hessenberg functions at n={n}, "
            f"expected {_CATALAN[n]}"
        )
    return out


def oracle_bruhat_upset(u: Perm) -> frozenset[Perm]:
    """All v >= u, by BFS over length-increasing transposition moves."""
    seen = {u}
    frontier = [u]
    trans = transpositions(len(u))
    while frontier:
        nxt = []
        for x in frontier:
            lx = length(x)
            for i, j in trans:
                y = apply_transposition(x, i, j)
                if length(y) > lx and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def oracle_bruhat(u: Perm, v: Perm) -> bool:
    """Chain-reachability decision of u <= v, independent of the
    sorted-prefix criterion."""
    _check_same_rank(u, v)
    return v in oracle_bruhat_upset(u)


def oracle_sorted_prefix_leq(u: Perm, v: Perm) -> bool:
    """Sorted-prefix dominance test for u <= v in the strong Bruhat order:
    each prefix kept sorted by ``insort`` and compared entrywise.  The
    oracle of the packed-slack test :func:`hessgkm.perms.bruhat_leq`.

    >>> oracle_sorted_prefix_leq((3, 2, 1, 4), (4, 3, 1, 2))
    True
    >>> oracle_sorted_prefix_leq((4, 3, 1, 2), (3, 4, 2, 1))
    False
    """
    _check_same_rank(u, v)
    if u == v:
        return True
    su: list[int] = []
    sv: list[int] = []
    # The k = n prefix is all of [n] for both, so it never decides.
    for k in range(len(u) - 1):
        insort(su, u[k])
        insort(sv, v[k])
        if any(a > b for a, b in zip(su, sv)):
            return False
    return True


@lru_cache(maxsize=None)
def _admissible_by_window_order(h: HessFunc) -> dict[int, list[Perm]]:
    """The admissible permutations of h grouped by window order (inversion
    mask under the window mask), each class a list so that a second
    member would show."""
    win = window_mask(h)
    table: dict[int, list[Perm]] = {}
    for v in enumerate_admissible(h):
        table.setdefault(inversion_mask(v) & win, []).append(v)
    return table


def oracle_admissible_representative(w: Perm, h: HessFunc) -> list[Perm]:
    """Every admissible v in [w, w0] that agrees with w on window order,
    sorted; by uniqueness the list is exactly [w~].  v and w agree on
    window order iff their inversion masks agree on the window mask, so
    the candidates are w's class of admissible elements, kept if above w."""
    order = inversion_mask(w) & window_mask(h)
    interval = bruhat_interval(w)
    return sorted(v for v in _admissible_by_window_order(h).get(order, ()) if v in interval)


def is_closed_in(rs: RootSystem, subset, ambient) -> bool:
    """Whether a + b lands back in `subset` whenever a, b are in `subset`
    and a + b lies in `ambient`."""
    sub = frozenset(subset)
    amb = frozenset(ambient)
    items = sorted(sub)
    for idx, a in enumerate(items):
        for b in items[idx:]:
            s = tuple(x + y for x, y in zip(a, b))
            if s in amb and s not in sub:
                return False
    return True


def is_weyl_type(hs: HessenbergSpace, subset) -> bool:
    """Whether S and M - S are both closed under addition inside M."""
    sub = frozenset(subset)
    if not sub <= hs.roots:
        raise ValueError("subset is not contained in M")
    comp = hs.roots - sub
    return is_closed_in(hs.rs, sub, hs.roots) and is_closed_in(hs.rs, comp, hs.roots)


def oracle_weyl_type_subsets(hs: HessenbergSpace) -> list[frozenset[Coords]]:
    """Weyl-type subsets of M by the definition: every one of the 2^|M|
    subsets is tested with :func:`is_weyl_type`.  Sorted like
    :func:`hessgkm.roots.weyl_type_subsets`."""
    rs = hs.rs
    found = [
        x for x in submasks(rs.mask_of(hs.roots)) if is_weyl_type(hs, rs.roots_of_mask(x))
    ]
    return [rs.roots_of_mask(x) for x in sorted(found, key=mask_order_key)]


def oracle_weyl_type_masks(hs: HessenbergSpace) -> list[int]:
    """The masks of the Weyl-type subsets of M by backtracking over the
    roots of M in height order, sorted by :func:`hessgkm.roots.mask_order_key`;
    it never looks at W.

    When root c is decided, both parts of every a + b = c in M have been,
    so one loop over those pairs forces c into S if some pair lies in S,
    out of S if some pair lies outside, and kills the branch if both.  The
    leaves are exactly the Weyl-type subsets.
    """
    rs, m_mask = hs.rs, hs.mask
    order = _bits(m_mask)
    pairs: dict[int, list[int]] = {c: [] for c in order}
    for a, b, c in rs._sum_triples:
        if c in pairs and m_mask >> a & 1 and m_mask >> b & 1:
            pairs[c].append(1 << a | 1 << b)
    steps = [(1 << c, pairs[c]) for c in order]
    found: list[int] = []
    stack = [(0, 0, 0)]  # (roots of M decided, mask in S, mask outside S)
    while stack:
        k, inside, outside = stack.pop()
        if k == len(steps):
            found.append(inside)
            continue
        bit, pms = steps[k]
        can_in = can_out = True
        # A pair cannot lie both in S and outside it, so one test each.
        for pm in pms:
            if inside & pm == pm:
                can_out = False
            elif outside & pm == pm:
                can_in = False
        if can_in:
            stack.append((k + 1, inside | bit, outside))
        if can_out:
            stack.append((k + 1, inside, outside | bit))
    return sorted(found, key=mask_order_key)


def root_from_positions(rs: RootSystem, i: int, j: int) -> Coords:
    """Type A root e_i - e_j (i < j) in simple-root coordinates."""
    if rs.type_label != "A":
        raise ValueError("position roots only apply to type A")
    if not (1 <= i < j <= rs.rank + 1):
        raise ValueError(f"need 1 <= i < j <= {rs.rank + 1}")
    return tuple(1 if i <= k < j else 0 for k in range(1, rs.rank + 1))


def hessenberg_space_from_function(rs: RootSystem, h) -> HessenbergSpace:
    """Type A dictionary: e_i - e_j lies in M iff j <= h(i)."""
    h = validate_hessenberg(h)
    if rs.type_label != "A" or len(h) != rs.rank + 1:
        raise ValueError("expected a type A system of rank n-1")
    roots = frozenset(root_from_positions(rs, i, j) for i, j in windows(h))
    return validate_hessenberg_space(rs, roots)


def oracle_weyl_bruhat_leq(rs: RootSystem, u: Element, v: Element) -> bool:
    """Strong Bruhat order by the right-descent recursion: for a right
    descent s of v, u <= v iff min(u, us) <= vs."""
    if u == v:
        return True
    if rs.length(u) >= rs.length(v):
        return False
    # s is a right descent of v iff v sends its simple root to a negative root.
    s = next(s for s, a in zip(rs.generators, rs.simple_roots) if min(rs.act(v, a)) < 0)
    us = rs.mul(u, s)
    return oracle_weyl_bruhat_leq(rs, min(u, us, key=rs.length), rs.mul(v, s))


def oracle_weak_leq(rs: RootSystem, u: Element, v: Element) -> bool:
    """Left weak order by lengths: l(v) = l(u) + l(v u^-1)."""
    u_inv = tuple(sorted(range(len(u)), key=u.__getitem__))
    return rs.length(v) == rs.length(u) + rs.length(rs.mul(v, u_inv))


def oracle_canonical_word(rs: RootSystem, w: Element) -> tuple[int, ...]:
    """The reduced word of w by the greedy loop: take the smallest left
    descent i, then continue from s_i w, until the identity."""
    word = []
    x = w
    while x != rs.identity:
        lx = rs.length(x)
        i = next(i for i, s in enumerate(rs.generators) if rs.length(rs.mul(s, x)) < lx)
        word.append(i)
        x = rs.mul(rs.generators[i], x)
    return tuple(word)


def oracle_poincare_polynomial(h) -> tuple[int, ...]:
    """Coefficients (b_0, b_2, ..., b_{2 d_h}) by the definition: the
    histogram of cell dimensions d_h - l_h(w) over all n! permutations, for
    the dynamic program :func:`hessgkm.cohomology.poincare_polynomial`."""
    h = validate_hessenberg(h)
    d = complexity_dimension(h)
    counts = [0] * (d + 1)
    for w in all_permutations(len(h)):
        counts[d - _h_length(w, h)] += 1
    return tuple(counts)


def oracle_json(payload) -> str:
    """The JSON document of payload by ``json.dumps``, and a newline: what
    every ``--json`` verb and ``graphs.to_json`` (on
    :func:`hessgkm.graphs.to_json_dict`) write."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def oracle_move_graph(w: Perm, allowed: int) -> MoveGraph:
    """The kernel of [w, w0] under the pair mask ``allowed`` by one pass
    over each vertex's pairs: the oracle of the lane arithmetic of
    :func:`hessgkm.graphs._type_a_move_graph`.  The interval is an upset,
    so every ascent u t_k (u(i) < u(j)) lies in it, and every descent of a
    vertex inside it is the mirror of an ascent of its lower end: one pass
    over the ascents sets the bits at both ends, each target found as
    :func:`_induced` finds it, by swapping the entries and probing the
    vertex set."""
    vertices = bruhat_interval_lex(w)
    index = dict(zip(vertices, range(len(vertices))))
    pairs = transpositions(len(w))
    chosen = [(1 << k, i - 1, j - 1) for k, (i, j) in enumerate(pairs) if allowed >> k & 1]
    moves = [0] * len(vertices)
    up = []
    for x, u in enumerate(vertices):
        ascents = 0
        for bit, i, j in chosen:
            a, b = u[i], u[j]
            if a < b:
                ascents |= bit
                v = list(u)
                v[i], v[j] = b, a
                moves[index[tuple(v)]] |= bit
        moves[x] |= ascents
        up.append(ascents)
    return MoveGraph(vertices, moves, up, len(pairs), _type_a_up_steps)


def _induced(h: HessFunc, vertices: tuple[Perm, ...]) -> tuple[GkmEdge, ...]:
    """The edges induced on the ascending ``vertices`` by h's window swaps,
    each swap made on a list and probed for membership, in sorted order:
    the vertices ascending, each one's up-steps by target (for a fixed u the
    target determines the window pair and the value pair).  An edge refers
    to the vertex objects and to a shared value pair.  The oracle of
    ``GkmGraph.edges``, which finds each target by arithmetic on codes."""
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
    return tuple(edges)


def fixed_point_induced_graph(h, w: Perm) -> GkmGraph:
    """Subgraph induced on the fixed points of the cell closure of (w, h)."""
    w, h = check_pair(w, h)
    return GkmGraph(tuple(sorted(_fixed_point_set(w, h))), h, w)


def h_bruhat_walk(g: MoveGraph, starts, toward: int, within: int = -1) -> set[int]:
    """The h-Bruhat order on a kernel: the ids reached from the ids
    ``starts`` along the up-steps (``up``, a part of ``moves``) if
    ``toward`` is 1, or the down-steps (the same edges from their upper
    ends) if it is -1, each read under ``within``.  The steps come from the
    kernel's up-step walk; the search stops once all are seen."""
    steps = [[] for _ in g.vertices]
    for x, k, y in g.up_steps():
        if within >> k & 1:
            if toward > 0:
                steps[x].append(y)
            else:
                steps[y].append(x)
    seen = set(starts)
    stack = list(seen)
    while stack and len(seen) < len(steps):
        for y in steps[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def oracle_smooth_fixed_points(w: Perm, h) -> tuple[Perm, ...]:
    """The fixed points of the cell closure of (w, h) certified by the
    h-Bruhat sandwich w~ <=_h v <=_h x, deg(x) the cell dimension, on w~'s
    interval graph, translated back along u and sorted.  Both ends are
    walked, up from w~ and down from the vertices of full degree, so it
    assumes neither fact that ``classify``'s full-degree set rests on:
    that w~'s up-steps reach all of [w~, w0], and that degrees never drop
    along them."""
    w, h = check_pair(w, h)
    wt, u = _ascend(w, h)
    g = interval_move_graph(h, wt)
    dim = _cell_dimension(w, h)
    full = [x for x, d in enumerate(g.degrees()) if d == dim]
    sandwich = h_bruhat_walk(g, [g.vertices.index(wt)], 1) & h_bruhat_walk(g, full, -1)
    return tuple(sorted(compose(u, g.vertices[x]) for x in sandwich))


class _Deadline:
    def __init__(self, budget_seconds: float | None):
        if budget_seconds is not None and not budget_seconds >= 0:  # NaN too
            raise ValueError(f"budget_seconds = {budget_seconds} is not at least the lower limit 0")
        self.start = time.perf_counter()
        self.limit = budget_seconds

    def exceeded(self) -> bool:
        return self.limit is not None and time.perf_counter() - self.start > self.limit

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def _violation(n: int, h: HessFunc | None, w: Perm | None, check: str, detail: str) -> dict:
    out = {"n": n, "check": check, "detail": detail}
    if h is not None:
        out["h"] = format_hessenberg(h)
    if w is not None:
        out["w"] = format_permutation(w)
    return out


def _with_permutations(n: int):
    """Each Hessenberg function on [n] with one list of S_n shared by all
    of them, so the permutations are built once per rank, not once per h."""
    perms = list(all_permutations(n))
    return ((h, perms) for h in hessenberg_functions(n))


def _bruhat(n: int, u: Perm):
    upset = oracle_bruhat_upset(u)
    # The interval check rides on the first case of u.
    problems = [] if bruhat_interval(u) == upset else ["library interval and chain oracle disagree"]
    for v in all_permutations(n):
        if bruhat_leq(u, v) != (v in upset):
            problems.append(f"criterion and chain oracle disagree on v={format_permutation(v)}")
        yield None, u, 1, problems
        problems = []


def _representative(n: int, item):
    h, perms = item
    e = identity(n)
    win = window_mask(h)
    for w in perms:
        wt, u = _ascend(w, h)
        problems = []
        candidates = oracle_admissible_representative(w, h)
        if candidates != [wt]:
            found = ", ".join(map(format_permutation, candidates))
            problems.append(f"interval scan finds [{found}], not {format_permutation(wt)}")
        if not _is_admissible(wt, h):
            problems.append("representative not admissible")
        if not bruhat_leq(w, wt):
            problems.append("representative not above w")
        if inversion_mask(wt) & win != inversion_mask(w) & win:
            problems.append("window order disagrees")
        if compose(u, wt) != w:
            problems.append("translation does not recover w")
        if _is_admissible(w, h) and (wt != w or u != e):
            problems.append("admissible w not its own representative")
        yield h, w, 1, problems


def _fixed_points(n: int, item):
    h, perms = item
    for w in perms:
        fixed = _fixed_point_set(w, h)
        interval = bruhat_interval(w)
        problems = [] if fixed <= interval else ["fixed set leaves the interval"]
        if (fixed == interval) != _is_admissible(w, h):
            problems.append("fixed set equals interval iff admissible fails")
        yield h, w, 1, problems


def _connectivity(n: int, item):
    h, perms = item
    ambient_connected = hessenberg_connected(h)
    win = window_mask(h)
    for w in perms:
        if ambient_connected or _is_admissible(w, h):
            yield h, w, 1, [] if bruhat_move_graph(w).sinks(win) == 1 else ["interval graph disconnected"]


def edge_set_at(h, w: Perm, u: Perm) -> frozenset[tuple[int, int]]:
    """Window transpositions (i, j) with u(i,j) >= w: the edges at u in the
    interval graph of (w, h), probed at u alone."""
    w, h = check_pair(w, h)
    u, _ = check_pair(u, h, "u")
    return _edges_at(h, w, u)


def _edges_at(h: HessFunc, w: Perm, u: Perm) -> frozenset[tuple[int, int]]:
    interval = bruhat_interval(w)
    if u not in interval:
        raise ValueError(f"{format_permutation(u)} is not in the interval of {format_permutation(w)}")
    return frozenset((i, j) for i, j in windows(h) if apply_transposition(u, i, j) in interval)


def regularity_via_w0(h, w: Perm) -> bool:
    """Degree shortcut at the top vertex, valid for admissible w only:
    the interval graph is regular iff deg(w0) equals the cell dimension."""
    w, h = check_pair(w, h)
    if not _is_admissible(w, h):
        raise ValueError(f"{format_permutation(w)} is not admissible for h={h}; the shortcut does not apply")
    return len(_edges_at(h, w, longest_element(len(w)))) == _cell_dimension(w, h)


def _shortcut(n: int, h: HessFunc):
    win = window_mask(h)
    for w in enumerate_admissible(h):
        full = bruhat_move_graph(w).regularity(_cell_dimension(w, h), win).ok
        yield h, w, 1, [] if regularity_via_w0(h, w) == full else ["top-degree test disagrees with full scan"]


def phi_rule(edge_set, a: int, b: int) -> dict[tuple[int, int], tuple[int, int]]:
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
    w, h = check_pair(w, h)
    u, _ = check_pair(u, h, "u")
    if not _is_admissible(w, h):
        raise ValueError("phi is only defined for admissible w")
    e_u = _edges_at(h, w, u)
    v = apply_transposition(u, a, b)
    if length(v) <= length(u):
        raise ValueError(f"({a},{b}) does not increase length at {format_permutation(u)}")
    if (a, b) not in e_u:
        raise ValueError(f"({a},{b}) is not an edge of the interval graph at {format_permutation(u)}")
    return phi_rule(e_u, a, b)


def _pairs_of(mask: int, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The position pairs of the bits of ``mask``, in bit order."""
    return [pairs[k] for k in _bits(mask)]


@lru_cache(maxsize=None)
def _edge_keys(w: Perm) -> tuple[tuple[int, ...], tuple[int, ...], object]:
    """w's up-steps u -> v = u t_k by key, for every h to read: per pair k,
    the number of up-steps along it, and its distinct keys ``k << 2 width |
    moves[u] << width | moves[v]`` (both masks in w's all-pairs Bruhat
    graph).  Returns (counts, starts, keys): the keys sorted, so those of k
    are ``keys[starts[k]:starts[k + 1]]``.  Taken from the kernel's up-step
    walk."""
    g = bruhat_move_graph(w)
    moves, width = g.moves, g.width
    counts = [0] * width
    found = set()
    for x, k, y in g.up_steps():
        counts[k] += 1
        found.add((k << width | moves[x]) << width | moves[y])
    keys = sorted(found)
    starts = [bisect_left(keys, k << 2 * width) for k in range(width + 1)]
    return tuple(counts), tuple(starts), _pack(keys, 2 * width + width.bit_length())


def _phi_injective(n: int, h: HessFunc):
    # Edge sets are position-pair masks.  A pair outside the layout (only a
    # faulty rule yields one) gets a bit that no edge set has.
    pairs = transpositions(n)
    bit = {ij: 1 << k for k, ij in enumerate(pairs)}
    off_layout = 1 << len(bit)
    win = window_mask(h)
    width = len(pairs)
    wins = _bits(win)
    both = win << width | win
    # phi_rule sees only the edge set and the move, so its verdicts are
    # exact per (edge mask of u, move k): total, injective, image mask, deg(u).
    memo = {}

    def verdict(mask_u: int, k: int) -> tuple[bool, bool, int, int]:
        entry = memo.get((mask_u, k))
        if entry is None:
            e_u = _pairs_of(mask_u, pairs)
            images = phi_rule(e_u, *pairs[k])
            vals = set(images.values())
            image = reduce(or_, (bit.get(ij, off_layout) for ij in vals), 0)
            entry = memo[mask_u, k] = (len(images) == len(e_u), len(vals) == len(images), image, len(e_u))
        return entry

    # A case is an up-step u -> v = u t_k with k a window.  Its checks read
    # only k and the edges at u and at v, so a key under h's windows stands
    # for all its up-steps; passed[k] holds the keys so read that pass.
    passed = [set() for _ in pairs]
    for w in enumerate_admissible(h):
        counts, starts, keys = _edge_keys(w)
        clean = True
        for k in wins:
            for key in {key & both for key in keys[starts[k]:starts[k + 1]]} - passed[k]:
                mask_v = key & win
                total, injective, image, deg = verdict(key >> width, k)
                if not (total and injective and not image & ~mask_v and deg <= mask_v.bit_count()):
                    clean = False
                    break
                passed[k].add(key)
            if not clean:
                break
        if clean:
            yield h, w, sum(counts[k] for k in wins), []
            continue
        # A key fails: walk w's cases one by one to name each violation.
        # The up-steps u -> v = u t_k are the edges at u that lengthen u,
        # walked by u and then by k; those of h's windows are the cases.
        g = bruhat_move_graph(w)
        moves = g.moves
        for x, k, y in g.up_steps():
            if not win >> k & 1:
                continue
            a, b = pairs[k]
            total, injective, image, deg = verdict(moves[x] & win, k)
            mask_v = moves[y] & win
            problems = [] if total else ["map not total"]
            if not injective:
                problems.append(f"not injective at u={format_permutation(g.vertices[x])} (a,b)=({a},{b})")
            if image & ~mask_v:
                problems.append(f"image leaves the edge set at v={format_permutation(g.vertices[y])}")
            if deg > mask_v.bit_count():
                problems.append("degree decreases along an h-order edge")
            yield h, w, 1, problems


@lru_cache(maxsize=None)
def _own_ends(w: Perm) -> tuple[int, ...]:
    """The id of w t_k per move k of w, in bit order.  w is the least vertex
    (id 0) of its Bruhat graph, so each move is an up-step; w t_k is found by
    bisection in the lexicographic vertices."""
    g = bruhat_move_graph(w)
    pairs = transpositions(len(w))
    return tuple(bisect_left(g.vertices, apply_transposition(w, *pairs[k])) for k in _bits(g.moves[0]))


def _phi_surjective(n: int, h: HessFunc):
    pairs = transpositions(n)
    win = window_mask(h)
    for w in enumerate_admissible(h):
        g = bruhat_move_graph(w)
        e_w = _pairs_of(g.moves[0] & win, pairs)
        for k, y in zip(_bits(g.moves[0]), _own_ends(w)):
            e_v = set(_pairs_of(g.moves[y] & win, pairs))
            images = set(phi_rule(e_w, *pairs[k]).values())
            problems = []
            if not e_v <= images:
                v_text = format_permutation(g.vertices[y])
                problems.append((f"misses edges at v={v_text}: {sorted(e_v - images)}", {"v": v_text}))
            yield h, w, 1, problems


def _patterns(n: int, h: HessFunc):
    win = window_mask(h)
    for w in enumerate_admissible(h):
        avoids, witnesses = avoids_all_associated(w, h)
        regular = bruhat_move_graph(w).regularity(_cell_dimension(w, h), win).ok
        problems = []
        if avoids != regular:
            problems.append(f"avoidance={avoids} but regular={regular} (witnesses: {witnesses})")
        yield h, w, 1, problems


def _example61(n: int, _):
    h = validate_hessenberg((3, 4, 5, 6, 6, 6))
    w = (2, 3, 6, 4, 5, 1)
    if not _is_admissible(w, h):
        yield h, w, 1, ["w should be admissible"]
        return
    lw = _h_length(w, h)
    problems = [
        f"window length not minimal: l_h({format_permutation(u)}) <= {lw}"
        for u in bruhat_interval(w)
        if u != w and _h_length(u, h) <= lw
    ]
    if interval_move_graph(h, w).regularity(_cell_dimension(w, h)).ok:
        problems.append("interval graph unexpectedly regular")
    yield h, w, 1, problems


# Per suite: its items of rank n and its case generator.  example61 has no
# items: its one rank-6 case runs whatever n_max and the budget.
_SUITES = {
    "bruhat": (all_permutations, _bruhat),
    "representative": (_with_permutations, _representative),
    "fixed-points": (_with_permutations, _fixed_points),
    "connectivity": (_with_permutations, _connectivity),
    "shortcut": (hessenberg_functions, _shortcut),
    "phi-injective": (hessenberg_functions, _phi_injective),
    "phi-surjective": (hessenberg_functions, _phi_surjective),
    "patterns": (hessenberg_functions, _patterns),
    "example61": (None, _example61),
}

SUITE_NAMES = tuple(_SUITES)


def sweep(suite_id: str, n_max: int, budget_seconds: float | None = None) -> SweepResult:
    """Run one suite over the ranks 1..n_max.  The deadline is checked
    before each item; once it has passed, the result is marked incomplete."""
    if suite_id not in _SUITES:
        raise ValueError(f"unknown suite {suite_id!r}; known: {', '.join(SUITE_NAMES)}")
    if n_max < 1:
        raise ValueError(f"n_max = {n_max} is below the lower limit 1")
    if n_max > 6:
        raise ValueError("sweeps are capped at n_max = 6")
    deadline = _Deadline(budget_seconds)
    items, cases = _SUITES[suite_id]
    if items is None:  # the fixed example61 case: no budget truncates it
        deadline.limit, ranked = None, [(6, None)]
    else:
        ranked = ((n, x) for n in range(1, n_max + 1) for x in items(n))
    result = SweepResult(suite=suite_id, n_max=n_max, cases=0)
    for n, x in ranked:
        if deadline.exceeded():
            result.complete = False
            result.note = f"stopped inside n={n}"
            break
        for h, w, count, problems in cases(n, x):
            result.cases += count
            for p in problems:
                detail, extra = (p, {}) if isinstance(p, str) else p
                result.violations.append({**_violation(n, h, w, suite_id, detail), **extra})
    result.elapsed = deadline.elapsed()
    return result


def sweep_all(n_max: int, budget_seconds: float | None = None) -> list[SweepResult]:
    deadline = _Deadline(budget_seconds)
    out = []
    for suite_id in SUITE_NAMES:
        remaining = None
        if budget_seconds is not None:
            remaining = max(0.0, budget_seconds - deadline.elapsed())
        out.append(sweep(suite_id, n_max, remaining))
    return out
