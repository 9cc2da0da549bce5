"""Compatibility conditions and Betti numbers read off the moment graph.

A class assigns to every vertex a polynomial in Z[t_1, ..., t_n], stored
sparsely as {exponent tuple: coefficient}.  A class is compatible with the
graph when for every edge with value pair (a, b) the difference of the two
endpoint polynomials is divisible by t_a - t_b; this is decided by
substituting t_a := t_b into both and comparing, which is exact over Z.

Betti numbers come from the cell dimensions: the 2k-th coefficient counts
permutations whose cell has dimension k = d_h - l_h(w), and the total is n!.
They are counted without enumerating S_n, by a dynamic program over the
values v = 1..n.  A state is the set of positions that hold the values
below v.  Putting v at position p adds to l_h one inversion for each window
partner j of p to its right (p < j <= h(p)) that already holds a smaller
value; partners to its left hold smaller values and are not inverted.  So
step v ends with C(n, v) states, 2^n over the whole pass whatever h is,
h = (n, ..., n) included, and at most n 2^n transitions.  Each state
carries its generating polynomial in l_h.

For a regular interval graph, GKM localization gives the interval class at
each interval vertex u as the product of the weights of the full-graph edges
that leave the interval at u.  The interval [w, w0] is an upper set, so each
leaving edge goes down in Bruhat order: its value pair (u(i), u(j)) has
u(i) > u(j) at every such edge.  All weights therefore have one orientation,
and writing each as t_a - t_b with a < b changes the class only by the global
sign (-1)^{l_h(w)} (l_h(w) edges leave at every vertex).  The unsigned
products are the class; each interval edge is still checked, its far end
the swap u(i,j) itself, so no edge targets are built.  The compatibility
check streams the rows of :func:`hessgkm.graphs._edge_rows` and builds a
``GkmEdge`` only for an edge that violates it.
"""

from __future__ import annotations

import math
from collections import Counter

from .graphs import GkmEdge, GkmGraph, _edge_rows, _type_a_move_graph
from .hess import _cell_dimension, check_pair, complexity_dimension, validate_hessenberg, window_mask
from .perms import (
    Perm,
    all_permutations,
    apply_transposition,
    check_factorial,
    check_size,
    format_permutation,
    transpositions,
)

Poly = dict[tuple[int, ...], int]


def const_poly(n: int, c: int) -> Poly:
    if c == 0:
        return {}
    return {(0,) * n: c}


def linear_form(n: int, a: int, b: int) -> Poly:
    """t_a - t_b."""
    if not (1 <= a <= n and 1 <= b <= n and a != b):
        raise ValueError(f"bad variable indices ({a}, {b}) for n={n}")
    ea = [0] * n
    ea[a - 1] = 1
    eb = [0] * n
    eb[b - 1] = 1
    return {tuple(ea): 1, tuple(eb): -1}


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Counter = Counter()
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            out[tuple(x + y for x, y in zip(m1, m2))] += c1 * c2
    return {m: c for m, c in out.items() if c}


def substitute_equal(p: Poly, a: int, b: int) -> Poly:
    """Substitute t_a := t_b (move the a-exponent onto b)."""
    out: Counter = Counter()
    for m, c in p.items():
        mm = list(m)
        mm[b - 1] += mm[a - 1]
        mm[a - 1] = 0
        out[tuple(mm)] += c
    return {m: c for m, c in out.items() if c}


def congruent(p: Poly, q: Poly, a: int, b: int) -> bool:
    """Whether p == q mod (t_a - t_b); sign-free: (a, b) and (b, a) agree.

    Substitution is linear and drops zero coefficients, so this is
    t_a - t_b dividing p - q without building the difference.  Equal
    classes, most of a graph's edges, need no substitution."""
    return p == q or substitute_equal(p, a, b) == substitute_equal(q, a, b)


def check_compatibility(g: GkmGraph, cls: dict[Perm, Poly]) -> tuple[bool, list[GkmEdge]]:
    """Test p(u) == p(v) mod (t_a - t_b) on every edge of g.

    Returns (ok, offending edges), the edges in sorted order."""
    if set(cls) != set(g.vertices):
        raise ValueError("class domain does not match the graph vertex set")
    vertices = g.vertices
    violations = []
    for u, rows in zip(vertices, _edge_rows(g)):
        p = cls[u]
        for y, i, j, a, b in rows:
            v = vertices[y]
            if not congruent(p, cls[v], a, b):
                violations.append(GkmEdge(u, v, (i, j), (a, b)))
    return (not violations, violations)


def poincare_polynomial(h) -> tuple[int, ...]:
    """Coefficients (b_0, b_2, ..., b_{2 d_h}) from the cell dimensions.

    One pass over the values (see the module docstring).  A state is a
    bitmask of taken positions; its generating polynomial in l_h is one int
    holding the coefficients in fields of ``bits`` bits, and no coefficient
    exceeds n!.  The states are one list indexed by mask, walked in numeric
    order: a successor sets one more bit, so it is larger, and each state is
    complete when it is read.  A state read is cleared, so only the states
    still to be read hold a polynomial.

    >>> poincare_polynomial((2, 3, 3))
    (1, 4, 1)
    >>> poincare_polynomial((4, 4, 4, 4))
    (1, 3, 5, 6, 5, 3, 1)
    """
    h = validate_hessenberg(h)
    n = len(h)
    check_size(math.comb(n, n // 2), f"Betti states at the widest step C({n}, {n // 2})")
    d = complexity_dimension(h)
    bits = math.factorial(n).bit_length() + 1
    # (1 << p, the window partners of position p to its right as a bitmask)
    steps = [(1 << p, ((1 << hp) - 1) & ~((1 << (p + 1)) - 1)) for p, hp in enumerate(h)]
    states = [0] * (1 << n)
    states[0] = 1
    for taken in range(len(states) - 1):
        poly = states[taken]
        states[taken] = 0
        for bit, right in steps:
            if not taken & bit:
                states[taken | bit] += poly << ((taken & right).bit_count() * bits)
    poly = states[-1]
    mask = (1 << bits) - 1
    return tuple((poly >> ((d - k) * bits)) & mask for k in range(d + 1))


def localized_class_candidate(h, w: Perm) -> dict[Perm, Poly]:
    """Localization of the interval class on the full graph.

    Defined when the interval graph of (w, h) is regular.  Each interval
    vertex u gets the product of t_a - t_b (a < b) over the full-graph edges
    at u whose other endpoint leaves the interval; vertices outside the
    interval get zero.  No signs are needed (see the module docstring).
    Every interval edge is checked, and one whose two products are not
    congruent raises rather than being patched silently.
    """
    w, h = check_pair(w, h)
    n = len(h)
    check_factorial(n, f"S_{n}")
    win = window_mask(h)
    g = _type_a_move_graph(w, win)
    check = g.regularity(_cell_dimension(w, h))
    if not check.ok:
        raise ValueError(
            f"interval graph of w={format_permutation(w)}, h={h} is not regular "
            f"(violation at {format_permutation(check.violator)})"
        )
    pairs = list(enumerate(transpositions(n)))

    cls: dict[Perm, Poly] = {}
    for u, moves in zip(g.vertices, g.moves):
        leaving = win & ~moves
        prod = const_poly(n, 1)
        for k, (i, j) in pairs:
            if leaving >> k & 1:
                a, b = u[i - 1], u[j - 1]
                prod = poly_mul(prod, linear_form(n, min(a, b), max(a, b)))
        cls[u] = prod

    for u, steps in zip(g.vertices, g.up):
        for k, (i, j) in pairs:
            if steps >> k & 1:
                v = apply_transposition(u, i, j)
                if not congruent(cls[u], cls[v], u[i - 1], u[j - 1]):
                    raise RuntimeError(
                        f"localized class not congruent on edge {format_permutation(u)} ~ {format_permutation(v)}"
                    )

    return {u: cls.get(u, {}) for u in all_permutations(n)}
