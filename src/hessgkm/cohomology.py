"""Compatibility conditions and Betti numbers read off the moment graph.

A class assigns to every vertex a polynomial in Z[t_1, ..., t_n], stored
sparsely as {exponent tuple: coefficient}.  A class is compatible with the
graph when for every edge with value pair (a, b) the difference of the two
endpoint polynomials is divisible by t_a - t_b; divisibility is decided by
substituting t_a := t_b and checking for zero, which is exact over Z.

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

For a regular interval graph the localized class candidate assigns to each
interval vertex the product of the weights of the full-graph edges leaving
the interval there, with signs fixed by propagation along a spanning tree
(root positive).  The underlying product is only determined up to a global
constant per connected component; the root-positive choice is a convention.
"""

from __future__ import annotations

import math
from collections import Counter

from .graphs import GkmEdge, GkmGraph, interval_summary
from .hess import cell_dimension, complexity_dimension, validate_hessenberg, windows
from .perms import Perm, all_permutations, apply_transposition, check_size, format_permutation

Poly = dict[tuple[int, ...], int]


def zero_poly() -> Poly:
    return {}


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


def poly_add(p: Poly, q: Poly) -> Poly:
    out = Counter(p)
    for m, c in q.items():
        out[m] += c
    return {m: c for m, c in out.items() if c}


def poly_neg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, poly_neg(q))


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Counter = Counter()
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            out[tuple(x + y for x, y in zip(m1, m2))] += c1 * c2
    return {m: c for m, c in out.items() if c}


def poly_is_zero(p: Poly) -> bool:
    return not p


def substitute_equal(p: Poly, a: int, b: int) -> Poly:
    """Substitute t_a := t_b (move the a-exponent onto b)."""
    out: Counter = Counter()
    for m, c in p.items():
        mm = list(m)
        mm[b - 1] += mm[a - 1]
        mm[a - 1] = 0
        out[tuple(mm)] += c
    return {m: c for m, c in out.items() if c}


def divisible_by_form(p: Poly, a: int, b: int) -> bool:
    """Whether t_a - t_b divides p (sign-free: (a, b) and (b, a) agree)."""
    return poly_is_zero(substitute_equal(p, a, b))


def serialize_poly(p: Poly) -> list[list]:
    """Deterministic list-of-(exponents, coefficient) form."""
    return [[list(m), p[m]] for m in sorted(p)]


def check_compatibility(g: GkmGraph, cls: dict[Perm, Poly]) -> tuple[bool, list[GkmEdge]]:
    """Test p(u) == p(v) mod (t_a - t_b) on every edge of g.

    Returns (ok, offending edges)."""
    if set(cls) != set(g.vertices):
        raise ValueError("class domain does not match the graph vertex set")
    violations = []
    for e in g.edges:
        diff = poly_sub(cls[e.u], cls[e.v])
        if not divisible_by_form(diff, e.val[0], e.val[1]):
            violations.append(e)
    return (not violations, violations)


def poincare_polynomial(h) -> tuple[int, ...]:
    """Coefficients (b_0, b_2, ..., b_{2 d_h}) from the cell dimensions.

    One pass over the values (see the module docstring).  A state is a
    bitmask of taken positions; its generating polynomial in l_h is one int
    holding the coefficients in fields of ``bits`` bits, and no coefficient
    exceeds n!.

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
    # right[p]: the window partners of position p to its right, as a bitmask
    right = [((1 << hp) - 1) & ~((1 << (p + 1)) - 1) for p, hp in enumerate(h)]
    states = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for taken, poly in states.items():
            for p in range(n):
                if not taken >> p & 1:
                    key = taken | 1 << p
                    shift = (taken & right[p]).bit_count() * bits
                    nxt[key] = nxt.get(key, 0) + (poly << shift)
        states = nxt
    (poly,) = states.values()
    mask = (1 << bits) - 1
    return tuple((poly >> ((d - k) * bits)) & mask for k in range(d + 1))


def localized_class_candidate(h, w: Perm) -> dict[Perm, Poly]:
    """Candidate localization of the interval class on the full graph.

    Defined when the interval graph of (w, h) is regular.  Each interval
    vertex gets +-1 times the product of t_a - t_b over the full-graph
    edges at that vertex whose other endpoint leaves the interval; vertices
    outside the interval get zero.  Signs are propagated along a spanning
    tree of each component, root positive; a cycle that cannot be signed
    consistently raises rather than being patched silently.
    """
    h = validate_hessenberg(h)
    n = len(h)
    check_size(math.factorial(n), f"S_{n}")
    summary = interval_summary(h, w)
    check = summary.regularity(cell_dimension(w, h))
    if not check.ok:
        raise ValueError(
            f"interval graph of w={format_permutation(w)}, h={h} is not regular "
            f"(violation at {format_permutation(check.violator)})"
        )
    interval = summary.up

    products: dict[Perm, Poly] = {}
    for u in interval:
        prod = const_poly(n, 1)
        for i, j in windows(h):
            if apply_transposition(u, i, j) not in interval:
                a, b = u[i - 1], u[j - 1]
                prod = poly_mul(prod, linear_form(n, min(a, b), max(a, b)))
        products[u] = prod

    # Each edge once, in sorted (u, v) order, with its value pair (u(i), u(j)).
    vertices = sorted(interval)
    edges = [(u, v, (u[i - 1], u[j - 1])) for u in vertices for v, (i, j) in sorted(interval[u].items())]

    # Spanning-tree sign propagation, one root per component.
    adj: dict[Perm, list] = {u: [] for u in vertices}
    for u, v, val in edges:
        adj[u].append((v, val))
        adj[v].append((u, val))
    sign: dict[Perm, int] = {}
    for root in vertices:
        if root in sign:
            continue
        sign[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            for v, val in adj[u]:
                if v in sign:
                    continue
                fu = substitute_equal(products[u], val[0], val[1])
                fv = substitute_equal(products[v], val[0], val[1])
                if fu == fv:
                    sign[v] = sign[u]
                elif fu == poly_neg(fv):
                    sign[v] = -sign[u]
                else:
                    raise RuntimeError(
                        "sign propagation failed on edge "
                        f"{format_permutation(u)} ~ {format_permutation(v)}: "
                        "residues are not equal up to sign"
                    )
                stack.append(v)

    cls = {u: products[u] if sign[u] > 0 else poly_neg(products[u]) for u in vertices}
    # Non-tree edges can still be inconsistent; verify every internal edge.
    for u, v, (a, b) in edges:
        if not divisible_by_form(poly_sub(cls[u], cls[v]), a, b):
            raise RuntimeError(
                "sign propagation inconsistent on cycle through edge "
                f"{format_permutation(u)} ~ {format_permutation(v)}"
            )

    full = {u: cls.get(u, zero_poly()) for u in all_permutations(n)}
    return full
