"""Edge congruences, Betti numbers, and localized class candidates."""

import math

import pytest

from hessgkm.cohomology import (
    check_compatibility,
    congruent,
    const_poly,
    linear_form,
    localized_class_candidate,
    poincare_polynomial,
    poly_mul,
    substitute_equal,
)
from hessgkm.graphs import build_hessenberg_graph, interval_graph, is_regular
from hessgkm.hess import cell_dimension, windows
from hessgkm.perms import all_permutations, apply_transposition, bruhat_interval, longest_element
from hessgkm.verify import hessenberg_functions, oracle_poincare_polynomial

H3344 = (3, 3, 4, 4)


def test_poly_basics():
    f = linear_form(3, 1, 2)
    g = linear_form(3, 2, 3)
    # (t1 - t2)(t2 - t3) = t1 t2 - t1 t3 - t2^2 + t2 t3
    assert poly_mul(f, g) == {(0, 1, 1): 1, (0, 2, 0): -1, (1, 0, 1): -1, (1, 1, 0): 1}
    # a coefficient that cancels is dropped: (t1 - t2)(t1 + t2) = t1^2 - t2^2
    assert poly_mul(f, {(1, 0, 0): 1, (0, 1, 0): 1}) == {(2, 0, 0): 1, (0, 2, 0): -1}
    assert poly_mul(f, const_poly(3, 0)) == {}
    with pytest.raises(ValueError):
        linear_form(3, 1, 4)


def test_divisibility_is_sign_free():
    f = linear_form(4, 2, 4)
    neg = {m: -c for m, c in f.items()}
    for a, b in [(2, 4), (4, 2)]:
        assert congruent(f, {}, a, b)
        assert congruent({}, f, a, b)
        assert congruent(neg, {}, a, b)
        assert congruent(f, neg, a, b)
        assert not congruent(linear_form(4, 1, 2), {}, a, b)
        assert not congruent(const_poly(4, 1), const_poly(4, -1), a, b)


def test_congruence_matches_the_definition():
    """p == q mod (t_a - t_b) exactly when t_a := t_b kills p - q."""
    n = 3
    monomials = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 2, 0)]
    polys = [{}]
    for m1 in monomials:
        for c1 in (1, -1):
            polys.append({m1: c1})
            for m2 in monomials:
                if m2 > m1:
                    polys.append({m1: c1, m2: 1})
    polys += [linear_form(n, a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    agree = disagree = 0
    for p in polys:
        for q in polys:
            diff = {m: p.get(m, 0) - q.get(m, 0) for m in set(p) | set(q)}
            diff = {m: c for m, c in diff.items() if c}
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    if a != b:
                        expected = substitute_equal(diff, a, b) == {}
                        assert congruent(p, q, a, b) == expected, (p, q, a, b)
                        agree += expected
                        disagree += not expected
    assert agree and disagree


def test_substitution():
    f = linear_form(2, 1, 2)
    assert substitute_equal(f, 1, 2) == {}
    g = {(2, 0): 1}
    assert substitute_equal(g, 1, 2) == {(0, 2): 1}


def test_check_compatibility_trivial_cases():
    g = build_hessenberg_graph((2, 2))
    ones = {w: const_poly(2, 1) for w in g.vertices}
    ok, viol = check_compatibility(g, ones)
    assert ok and viol == []
    # p(12)=t1, p(21)=t2: difference is t1-t2, divisible
    cls = {(1, 2): {(1, 0): 1}, (2, 1): {(0, 1): 1}}
    assert check_compatibility(g, cls)[0]
    # p(21)=t1+1 breaks it on the unique edge
    bad = {(1, 2): {(1, 0): 1}, (2, 1): {(1, 0): 1, (0, 0): 1}}
    ok, viol = check_compatibility(g, bad)
    assert not ok and len(viol) == 1


def test_check_compatibility_domain_mismatch():
    g = build_hessenberg_graph((2, 2))
    with pytest.raises(ValueError):
        check_compatibility(g, {(1, 2): {}})


def test_poincare_frozen_values():
    assert poincare_polynomial((2, 3, 3)) == (1, 4, 1)
    assert poincare_polynomial((3, 3, 3)) == (1, 2, 2, 1)
    assert poincare_polynomial((1, 2, 3)) == (6,)
    # raw enumeration oracle: count window inversions over all of S_4
    assert poincare_polynomial((3, 3, 4, 4)) == (1, 6, 10, 6, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_poincare_palindromic_and_total(n):
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    for h in hessenberg_functions(n):
        coeffs = poincare_polynomial(h)
        assert sum(coeffs) == fact
        assert coeffs == tuple(reversed(coeffs))


def test_poincare_matches_enumeration_oracle():
    hs = [h for n in range(1, 7) for h in hessenberg_functions(n)]
    assert len(hs) == 196
    hs += [(7,) * 7, (1, 2, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 7)]
    for h in hs:
        assert poincare_polynomial(h) == oracle_poincare_polynomial(h), h


def _mahonian(n):
    """Coefficients of [n]_q! = prod_{k<=n} (1 + q + ... + q^{k-1})."""
    coeffs = [1]
    for k in range(2, n + 1):
        out = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for s in range(k):
                out[i + s] += c
        coeffs = out
    return tuple(coeffs)


@pytest.mark.parametrize("n", [11, 12])
def test_poincare_large_rank_properties(n):
    fact = math.factorial(n)
    bands = [tuple(min(i + k, n) for i in range(1, n + 1)) for k in range(n)]
    ragged = [(3, 4) + tuple(range(5, n + 1)) + (n, n), (2,) * 2 + (n - 1,) * (n - 3) + (n,)]
    for h in bands + ragged:
        coeffs = poincare_polynomial(h)
        assert sum(coeffs) == fact, h
        assert coeffs == tuple(reversed(coeffs)), h
    assert poincare_polynomial((n,) * n) == _mahonian(n)
    assert poincare_polynomial(tuple(range(1, n + 1))) == (fact,)


def test_localized_class_top_vertex():
    n = 4
    w0 = longest_element(n)
    cls = localized_class_candidate(H3344, w0)
    support = {w for w, p in cls.items() if p}
    assert support == {w0}
    # product over all four window pairs at w0
    top = cls[w0]
    assert all(sum(m) == 4 for m in top)


def test_localized_class_frozen_4312():
    cls = localized_class_candidate(H3344, (4, 3, 1, 2))
    support = {w for w, p in cls.items() if p}
    assert support == {(4, 3, 1, 2), (4, 3, 2, 1)}
    for w in support:
        assert all(sum(m) == 3 for m in cls[w])
    ok, viol = check_compatibility(build_hessenberg_graph(H3344), cls)
    assert ok, viol


def test_localized_class_two_components():
    # regular but disconnected interval graph: two disjoint edges
    cls = localized_class_candidate((2, 2, 3), (1, 3, 2))
    g = build_hessenberg_graph((2, 2, 3))
    ok, viol = check_compatibility(g, cls)
    assert ok, viol


def test_localized_class_rejects_non_regular():
    with pytest.raises(ValueError):
        localized_class_candidate((2, 3, 3), (2, 1, 3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_localized_classes_compatible_everywhere(n):
    for h in hessenberg_functions(n):
        full = build_hessenberg_graph(h)
        for w in all_permutations(n):
            g = interval_graph(h, w)
            if not is_regular(g, cell_dimension(w, h)).ok:
                continue
            cls = localized_class_candidate(h, w)
            ok, viol = check_compatibility(full, cls)
            assert ok, (h, w, viol)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_localized_class_is_unsigned_product_at_every_vertex(n):
    """Every interval vertex of a regular interval graph carries the
    unsigned product of t_a - t_b (a < b) over its windows that leave the
    interval, and every other vertex carries zero."""
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            g = interval_graph(h, w)
            if not is_regular(g, cell_dimension(w, h)).ok:
                continue
            cls = localized_class_candidate(h, w)
            interval = bruhat_interval(w)
            for u in all_permutations(n):
                expected = {}
                if u in interval:
                    expected = const_poly(n, 1)
                    for i, j in windows(h):
                        if apply_transposition(u, i, j) not in interval:
                            a, b = sorted((u[i - 1], u[j - 1]))
                            expected = poly_mul(expected, linear_form(n, a, b))
                assert cls[u] == expected, (h, w, u)
