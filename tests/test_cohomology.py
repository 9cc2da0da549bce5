"""Edge congruences, Betti numbers, and localized class candidates."""

import math

import pytest

from hessgkm.cohomology import (
    check_compatibility,
    const_poly,
    divisible_by_form,
    linear_form,
    localized_class_candidate,
    poincare_polynomial,
    poly_is_zero,
    poly_mul,
    poly_neg,
    poly_sub,
    serialize_poly,
    substitute_equal,
    zero_poly,
)
from hessgkm.graphs import build_hessenberg_graph, interval_graph, is_connected, is_regular, reach
from hessgkm.hess import cell_dimension, windows
from hessgkm.perms import all_permutations, apply_transposition, bruhat_interval, longest_element
from hessgkm.verify import hessenberg_functions, oracle_poincare_polynomial

H3344 = (3, 3, 4, 4)


def test_poly_basics():
    f = linear_form(3, 1, 2)
    g = linear_form(3, 2, 3)
    assert poly_is_zero(poly_sub(f, f))
    # (t1 - t2)(t2 - t3) = t1 t2 - t1 t3 - t2^2 + t2 t3
    prod = poly_mul(f, g)
    assert serialize_poly(prod) == [
        [[0, 1, 1], 1],
        [[0, 2, 0], -1],
        [[1, 0, 1], -1],
        [[1, 1, 0], 1],
    ]
    with pytest.raises(ValueError):
        linear_form(3, 1, 4)


def test_divisibility_is_sign_free():
    f = linear_form(4, 2, 4)
    assert divisible_by_form(f, 2, 4)
    assert divisible_by_form(f, 4, 2)
    assert divisible_by_form(poly_neg(f), 2, 4)
    assert not divisible_by_form(linear_form(4, 1, 2), 2, 4)


def test_substitution():
    f = linear_form(2, 1, 2)
    assert poly_is_zero(substitute_equal(f, 1, 2))
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
        check_compatibility(g, {(1, 2): zero_poly()})


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
def test_localized_class_is_positive_at_least_vertex_of_each_component(n):
    """The sign convention: the least vertex of each component of a regular
    interval graph carries the unsigned product of t_a - t_b (a < b) over
    its windows that leave the interval."""
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            g = interval_graph(h, w)
            if not is_regular(g, cell_dimension(w, h)).ok:
                continue
            cls = localized_class_candidate(h, w)
            adj = g.adjacency()
            seen = set()
            for root in g.vertices:
                if root in seen:
                    continue
                seen |= reach([root], adj)
                expected = const_poly(n, 1)
                for i, j in windows(h):
                    if apply_transposition(root, i, j) not in bruhat_interval(w):
                        a, b = sorted((root[i - 1], root[j - 1]))
                        expected = poly_mul(expected, linear_form(n, a, b))
                assert cls[root] == expected, (h, w, root)
