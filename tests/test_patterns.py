"""Decorated pattern containment and the regularity equivalence."""

import random
from itertools import combinations

import pytest

from hessgkm import classify as classify_module, cohomology, graphs, hess, patterns, verify
from hessgkm.graphs import interval_graph
from hessgkm.hess import cell_dimension, enumerate_admissible
from hessgkm.patterns import (
    PATTERN_IDS,
    _window_ok,
    avoids_all_associated,
    pattern_witnesses,
)
from hessgkm.perms import all_permutations, identity, longest_element
from hessgkm.verify import hessenberg_functions, is_regular

H3344 = (3, 3, 4, 4)


def test_witness_frozen_values():
    assert dict(pattern_witnesses((2, 1, 3, 4), H3344))["2134"] == (1, 2, 3, 4)
    assert pattern_witnesses((4, 3, 1, 2), H3344) == []
    assert "2143" not in dict(pattern_witnesses(identity(4), H3344))


def test_avoids_all_frozen():
    ok, witnesses = avoids_all_associated((4, 3, 1, 2), H3344)
    assert ok and witnesses == []
    ok, witnesses = avoids_all_associated((2, 1, 3, 4), H3344)
    assert not ok
    assert ("2134", (1, 2, 3, 4)) in witnesses
    ok, _ = avoids_all_associated(longest_element(5), (5, 5, 5, 5, 5))
    assert ok


def test_avoids_all_requires_admissible():
    with pytest.raises(ValueError):
        avoids_all_associated((3, 2, 1, 4), H3344)


def test_containment_allowed_for_non_admissible():
    # containment itself carries no regularity claim, so any input works
    assert "2143" not in dict(pattern_witnesses((3, 2, 1, 4), H3344))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equivalence_with_regularity_exhaustive(n):
    for h in hessenberg_functions(n):
        for w in enumerate_admissible(h):
            avoids, _ = avoids_all_associated(w, h)
            regular = is_regular(interval_graph(h, w), cell_dimension(w, h)).ok
            assert avoids == regular, (h, w)


def test_every_pattern_has_a_witness_somewhere():
    # non-vacuous coverage: each of the seven tests fires at least once
    # over the full rank <= 5 sweep restricted to admissible inputs
    seen = set()
    for n in range(4, 6):
        for h in hessenberg_functions(n):
            for w in enumerate_admissible(h):
                for pid, _ in pattern_witnesses(w, h):
                    seen.add(pid)
        if seen == set(PATTERN_IDS):
            break
    assert seen == set(PATTERN_IDS), f"missing: {set(PATTERN_IDS) - seen}"


def _per_pattern_scan(w, h):
    """The witnesses as the definition: for each pattern in the fixed
    order, a lexicographic scan of the quadruples for the first one whose
    windows hold and whose values are order-isomorphic to the pattern."""
    out = []
    for pid in PATTERN_IDS:
        for quad in combinations(range(1, len(w) + 1), 4):
            values = [w[p - 1] for p in quad]
            ranks = tuple(sorted(values).index(v) + 1 for v in values)
            if _window_ok(pid, h, *quad) and ranks == tuple(int(c) for c in pid):
                out.append((pid, quad))
                break
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_one_pass_matches_per_pattern_scan(n):
    for h in hessenberg_functions(n):
        for w in all_permutations(n):
            expected = _per_pattern_scan(w, h)
            assert pattern_witnesses(w, h) == expected, (h, w)


@pytest.mark.parametrize("n", [6, 7])
def test_one_pass_matches_per_pattern_scan_sampled(n):
    rng = random.Random(n)
    hs = hessenberg_functions(n)
    for _ in range(500):
        h, w = rng.choice(hs), tuple(rng.sample(range(1, n + 1), n))
        assert pattern_witnesses(w, h) == _per_pattern_scan(w, h), (h, w)


def test_avoids_all_associated_validates_h_once(monkeypatch):
    """One call checks its pair once, through check_pair, and reaches no
    other validator: avoids_all_associated and classify, whose every call
    below the check is an unchecked core.  (A memoized primitive of perms
    checks w on its own cache miss, so its module is left unpatched.)"""
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for module in (hess, patterns, graphs, classify_module, cohomology, verify):
        for name in ("check_pair", "validate_hessenberg", "as_permutation"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    for w in enumerate_admissible(H3344):
        for call in (avoids_all_associated, classify_module.classify):
            calls.clear()
            call(list(w), [3, 3, 4, 4])
            # check_pair's own two validators, once each
            assert calls == ["check_pair", "as_permutation", "validate_hessenberg"], (call, w)
