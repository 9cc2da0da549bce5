"""Independent brute-force oracles and exhaustive desk-scale sweeps.

Every suite iterates all Hessenberg functions of each rank up to n_max
(Catalan-many: 1, 2, 5, 14, 42, 132 for n = 1..6) and the relevant
permutations, and records counterexamples; a clean run returns zero
violations.  The Bruhat oracle here decides the order by chain
reachability (BFS over length-increasing transposition moves) and shares
no decision logic with the sorted-prefix criterion it certifies.
:func:`oracle_weyl_type_subsets` likewise tests every subset of a
Hessenberg space M against the definition of Weyl type, for the
backtracking enumerator in :mod:`hessgkm.roots`, and
:func:`oracle_poincare_polynomial` counts cell dimensions over all of S_n,
for the dynamic program in :mod:`hessgkm.cohomology`.

Suites
------
bruhat          criterion vs. chain oracle on all pairs, and the library
                upper interval vs. the chain upset for every u
representative  existence/uniqueness and defining properties of w~
fixed-points    fixed set of the cell closure vs. interval, admissibility
connectivity    interval graph connected when admissible or ambient connected
shortcut        top-degree test vs. full regularity scan (admissible w)
phi-injective   edge comparison map total, well-defined, injective
phi-surjective  edge comparison map onto, for one-reflection moves from w
patterns        pattern avoidance vs. regularity (admissible w)
example61       the rank-6 regression case: admissibility, strict window
                length minimality over the interval, graph irregularity

Two suites have known nonempty violation sets: phi-surjective (onto fails
already at rank 4) and example61 (the strict minimality has exactly two
equality exceptions).  Both sets are frozen as regressions in the test
suite; the suites report them rather than masking them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .graphs import interval_summary, phi_rule, regularity_via_w0, window_edges
from .hess import (
    HessFunc,
    admissible_representative,
    cell_dimension,
    complexity_dimension,
    enumerate_admissible,
    format_hessenberg,
    h_length,
    hess_schubert_fixed_points,
    hessenberg_connected,
    is_admissible,
    validate_hessenberg,
    windows,
)
from .patterns import avoids_all_associated
from .perms import (
    Perm,
    all_permutations,
    apply_transposition,
    bruhat_interval,
    bruhat_leq,
    compose,
    format_permutation,
    identity,
    length,
    transpositions,
)
from .roots import Coords, HessenbergSpace, is_weyl_type, mask_order_key, submasks

_CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430)


@dataclass
class SweepResult:
    suite: str
    n_max: int
    cases: int
    violations: list[dict] = field(default_factory=list)
    elapsed: float = 0.0
    complete: bool = True
    note: str = ""

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
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    return v in oracle_bruhat_upset(u)


def oracle_weyl_type_subsets(hs: HessenbergSpace) -> list[frozenset[Coords]]:
    """Weyl-type subsets of M by the definition: every one of the 2^|M|
    subsets is tested with :func:`hessgkm.roots.is_weyl_type`.  Sorted like
    :func:`hessgkm.roots.weyl_type_subsets`."""
    rs = hs.rs
    found = [
        x for x in submasks(rs.mask_of(hs.roots)) if is_weyl_type(hs, rs.roots_of_mask(x))
    ]
    return [rs.roots_of_mask(x) for x in sorted(found, key=mask_order_key)]


def oracle_poincare_polynomial(h) -> tuple[int, ...]:
    """Coefficients (b_0, b_2, ..., b_{2 d_h}) by the definition: the
    histogram of cell dimensions d_h - l_h(w) over all n! permutations, for
    the dynamic program :func:`hessgkm.cohomology.poincare_polynomial`."""
    h = validate_hessenberg(h)
    d = complexity_dimension(h)
    counts = [0] * (d + 1)
    for w in all_permutations(len(h)):
        counts[d - h_length(w, h)] += 1
    return tuple(counts)


class _Deadline:
    def __init__(self, budget_seconds: float | None):
        self.start = time.perf_counter()
        self.limit = None if budget_seconds is None else budget_seconds

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


def _sweep_bruhat(n_max: int, deadline: _Deadline, result: SweepResult) -> None:
    for n in range(1, n_max + 1):
        perms = sorted(all_permutations(n))
        for u in perms:
            if deadline.exceeded():
                result.complete = False
                result.note = f"stopped inside n={n}"
                return
            upset = oracle_bruhat_upset(u)
            if bruhat_interval(u) != upset:
                result.violations.append(
                    _violation(n, None, u, "bruhat", "library interval and chain oracle disagree")
                )
            for v in perms:
                result.cases += 1
                if bruhat_leq(u, v) != (v in upset):
                    result.violations.append(
                        _violation(
                            n, None, u, "bruhat",
                            f"criterion and chain oracle disagree on v={format_permutation(v)}",
                        )
                    )


def _sweep_representative(n_max: int, deadline: _Deadline, result: SweepResult) -> None:
    for n in range(1, n_max + 1):
        perms = sorted(all_permutations(n))
        e = identity(n)
        for h in hessenberg_functions(n):
            if deadline.exceeded():
                result.complete = False
                result.note = f"stopped inside n={n}"
                return
            win = windows(h)
            for w in perms:
                result.cases += 1
                try:
                    wt, u = admissible_representative(w, h)
                except RuntimeError as exc:
                    result.violations.append(_violation(n, h, w, "representative", str(exc)))
                    continue
                problems = []
                if not is_admissible(wt, h):
                    problems.append("representative not admissible")
                if not bruhat_leq(w, wt):
                    problems.append("representative not above w")
                if any((wt[i - 1] < wt[j - 1]) != (w[i - 1] < w[j - 1]) for i, j in win):
                    problems.append("window order disagrees")
                if compose(u, wt) != w:
                    problems.append("translation does not recover w")
                if is_admissible(w, h) and (wt != w or u != e):
                    problems.append("admissible w not its own representative")
                for p in problems:
                    result.violations.append(_violation(n, h, w, "representative", p))


def _sweep_fixed_points(n_max: int, deadline: _Deadline, result: SweepResult) -> None:
    for n in range(1, n_max + 1):
        perms = sorted(all_permutations(n))
        for h in hessenberg_functions(n):
            if deadline.exceeded():
                result.complete = False
                result.note = f"stopped inside n={n}"
                return
            for w in perms:
                result.cases += 1
                fixed = hess_schubert_fixed_points(w, h)
                interval = bruhat_interval(w)
                if not fixed <= interval:
                    result.violations.append(
                        _violation(n, h, w, "fixed-points", "fixed set leaves the interval")
                    )
                if (fixed == interval) != is_admissible(w, h):
                    result.violations.append(
                        _violation(
                            n, h, w, "fixed-points",
                            "fixed set equals interval iff admissible fails",
                        )
                    )


def _sweep_connectivity(n_max: int, deadline: _Deadline, result: SweepResult) -> None:
    for n in range(1, n_max + 1):
        perms = sorted(all_permutations(n))
        for h in hessenberg_functions(n):
            if deadline.exceeded():
                result.complete = False
                result.note = f"stopped inside n={n}"
                return
            ambient_connected = hessenberg_connected(h)
            for w in perms:
                if not (ambient_connected or is_admissible(w, h)):
                    continue
                result.cases += 1
                if not interval_summary(h, w).connected:
                    result.violations.append(
                        _violation(n, h, w, "connectivity", "interval graph disconnected")
                    )


def _sweep_shortcut(n_max: int, deadline: _Deadline, result: SweepResult) -> None:
    for n in range(1, n_max + 1):
        for h in hessenberg_functions(n):
            if deadline.exceeded():
                result.complete = False
                result.note = f"stopped inside n={n}"
                return
            for w in enumerate_admissible(h):
                result.cases += 1
                full = interval_summary(h, w).regularity(cell_dimension(w, h)).ok
                if regularity_via_w0(h, w) != full:
                    result.violations.append(
                        _violation(n, h, w, "shortcut", "top-degree test disagrees with full scan")
                    )


def _sweep_phi_injective(n_max: int, deadline: _Deadline, result: SweepResult) -> None:
    for n in range(1, n_max + 1):
        for h in hessenberg_functions(n):
            if deadline.exceeded():
                result.complete = False
                result.note = f"stopped inside n={n}"
                return
            for w in enumerate_admissible(h):
                interval = bruhat_interval(w)
                edge_sets = {u: window_edges(h, interval, u) for u in interval}
                for u in interval:
                    e_u = edge_sets[u]
                    lu = length(u)
                    for a, b in e_u:
                        v = apply_transposition(u, a, b)
                        if length(v) <= lu:
                            continue
                        result.cases += 1
                        e_v = set(edge_sets[v])
                        images = phi_rule(e_u, a, b)
                        if len(images) != len(e_u):
                            result.violations.append(
                                _violation(n, h, w, "phi-injective", "map not total")
                            )
                        vals = list(images.values())
                        if len(set(vals)) != len(vals):
                            result.violations.append(
                                _violation(
                                    n, h, w, "phi-injective",
                                    f"not injective at u={format_permutation(u)} (a,b)=({a},{b})",
                                )
                            )
                        if not set(vals) <= e_v:
                            result.violations.append(
                                _violation(
                                    n, h, w, "phi-injective",
                                    f"image leaves the edge set at v={format_permutation(v)}",
                                )
                            )
                        if len(e_u) > len(e_v):
                            result.violations.append(
                                _violation(
                                    n, h, w, "phi-injective",
                                    "degree decreases along an h-order edge",
                                )
                            )


def _sweep_phi_surjective(n_max: int, deadline: _Deadline, result: SweepResult) -> None:
    for n in range(1, n_max + 1):
        for h in hessenberg_functions(n):
            if deadline.exceeded():
                result.complete = False
                result.note = f"stopped inside n={n}"
                return
            for w in enumerate_admissible(h):
                interval = bruhat_interval(w)
                e_w = window_edges(h, interval, w)
                for a, b in transpositions(n):
                    v = apply_transposition(w, a, b)
                    if v not in interval or v == w:
                        continue
                    result.cases += 1
                    e_v = set(window_edges(h, interval, v))
                    images = set(phi_rule(e_w, a, b).values())
                    if not e_v <= images:
                        viol = _violation(
                            n, h, w, "phi-surjective",
                            f"misses edges at v={format_permutation(v)}: "
                            f"{sorted(e_v - images)}",
                        )
                        viol["v"] = format_permutation(v)
                        result.violations.append(viol)


def _sweep_patterns(n_max: int, deadline: _Deadline, result: SweepResult) -> None:
    for n in range(1, n_max + 1):
        for h in hessenberg_functions(n):
            if deadline.exceeded():
                result.complete = False
                result.note = f"stopped inside n={n}"
                return
            for w in enumerate_admissible(h):
                result.cases += 1
                avoids, witnesses = avoids_all_associated(w, h)
                regular = interval_summary(h, w).regularity(cell_dimension(w, h)).ok
                if avoids != regular:
                    result.violations.append(
                        _violation(
                            n, h, w, "patterns",
                            f"avoidance={avoids} but regular={regular} "
                            f"(witnesses: {witnesses})",
                        )
                    )


def _sweep_example61(n_max: int, deadline: _Deadline, result: SweepResult) -> None:
    # Fixed rank-6 case; n_max does not apply.
    h = validate_hessenberg((3, 4, 5, 6, 6, 6))
    w = (2, 3, 6, 4, 5, 1)
    result.cases += 1
    if not is_admissible(w, h):
        result.violations.append(_violation(6, h, w, "example61", "w should be admissible"))
        return
    lw = h_length(w, h)
    for u in bruhat_interval(w):
        if u != w and h_length(u, h) <= lw:
            result.violations.append(
                _violation(
                    6, h, w, "example61",
                    f"window length not minimal: l_h({format_permutation(u)}) <= {lw}",
                )
            )
    if interval_summary(h, w).regularity(cell_dimension(w, h)).ok:
        result.violations.append(
            _violation(6, h, w, "example61", "interval graph unexpectedly regular")
        )


_SUITES = {
    "bruhat": _sweep_bruhat,
    "representative": _sweep_representative,
    "fixed-points": _sweep_fixed_points,
    "connectivity": _sweep_connectivity,
    "shortcut": _sweep_shortcut,
    "phi-injective": _sweep_phi_injective,
    "phi-surjective": _sweep_phi_surjective,
    "patterns": _sweep_patterns,
    "example61": _sweep_example61,
}

SUITE_NAMES = tuple(_SUITES)


def sweep(suite_id: str, n_max: int, budget_seconds: float | None = None) -> SweepResult:
    if suite_id not in _SUITES:
        raise ValueError(f"unknown suite {suite_id!r}; known: {', '.join(SUITE_NAMES)}")
    if n_max < 1:
        raise ValueError(f"n_max = {n_max} is below the lower limit 1")
    if n_max > 6:
        raise ValueError("sweeps are capped at n_max = 6")
    deadline = _Deadline(budget_seconds)
    result = SweepResult(suite=suite_id, n_max=n_max, cases=0)
    _SUITES[suite_id](n_max, deadline, result)
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
