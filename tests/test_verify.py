"""Sweep harness: generator self-tests, clean suites, and the two frozen
defect regressions.

Two checks encode claims that the sweeps disprove at desk scale; the
suites report those violations faithfully rather than masking them:

* ``phi-surjective``: the edge comparison map out of the interval minimum
  need not be onto.  Smallest instances live at rank 4; one of them,
  h = (3,4,4,4), w = 1423, v = w(1,2) = 4123, has deg(v) = 4 against cell
  dimension 3, and v provably lies on two components (the cells of 1423
  and 4123 both have dimension 3 there).
* ``example61``: for h = (3,4,5,6,6,6), w = 236451, the window inversion
  count is NOT strictly minimal at w over the interval: 263451 = w(2,3)
  (a Bruhat cover) and 623451 attain the same count 4.  The weak form
  (no strictly smaller count above w) does hold, and the interval graph
  is irregular as expected.
"""

import hashlib
import json

import pytest

from hessgkm import verify
from hessgkm.hess import admissible_representative, enumerate_admissible
from hessgkm.perms import all_permutations, apply_transposition, bruhat_leq, compose, inverse
from hessgkm.verify import (
    SUITE_NAMES,
    SweepResult,
    hessenberg_functions,
    oracle_bruhat,
    phi_rule,
    sweep,
    sweep_all,
)

CLEAN_SUITES = [s for s in SUITE_NAMES if s not in ("phi-surjective", "example61")]


def test_hessenberg_function_counts_are_catalan():
    assert [len(hessenberg_functions(n)) for n in range(1, 8)] == [
        1, 2, 5, 14, 42, 132, 429,
    ]


def test_admissible_pair_counts_are_double_factorials():
    # Observed, not proved: the admissible (h, w) of rank n number (2n - 1)!!.
    assert [sum(len(enumerate_admissible(h)) for h in hessenberg_functions(n)) for n in range(1, 7)] == [
        1, 3, 15, 105, 945, 10395,
    ]


def test_hessenberg_functions_take_a_rank_of_at_least_one():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"rank n = {n} is below the lower limit 1"):
            hessenberg_functions(n)


def test_hessenberg_functions_sorted_and_valid():
    hs = hessenberg_functions(4)
    assert hs == sorted(hs)
    assert (1, 2, 3, 4) in hs and (4, 4, 4, 4) in hs


def test_oracle_bruhat_basics():
    assert oracle_bruhat((1, 2, 3), (3, 2, 1))
    assert not oracle_bruhat((2, 1, 3), (1, 2, 3))
    assert oracle_bruhat((2, 1, 3), (2, 1, 3))
    with pytest.raises(ValueError):
        oracle_bruhat((1, 2), (1, 2, 3))


def test_oracle_agrees_with_criterion_n4():
    for n in range(1, 5):
        for u in all_permutations(n):
            for v in all_permutations(n):
                assert oracle_bruhat(u, v) == bruhat_leq(u, v)


# The case counts at n_max = 5; a rewrite of a suite must keep them.
CASES_N5 = {
    "bruhat": 15017,
    "representative": 5411,
    "fixed-points": 5411,
    "connectivity": 2091,
    "shortcut": 1069,
    "phi-injective": 56967,
    "patterns": 1069,
}


@pytest.mark.parametrize("suite", CLEAN_SUITES)
def test_clean_suites_have_no_violations_n5(suite):
    result = sweep(suite, 5)
    assert result.ok, result.violations
    assert result.complete
    assert result.cases == CASES_N5[suite]


def _details(result) -> set[str]:
    return {v["detail"].split(" at ")[0] for v in result.violations}


def _merge_edges(edges, a, b):
    # Total, but every edge goes to the one edge (a, b) at v.
    return {e: (a, b) for e in edges}


def _reverse_pairs(edges, a, b):
    # Total and injective, but (j, i) is no position pair, so never an edge.
    return {(i, j): (j, i) for i, j in edges}


def _shift_move(edges, a, b):
    # phi with (a, b) sent to (a, b + 1), which v often lacks or already hits.
    out = phi_rule(edges, a, b)
    out[(a, b)] = (a, b + 1)
    return out


@pytest.mark.parametrize(
    "rule, found",
    [
        (_merge_edges, {"not injective"}),
        (_reverse_pairs, {"image leaves the edge set"}),
        (_shift_move, {"not injective", "image leaves the edge set"}),
    ],
    ids=["merge", "off-layout", "in-layout"],
)
def test_phi_injective_catches_a_faulty_rule(rule, found, monkeypatch):
    monkeypatch.setattr(verify, "phi_rule", rule)
    assert _details(sweep("phi-injective", 4)) == found


# sha256 of json.dumps(violations) -- every record, each field in order --
# and the case count of sweep("phi-injective", n) under each faulty rule,
# recorded when the suite still walked every case, so that the per-key
# suite names each violation as that walk did.
FAULTY_RULE_VIOLATIONS = {
    ("merge", 4): (1105, "0366b93fbd1dd0c2292c5ad0effdd971a2f808da0084415931f3fec1d9e18ea8"),
    ("merge", 5): (56967, "30836d8b60a14851b505953446f7ae7fb518f5271f14d51fd6a0708ad2b162d6"),
    ("off-layout", 4): (1105, "588d0bbad8003f6d79982cd4cfbbe54b11aeda50d4a5df9fc4a5ea80cba911e8"),
    ("off-layout", 5): (56967, "7f5c5dd3a02ced0834ca2edc5fa991cb83e72b9a57be4326d074af59ef64a23c"),
    ("in-layout", 4): (1105, "65cadeb44c715361e270420a2581ca2c9ff9816513a5f9be8864bc4611f52d53"),
    ("in-layout", 5): (56967, "272a93a332d9e6c0337d171c8078f7727f895757ace3d9d2ca775bee50d8bef0"),
}
FAULTY_RULES = {"merge": _merge_edges, "off-layout": _reverse_pairs, "in-layout": _shift_move}


@pytest.mark.parametrize(
    "rule, n", FAULTY_RULE_VIOLATIONS, ids=[f"{rule}-{n}" for rule, n in FAULTY_RULE_VIOLATIONS]
)
def test_phi_injective_names_each_violation_as_the_case_walk_did(rule, n, monkeypatch):
    monkeypatch.setattr(verify, "phi_rule", FAULTY_RULES[rule])
    result = sweep("phi-injective", n)
    digest = hashlib.sha256(json.dumps(result.violations).encode()).hexdigest()
    assert (result.cases, digest) == FAULTY_RULE_VIOLATIONS[rule, n]


def test_representative_suite_catches_an_extra_swap(monkeypatch):
    # The true w~ with positions 1 and 2 swapped, from rank 2 on.
    def off_by_one(w, h):
        wt = admissible_representative(w, h)[0]
        if len(wt) > 1:
            wt = apply_transposition(wt, 1, 2)
        return wt, compose(w, inverse(wt))

    monkeypatch.setattr(verify, "_ascend", off_by_one)  # the suite runs the unchecked core
    result = sweep("representative", 4)
    flagged = [v for v in result.violations if v["detail"].startswith("interval scan finds [")]
    assert len(flagged) == result.cases - 1  # every case but the one of rank 1


@pytest.mark.parametrize(
    "suite, oracle",
    [("shortcut", "regularity_via_w0"), ("patterns", "avoids_all_associated")],
)
def test_regularity_suites_catch_a_negated_partner(suite, oracle, monkeypatch):
    # Each suite compares the mask regularity read with a second result;
    # negating that result must flag every case.
    true_result = getattr(verify, oracle)
    if oracle == "regularity_via_w0":
        negated = lambda h, w: not true_result(h, w)
    else:
        def negated(w, h):
            avoids, witnesses = true_result(w, h)
            return not avoids, witnesses
    monkeypatch.setattr(verify, oracle, negated)
    result = sweep(suite, 4)
    assert result.cases > 0
    assert len(result.violations) == result.cases


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        sweep("nope", 4)
    with pytest.raises(ValueError, match="capped at n_max = 6"):
        sweep("bruhat", 7)
    with pytest.raises(ValueError, match="n_max"):
        sweep("bruhat", 0)
    for budget in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="the lower limit 0"):
            sweep("example61", 5, budget)
        with pytest.raises(ValueError, match="the lower limit 0"):
            sweep_all(3, budget)


@pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if s != "example61"])
def test_budget_truncates(suite):
    result = sweep(suite, 5, budget_seconds=0.0)
    assert result.complete is False
    assert result.note == "stopped inside n=1"
    assert result.cases == 0


def test_example61_runs_under_exhausted_budget():
    # The fixed case is one case: no budget truncates it.
    result = sweep("example61", 5, budget_seconds=0.0)
    assert result.complete is True
    assert result.cases == 1
    assert len(result.violations) == 2


def test_sweep_all_runs_every_suite():
    results = sweep_all(3)
    assert [r.suite for r in results] == list(SUITE_NAMES)
    for r in results:
        if r.suite not in ("phi-surjective", "example61"):
            assert r.ok


def test_phi_surjective_defect_frozen_at_rank_4():
    result = sweep("phi-surjective", 4)
    got = {(v["h"], v["w"], v["detail"]) for v in result.violations}
    assert got == {
        ("2,4,4,4", "1243", "misses edges at v=4213: [(3, 4)]"),
        ("3,3,4,4", "2134", "misses edges at v=2431: [(1, 2)]"),
        ("3,4,4,4", "1243", "misses edges at v=4213: [(3, 4)]"),
        ("3,4,4,4", "1324", "misses edges at v=4321: [(2, 3)]"),
        ("3,4,4,4", "1423", "misses edges at v=4123: [(2, 4)]"),
        ("3,4,4,4", "2134", "misses edges at v=2431: [(1, 2)]"),
        ("3,4,4,4", "2314", "misses edges at v=2341: [(1, 3)]"),
        ("4,4,4,4", "1324", "misses edges at v=4321: [(2, 3)]"),
    }
    for v in result.violations:
        assert v["detail"].startswith(f"misses edges at v={v['v']}: ")


def test_example61_defect_frozen():
    result = sweep("example61", 6)
    details = sorted(v["detail"] for v in result.violations)
    assert details == [
        "window length not minimal: l_h(263451) <= 4",
        "window length not minimal: l_h(623451) <= 4",
    ]


def test_json_dict_shape():
    r = sweep("bruhat", 3)
    d = r.to_json_dict()
    assert d["suite"] == "bruhat"
    assert d["violations"] == []
    assert d["complete"] is True


def test_sweep_results_never_share_a_violations_list():
    a, b = SweepResult("bruhat", 3, 0), SweepResult("bruhat", 3, 0)
    a.violations.append({"detail": "x"})
    assert b.violations == [] and b.ok and not a.ok
    assert sweep("bruhat", 3).violations is not sweep("bruhat", 3).violations
    assert (b.elapsed, b.complete, b.note) == (0.0, True, "")
