"""Acceptance gate: one check per stated criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Two stated claims are false under this package's own definitions (windows
(i, j) with i < j <= h(i), l_h the window inversion count, edges the window
swaps inside the Bruhat interval).  Their checks pin the exact
counterexamples instead of asserting the claims; the ``example61`` and
``phi-surjective`` sweeps keep reporting the violations, frozen in
tests/test_verify.py:

* criterion 5b -- strict window-length minimality over the interval of
  w = 236451 under h = (3,4,5,6,6,6).  By hand: the windows are (1,2),
  (1,3), (2,3), (2,4), (3,4), (3,5), (4,5), (4,6), (5,6); l_h(236451) = 4
  from (3,4), (3,5), (4,6), (5,6), and l_h(263451) = 4 from (2,3), (2,4),
  (4,6), (5,6), where 263451 = w(2,3) covers w.  The check asserts the
  weak form (nothing in [w, w0] has a smaller count) and that the ties
  other than w are exactly 263451 and 623451.
* criterion 7d -- surjectivity of the edge comparison map for the
  one-reflection moves out of the interval minimum.  By counting: at
  h = (3,4,4,4), w = 1423, v = w(1,2) = 4123 the edges at w are (1,2),
  (1,3), (3,4) and those at v are (1,2), (2,3), (2,4), (3,4); no map from
  three edges is onto four.  The check asserts that the n <= 5 sweep is
  complete and that its violations are exactly the moves where v has more
  edges than w: 312 of its 3910 cases.

The text the criteria were taken from is not in the repository (PAPER.md
holds only the abstract), so whether the source states either claim under
some other convention cannot be checked here; taking w^-1 in place of w
does not make 5b strict either.
"""

import time
from pathlib import Path

import pytest

from hessgkm.classify import classify, component_lower_bound
from hessgkm.cli import main as cli_main
from hessgkm.cohomology import (
    check_compatibility,
    localized_class_candidate,
    poincare_polynomial,
)
from hessgkm.graphs import build_hessenberg_graph, interval_graph
from hessgkm.hess import (
    cell_dimension,
    enumerate_admissible,
    format_hessenberg,
    h_length,
    is_admissible,
)
from hessgkm.perms import (
    all_permutations,
    apply_transposition,
    bruhat_interval,
    format_permutation,
    length,
    transpositions,
)
from hessgkm.roots import (
    build_root_system,
    partition_classes,
    validate_hessenberg_space,
    weyl_type_subsets,
    z_and_w,
)
from hessgkm.verify import _degrees, hessenberg_functions, is_connected, is_regular, oracle_weak_leq, sweep

GOLDEN = Path(__file__).parent / "golden"

H3344 = (3, 3, 4, 4)
H6 = (3, 4, 5, 6, 6, 6)
W6 = (2, 3, 6, 4, 5, 1)
PHI_SURJECTIVE_VIOLATIONS_N5 = 312


def _line(cid: str, ok: bool, desc: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {status} - {desc} ({elapsed:.2f}s)")


def _finish(cid: str, ok: bool, desc: str, start: float, limit: float, detail: str = ""):
    elapsed = time.perf_counter() - start
    _line(cid, ok and elapsed < limit, desc, elapsed)
    assert ok, f"criterion {cid}: {desc}{': ' + detail if detail else ''}"
    assert elapsed < limit, f"criterion {cid} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_admissible_enumeration():
    start = time.perf_counter()
    got = {"".join(map(str, w)) for w in enumerate_admissible(H3344)}
    expected = {
        "1234", "1423", "2134", "2341", "2431", "3241",
        "3412", "3421", "4123", "4231", "4312", "4321",
    }
    _finish("1", got == expected, "admissible enumeration for h=3,3,4,4", start, 1.0)


def test_criterion_2_translated_curve_case():
    start = time.perf_counter()
    r = classify((3, 2, 1, 4), H3344)
    checks = [
        r.admissible is False,
        r.representative == (4, 3, 1, 2),
        r.translation == (1, 4, 2, 3),
        r.fixed_points == ((3, 2, 1, 4), (3, 2, 4, 1)),
        r.intersection_irreducible == "no",
        r.hess_schubert_smooth == "yes",
    ]
    bound = component_lower_bound((3, 2, 1, 4), H3344)
    checks.append(frozenset({(3, 2, 1, 4), (3, 4, 1, 2)}) <= bound)
    checks.append(bound <= frozenset({(3, 2, 1, 4), (3, 4, 1, 2), (3, 2, 4, 1), (4, 2, 1, 3)}))
    _finish("2", all(checks), "classification of w=3214, h=3,3,4,4", start, 1.0, repr(checks))


def test_criterion_3_admissible_irregular_case():
    start = time.perf_counter()
    r = classify((2, 1, 3, 4), H3344)
    checks = [
        r.admissible is True,
        r.graph_stats.connected,
        not r.graph_stats.regular,
        r.intersection_smooth == "no",
        ("2134", (1, 2, 3, 4)) in r.pattern_witnesses,
        r.hess_schubert_smooth == "unknown",
    ]
    _finish("3", all(checks), "classification of w=2134, h=3,3,4,4", start, 1.0, repr(checks))


def test_criterion_4_figure_reproduction():
    start = time.perf_counter()
    g = build_hessenberg_graph((2, 2, 3))
    three_edges = {frozenset((e.u, e.v)) for e in g.edges} == {
        frozenset({(1, 2, 3), (2, 1, 3)}),
        frozenset({(2, 3, 1), (3, 2, 1)}),
        frozenset({(1, 3, 2), (3, 1, 2)}),
    }
    gi = interval_graph((2, 3, 3), (2, 1, 3))
    interval_ok = (
        len(gi.vertices) == 4
        and len(gi.edges) == 3
        and sorted(_degrees(gi).values()) == [1, 1, 2, 2]
    )
    _finish("4", three_edges and interval_ok, "graph shapes for h=2,2,3 and (2,3,3 | 213)", start, 1.0)


def test_criterion_5a_rank6_admissible():
    start = time.perf_counter()
    _finish("5a", is_admissible(W6, H6), "236451 admissible under h=3,4,5,6,6,6", start, 5.0)


def test_criterion_5b_rank6_strict_window_minimality():
    # Stated claim: l_h(u) > l_h(w) for every u with w < u <= w0.  It fails
    # at the cover 263451 = w(2,3) and at 623451, which tie with w at 4 (see
    # the module docstring), so the weak form and that tie set are pinned.
    start = time.perf_counter()
    interval = bruhat_interval(W6)
    lw = h_length(W6, H6)
    below = [u for u in interval if h_length(u, H6) < lw]
    ties = sorted(
        format_permutation(u)
        for u in interval
        if u != W6 and h_length(u, H6) == lw
    )
    cover = apply_transposition(W6, 2, 3)
    checks = [
        lw == 4,
        not below,
        ties == ["263451", "623451"],
        cover == (2, 6, 3, 4, 5, 1),
        length(cover) == length(W6) + 1,
    ]
    _finish(
        "5b",
        all(checks),
        "weak window-length minimality over the interval of 236451; "
        "ties exactly 263451 = w(2,3) and 623451",
        start,
        5.0,
        f"checks {checks}; smaller at {below[:3]}; ties at {ties}",
    )


def test_criterion_5c_rank6_graph_not_regular():
    start = time.perf_counter()
    ok = not is_regular(interval_graph(H6, W6), cell_dimension(W6, H6)).ok
    _finish("5c", ok, "interval graph of 236451 is not regular", start, 5.0)


def test_criterion_6_rank2_tables():
    start = time.perf_counter()
    checks = []

    a2 = build_root_system("A", 2)
    ol = a2.one_line_map()
    m_a = frozenset({(1, 0), (0, 1)})
    hs_a = validate_hessenberg_space(a2, m_a)
    n_table = {
        "".join(map(str, ol[w])): a2.format_root_set(a2.inversion_set(w))
        for w in a2.elements()
    }
    checks.append(
        n_table
        == {
            "123": "{}", "132": "{a2}", "213": "{a1}",
            "231": "{a2, a1+a2}", "312": "{a1, a1+a2}", "321": "{a1, a2, a1+a2}",
        }
    )
    classes_a = partition_classes(hs_a)
    subs_a = weyl_type_subsets(hs_a)
    checks.append(len(subs_a) == 4)
    rows_a = {}
    for s in subs_a:
        z, w_top = z_and_w(hs_a, s)
        rows_a[a2.format_root_set(s)] = (
            tuple(sorted("".join(map(str, ol[x])) for x in classes_a[s])),
            "".join(map(str, ol[z])),
            "".join(map(str, ol[w_top])),
        )
    checks.append(
        rows_a
        == {
            "{}": (("123",), "123", "123"),
            "{a1}": (("213", "312"), "213", "312"),
            "{a2}": (("132", "231"), "132", "231"),
            "{a1, a2}": (("321",), "321", "321"),
        }
    )

    c2 = build_root_system("C", 2)
    m_c = c2.parse_root_list("a1,a2,a1+a2")
    hs_c = validate_hessenberg_space(c2, m_c)
    fmt = c2.format_element
    n_table_c = {fmt(w): c2.format_root_set(c2.inversion_set(w)) for w in c2.elements()}
    checks.append(
        n_table_c
        == {
            "e": "{}", "s1": "{a1}", "s2": "{a2}",
            "s2s1": "{a1, 2a1+a2}", "s1s2": "{a2, a1+a2}",
            "s1s2s1": "{a1, a1+a2, 2a1+a2}", "s2s1s2": "{a2, a1+a2, 2a1+a2}",
            "s1s2s1s2": "{a1, a2, a1+a2, 2a1+a2}",
        }
    )
    subs_c = weyl_type_subsets(hs_c)
    checks.append(
        [c2.format_root_set(s) for s in subs_c]
        == ["{}", "{a1}", "{a2}", "{a1, a1+a2}", "{a2, a1+a2}", "{a1, a2, a1+a2}"]
    )
    checks.append(frozenset({(1, 1)}) not in set(subs_c))
    classes_c = partition_classes(hs_c)
    rows_c = {}
    for s in subs_c:
        z, w_top = z_and_w(hs_c, s)
        rows_c[c2.format_root_set(s)] = (
            tuple(fmt(x) for x in classes_c[s]), fmt(z), fmt(w_top),
        )
    checks.append(
        rows_c
        == {
            "{}": (("e",), "e", "e"),
            "{a1}": (("s1", "s2s1"), "s1", "s2s1"),
            "{a2}": (("s2",), "s2", "s2"),
            "{a1, a1+a2}": (("s1s2s1",), "s1s2s1", "s1s2s1"),
            "{a2, a1+a2}": (("s1s2", "s2s1s2"), "s1s2", "s2s1s2"),
            "{a1, a2, a1+a2}": (("s1s2s1s2",), "s1s2s1s2", "s1s2s1s2"),
        }
    )

    # partition and weak-interval structure for both spaces
    for rs, hs in ((a2, hs_a), (c2, hs_c)):
        classes = partition_classes(hs)
        checks.append(sum(len(c) for c in classes.values()) == len(rs.elements()))
        for s, cls in classes.items():
            z, w_top = z_and_w(hs, s)
            members = {
                x for x in rs.elements() if oracle_weak_leq(rs, z, x) and oracle_weak_leq(rs, x, w_top)
            }
            checks.append(members == set(cls))

    _finish("6", all(checks), "rank-2 inversion and class tables", start, 1.0, repr(checks))


_SWEEP_CACHE: dict = {}


def _run_sweeps():
    if not _SWEEP_CACHE:
        suites = {
            "a": "patterns",
            "b": "shortcut",
            "c": "phi-injective",
            "d": "phi-surjective",
            "e": "fixed-points",
            "f": "connectivity",
            "g": "bruhat",
        }
        start = time.perf_counter()
        results = {letter: sweep(name, 5) for letter, name in suites.items()}
        _SWEEP_CACHE["results"] = results
        _SWEEP_CACHE["elapsed"] = time.perf_counter() - start
    return _SWEEP_CACHE


def _degree_jump_moves(n_max: int) -> tuple[int, set[tuple[str, str, str]]]:
    """The phi-surjective cases at rank <= n_max, counted, and the moves
    among them where v has more interval-graph edges than w, as
    (h, w, v) text triples."""
    cases = 0
    jumps = set()
    for n in range(1, n_max + 1):
        for h in hessenberg_functions(n):
            for w in enumerate_admissible(h):
                degs = _degrees(interval_graph(h, w))
                for a, b in transpositions(n):
                    v = apply_transposition(w, a, b)
                    if v == w or v not in degs:
                        continue
                    cases += 1
                    if degs[v] > degs[w]:
                        jumps.add((format_hessenberg(h), format_permutation(w), format_permutation(v)))
    return cases, jumps


def _check_7d(r) -> tuple[bool, str]:
    # Stated claim: no violations.  Onto fails exactly where deg(v) > deg(w)
    # (see the module docstring), so that violation set is pinned instead.
    cases, jumps = _degree_jump_moves(5)
    at = {(v["h"], v["w"], v["v"]) for v in r.violations}
    checks = [
        r.complete,
        cases == r.cases,
        at == jumps,
        len(r.violations) == len(jumps) == PHI_SURJECTIVE_VIOLATIONS_N5,
    ]
    detail = (
        f"checks {checks}; {len(r.violations)} violations, {len(jumps)} degree jumps; "
        f"violations without a jump: {sorted(at - jumps)[:3]}"
    )
    return all(checks), detail


@pytest.mark.parametrize("letter", ["a", "b", "c", "d", "e", "f", "g"])
def test_criterion_7_sweeps(letter):
    cache = _run_sweeps()
    r = cache["results"][letter]
    if letter == "d":
        ok, detail = _check_7d(r)
        desc = (
            f"sweep {r.suite} at n<=5 ({r.cases} cases): violations exactly at "
            f"the {PHI_SURJECTIVE_VIOLATIONS_N5} degree-jump moves"
        )
    else:
        ok = r.ok and r.complete
        detail = f"{len(r.violations)} violations in suite {r.suite}; first: {r.violations[:2]}"
        desc = f"sweep {r.suite} at n<=5 ({r.cases} cases)"
    _line(f"7{letter}", ok, desc, r.elapsed)
    assert ok, f"criterion 7{letter}: {detail}"


def test_criterion_7_total_time():
    cache = _run_sweeps()
    elapsed = cache["elapsed"]
    _line("7-time", elapsed < 60.0, "all seven sweeps single-threaded", elapsed)
    assert elapsed < 60.0


def test_criterion_8_poincare():
    start = time.perf_counter()
    checks = [
        poincare_polynomial((2, 3, 3)) == (1, 4, 1),
        poincare_polynomial((3, 3, 3)) == (1, 2, 2, 1),
    ]
    fact = 1
    for n in range(1, 6):
        fact *= n
        for h in hessenberg_functions(n):
            coeffs = poincare_polynomial(h)
            checks.append(sum(coeffs) == fact)
            checks.append(coeffs == tuple(reversed(coeffs)))
    _finish("8", all(checks), "Betti coefficients at n<=5", start, 1.0)


def test_criterion_9_localized_classes():
    start = time.perf_counter()
    failures = []
    for n in range(1, 5):
        for h in hessenberg_functions(n):
            full = build_hessenberg_graph(h)
            for w in all_permutations(n):
                g = interval_graph(h, w)
                if not is_regular(g, cell_dimension(w, h)).ok:
                    continue
                if not is_connected(g):
                    continue
                cls = localized_class_candidate(h, w)
                ok, viol = check_compatibility(full, cls)
                if not ok:
                    failures.append((h, w, viol))
    _finish("9", not failures, "localized classes pass the edge congruences", start, 10.0, repr(failures[:3]))


def test_criterion_10_determinism(capsys):
    start = time.perf_counter()
    cases = [
        (["enumerate-admissible", "--h", "3,3,4,4"], "enumerate_admissible_3344.txt"),
        (["classify", "--h", "3,3,4,4", "--w", "3214", "--json"], "classify_3344_3214.json"),
        (["classify", "--h", "3,3,4,4", "--w", "2134", "--json"], "classify_3344_2134.json"),
        (["graph", "--h", "2,2,3", "--format", "dot"], "graph_223.dot"),
        (["graph", "--h", "2,3,3", "--w", "213", "--format", "dot"], "graph_233_213.dot"),
        (["classify", "--h", "3,4,5,6,6,6", "--w", "236451", "--json"], "classify_345666_236451.json"),
        (["roots", "--type", "C", "--rank", "2", "--m", "a1,a2,a1+a2", "--tables"], "roots_c2_tables.txt"),
        (["roots", "--type", "A", "--rank", "2", "--m", "a1,a2", "--tables"], "roots_a2_tables.txt"),
    ]
    ok = True
    for argv, golden in cases:
        expected = (GOLDEN / golden).read_text(encoding="utf-8")
        for _ in range(2):
            code = cli_main(argv)
            out = capsys.readouterr().out
            if code != 0 or out != expected:
                ok = False
    elapsed = time.perf_counter() - start
    _line("10", ok, "byte-identical outputs vs. golden files", elapsed)
    assert ok
