"""Command-line surface: verbs, exit codes, determinism, golden files."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hessgkm.cli import build_parser, main
from hessgkm.hess import format_hessenberg
from hessgkm.perms import all_permutations, format_permutation
from hessgkm.verify import hessenberg_functions

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


GOLDEN_CASES = [
    (["enumerate-admissible", "--h", "3,3,4,4"], "enumerate_admissible_3344.txt"),
    (["classify", "--h", "3,3,4,4", "--w", "3214", "--json"], "classify_3344_3214.json"),
    (["classify", "--h", "3,3,4,4", "--w", "2134", "--json"], "classify_3344_2134.json"),
    (["graph", "--h", "2,2,3", "--format", "dot"], "graph_223.dot"),
    (["graph", "--h", "2,3,3", "--w", "213", "--format", "dot"], "graph_233_213.dot"),
    (["graph", "--h", "2,3,3", "--w", "213", "--format", "json"], "graph_233_213.json"),
    (
        ["classify", "--h", "3,4,5,6,6,6", "--w", "236451", "--json"],
        "classify_345666_236451.json",
    ),
    (
        ["roots", "--type", "C", "--rank", "2", "--m", "a1,a2,a1+a2", "--tables"],
        "roots_c2_tables.txt",
    ),
    (["roots", "--type", "A", "--rank", "2", "--m", "a1,a2", "--tables"], "roots_a2_tables.txt"),
    (["classify", "--h", "3,3,4,4", "--w", "3214"], "classify_3344_3214.txt"),
    (["patterns", "--h", "3,3,4,4", "--w", "2134"], "patterns_3344_2134.txt"),
    (["patterns", "--h", "3,3,4,4", "--w", "2134", "--json"], "patterns_3344_2134.json"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES, ids=[g for _, g in GOLDEN_CASES])
def test_golden_outputs(argv, golden, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert out == expected
    # byte-identical across repeated runs
    code2, out2 = run_cli(argv, capsys)
    assert code2 == 0 and out2 == out


def test_classify_text_mode(capsys):
    code, out = run_cli(["classify", "--h", "3,3,4,4", "--w", "3214"], capsys)
    assert code == 0
    assert "representative: 4312" in out
    assert "fixed points: 3214 3241" in out
    assert "hessenberg schubert smooth: yes" in out


def test_betti(capsys):
    code, out = run_cli(["betti", "--h", "2,3,3"], capsys)
    assert code == 0
    assert "coefficients: 1 4 1" in out
    code, out = run_cli(["betti", "--h", "2,3,3", "--json"], capsys)
    assert json.loads(out) == {"h": [2, 3, 3], "coefficients": [1, 4, 1]}


def test_patterns_verb(capsys):
    code, out = run_cli(["patterns", "--h", "3,3,4,4", "--w", "2134", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible"] is True
    assert payload["avoids_all"] is False
    assert {"pattern": "h-2134", "indices": [1, 2, 3, 4]} in payload["witnesses"]
    # non-admissible input is reported, not crashed on
    code, out = run_cli(["patterns", "--h", "3,3,4,4", "--w", "3214", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible"] is False
    assert payload["avoids_all"] is None


def test_graph_json_and_out_file(tmp_path, capsys):
    code, out = run_cli(["graph", "--h", "2,2,3", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and len(payload["edges"]) == 3
    target = tmp_path / "g.dot"
    code, out = run_cli(["graph", "--h", "2,2,3", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert target.read_text().startswith("graph {")


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_graph_out_file_matches_stdout_past_one_slice(fmt, tmp_path, capsys):
    from hessgkm import cli, graphs

    argv = ["graph", "--h", "6,6,6,6,6,6", "--format", fmt]
    code, out = run_cli(argv, capsys)
    assert code == 0 and len(out) > 2 * cli._WRITE_SLICE
    g = graphs.build_hessenberg_graph((6,) * 6)
    assert out == (graphs.to_json(g) if fmt == "json" else graphs.to_dot(g))
    target = tmp_path / f"g.{fmt}"
    code, rest = run_cli(argv + ["--out", str(target)], capsys)
    assert code == 0 and rest == ""
    assert target.read_bytes() == out.encode("utf-8")


JSON_VERBS = [
    pytest.param(["classify", "--h", "3,4,5,6,6,6", "--w", "236451", "--json"], id="classify-236451"),
    pytest.param(["classify", "--h", "3,3,4,4", "--w", "2134", "--json"], id="classify-2134"),
    pytest.param(["patterns", "--h", "3,3,4,4", "--w", "2134", "--json"], id="patterns-2134"),
    pytest.param(["patterns", "--h", "3,3,4,4", "--w", "1234", "--json"], id="patterns-1234"),
    pytest.param(["betti", "--h", "3,4,5,6,7,7,7", "--json"], id="betti"),
    pytest.param(["enumerate-admissible", "--h", "3,3,4,4", "--json"], id="enumerate-admissible"),
    pytest.param(["roots", "--type", "B", "--rank", "3", "--json"], id="roots-B3"),
    pytest.param(["roots", "--type", "B", "--rank", "3", "--m", "a1,a2,a3,a1+a2", "--json"], id="roots-B3-m"),
    pytest.param(["verify", "--suite", "example61", "--json"], id="verify-example61"),
]


@pytest.mark.parametrize("argv", JSON_VERBS)
def test_json_output_is_the_encoder_on_the_payload(argv, capsys, monkeypatch):
    # Each verb's --json output is the writer's text of the payload it hands
    # over, and that text is json.dumps(payload, sort_keys=True, indent=2)
    # and a newline.  The payload is caught in the same run, so verify's
    # elapsed time is the one printed.
    from hessgkm import cli
    from hessgkm.verify import oracle_json

    seen = []
    document = cli.jsontext.document

    def spy(payload):
        seen.append((payload, document(payload)))
        return seen[-1][1]

    monkeypatch.setattr(cli.jsontext, "document", spy)
    code, out = run_cli(argv, capsys)
    assert code in (0, 1) and len(seen) == 1
    payload, text = seen[0]
    assert out == text == oracle_json(payload)


def test_roots_json(capsys):
    code, out = run_cli(
        ["roots", "--type", "C", "--rank", "2", "--m", "a1,a2,a1+a2", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["weyl_order"] == 8
    assert payload["positive_roots"] == ["a1", "a2", "a1+a2", "2a1+a2"]
    assert [["a1+a2"], ["a1", "a2"]] == payload["non_weyl_subsets"]
    classes = {tuple(c["subset"]): (c["z"], c["w"]) for c in payload["classes"]}
    assert classes[("a1",)] == ("s1", "s2s1")


def test_roots_empty_m_is_the_empty_space(capsys):
    base = ["roots", "--type", "A", "--rank", "2"]
    code, empty = run_cli(base + ["--m", ""], capsys)
    assert code == 0
    assert "M: {}" in empty.splitlines()
    assert run_cli(base + ["--m", " , "], capsys) == (0, empty)
    code, full = run_cli(base, capsys)
    assert code == 0
    assert "M: {a1, a2, a1+a2}" in full.splitlines()


def test_verify_verb_clean_suite(capsys):
    code, out = run_cli(["verify", "--suite", "patterns", "--n-max", "4"], capsys)
    assert code == 0
    assert out.startswith("patterns: OK")


def test_verify_verb_reports_known_defect(capsys):
    # the surjectivity sweep faithfully reports the counterexamples
    code, out = run_cli(["verify", "--suite", "phi-surjective", "--n-max", "4"], capsys)
    assert code == 1
    assert "FAIL (8 violations)" in out


def test_verify_text_groups_violations(capsys):
    code, out = run_cli(["verify", "--suite", "phi-surjective", "--n-max", "5"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert len(lines) < 10
    assert "FAIL (312 violations) cases=3910 " in lines[0]
    assert lines[1].startswith("  phi-surjective: 312 violations, first 3: ")
    assert lines[1].count("misses edges at v=") == 3


def test_verify_json(capsys):
    code, out = run_cli(
        ["verify", "--suite", "bruhat", "--n-max", "3", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["suite"] == "bruhat" and payload[0]["violations"] == []


def _zero_elapsed(text: str) -> str:
    """A ``verify --json`` output with every ``elapsed_seconds`` set to 0."""
    results = json.loads(text)
    for r in results:
        r["elapsed_seconds"] = 0
    return json.dumps(results, sort_keys=True, indent=2) + "\n"


def test_verify_all_matches_golden(capsys):
    # Every suite's cases and violations, in order, field for field.
    code, out = run_cli(["verify", "--suite", "all", "--n-max", "4", "--json"], capsys)
    assert code == 1
    assert _zero_elapsed(out) == (GOLDEN / "verify_n4.json").read_text(encoding="utf-8")


def test_verify_all_n5_output_is_pinned(capsys):
    # Every case count and violation of every suite at n_max = 5, the 312
    # phi-surjective and 2 example61 refutations among them, as one hash.
    code, out = run_cli(["verify", "--suite", "all", "--n-max", "5", "--json"], capsys)
    assert code == 1
    results = json.loads(out)
    for r in results:
        del r["elapsed_seconds"]
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == "0d342daa90dabf674b7c656b3680f9c3e00d2decd499bc2ce117e4dfe3b62ede"


def test_classify_and_patterns_outputs_are_pinned(capsys):
    # Both verbs, in text and in --json, on every (h, w) with n <= 4, as one hash.
    digest = hashlib.sha256()
    for n in range(1, 5):
        for h in hessenberg_functions(n):
            for w in all_permutations(n):
                for verb in ("classify", "patterns"):
                    for extra in ([], ["--json"]):
                        argv = [verb, "--h", format_hessenberg(h), "--w", format_permutation(w), *extra]
                        code, out = run_cli(argv, capsys)
                        assert code == 0
                        digest.update(out.encode())
    assert digest.hexdigest() == "22d750d89a145dde55d2939a63f68788c6591fc889a723b0f070b1fa95b1db2e"


@pytest.mark.parametrize(
    "w,digest",
    [
        ("12345678", "ec0c348728502f35a9d3c68a209d9ace23737421968d63271c6c9386e076715a"),
        ("23845671", "f18366f1fe5ab0df56e7e9d1769d543e676970b3dfe66bed71a2a426bd748092"),
    ],
)
def test_classify_rank8_output_is_pinned(w, digest, capsys):
    # Two rank-8 reports, on all of S_8 and on a 2,160-vertex interval, as hashes.
    code, out = run_cli(["classify", "--h", "3,4,5,6,7,8,8,8", "--w", w, "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "flag,digest",
    [
        ("--tables", "3bb14394271b4178587ff1dc6d8385448f0f585e4506966ca9fa987ca8a9916f"),
        ("--json", "36a9488f3fd7617983be31ea2febcd9e8efd3e1a0780ec034884a4c9af583206"),
    ],
)
def test_roots_f4_output_is_pinned(flag, digest, capsys):
    # With no --m the command runs the one space M = Phi+ of F4: its N(w)
    # table and its 1,152 one-element classes with their z and w, from the
    # integral (doubled) realization of F4.
    code, out = run_cli(["roots", "--type", "F", "--rank", "4", flag], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_verify_rejects_n_max_below_1(n_max, capsys):
    code = main(["verify", "--suite", "bruhat", "--n-max", n_max])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "n_max" in captured.err and "lower limit 1" in captured.err


def test_usage_errors_exit_2(capsys):
    assert main(["classify", "--h", "3,2,3", "--w", "123"]) == 2
    assert main(["classify", "--h", "2,3,3", "--w", "1234"]) == 2
    assert main(["roots", "--type", "E", "--rank", "6"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["betti", "--h", "2,,2"], "empty field 2 in '2,,2'"),
        (["classify", "--h", "3,3,4,4,", "--w", "1234"], "empty field 5 in '3,3,4,4,'"),
        (["classify", "--h", "2,2", "--w", "21,"], "empty field 2 in '21,'"),
        (["roots", "--type", "A", "--rank", "2", "--m", "a1,,a2"], "empty field 2 in 'a1,,a2'"),
        (["roots", "--type", "A", "--rank", "2", "--m", "[1,1"], "unbalanced brackets in '[1,1'"),
        (["roots", "--type", "A", "--rank", "2", "--m", "a1,[1,1"], "unbalanced brackets in 'a1,[1,1'"),
        (["roots", "--type", "A", "--rank", "2", "--m", "a1],a2"], "unbalanced brackets in 'a1],a2'"),
        (["roots", "--type", "A", "--rank", "2", "--m", "[1,x]"], "cannot parse root '[1,x]': 'x' is not an integer"),
        (["roots", "--type", "A", "--rank", "2", "--m", "xa1"], "cannot parse root 'xa1': 'x' is not an integer"),
        (["roots", "--type", "A", "--rank", "2", "--m", "a1,a1x"], "cannot parse root 'a1x': '1x' is not an integer"),
        (["verify", "--suite", "all", "--budget-seconds", "-1"], "budget_seconds = -1.0 is not at least the lower limit 0"),
        (["verify", "--suite", "bruhat", "--budget-seconds", "nan"], "budget_seconds = nan is not at least"),
    ],
    ids=[
        "betti", "classify-h", "classify-w", "roots", "roots-open", "roots-open-last",
        "roots-stray-close", "roots-coordinate", "roots-coefficient", "roots-index", "verify-all", "verify-nan",
    ],
)
def test_empty_fields_and_negative_budget_exit_2(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def test_unwritable_out_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "x.dot"
    code = main(["graph", "--h", "2,2,3", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and str(path) in captured.err


def test_verify_rejects_n_max_above_6(capsys):
    # The sweep cap bounds run time and is separate from the size limit.
    code = main(["verify", "--suite", "bruhat", "--n-max", "7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "n_max = 6" in captured.err


NINES = ",".join(["9"] * 9)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--h", ",".join(["10"] * 10), "--w", "1,2,3,4,5,6,7,8,9,10"],
        ["graph", "--h", NINES],
        ["enumerate-admissible", "--h", NINES],
        ["betti", "--h", ",".join(["19"] * 19)],
        ["roots", "--type", "B", "--rank", "7"],
        ["patterns", "--h", ",".join(["37"] * 37), "--w", ",".join(map(str, range(1, 38)))],
        ["graph", "--h", ",".join(["1800"] * 1800)],
        ["enumerate-admissible", "--h", ",".join(["1800"] * 1800)],
        ["roots", "--type", "A", "--rank", "2000"],
        ["roots", "--type", "A", "--rank", "1000000"],
    ],
    ids=[
        "classify", "graph", "enumerate-admissible", "betti", "roots", "patterns",
        # Orders past 4,300 digits, which Python does not print.
        "graph-1800", "enumerate-admissible-1800", "roots-A2000", "roots-A1000000",
    ],
)
def test_oversized_requests_exit_2(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "size limit SIZE_LIMIT = 65536" in captured.err


def test_interval_listing_names_the_position_pair_limit(capsys):
    # w0's interval is one vertex, but listing it recurses once a position,
    # past Python's depth at n = 1000; the pair count stops it first.
    n = 1000
    argv = ["graph", "--h", ",".join([str(n)] * n), "--w", ",".join(map(str, range(n, 0, -1))), "--format", "json"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "position pairs" in captured.err and "size limit SIZE_LIMIT = 65536" in captured.err


def test_roots_lists_non_weyl_subsets_up_to_16_roots(capsys):
    # M = all 16 positive roots of B4: 2^16 subsets is at the size limit.
    code, out = run_cli(["roots", "--type", "B", "--rank", "4", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["m"]) == 16
    assert len(payload["non_weyl_subsets"]) == 65152


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hessgkm", "betti", "--h", "2,3,3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1 4 1" in proc.stdout


def test_parser_reused_across_calls(capsys):
    assert build_parser() is build_parser()
    calls = [
        ["classify", "--h", "3,3,4,4", "--w", "3214", "--json"],
        ["betti", "--h", "2,3,3"],
        ["graph", "--h", "2,2,3"],
    ]
    outs = [run_cli(argv, capsys) for argv in calls]
    for argv, (code, out) in zip(calls, outs):
        fresh = subprocess.run(
            [sys.executable, "-m", "hessgkm", *argv], capture_output=True, text=True
        )
        assert code == fresh.returncode == 0
        assert out == fresh.stdout, argv
    # --json on the classify call does not carry over to betti
    assert outs[1][1] == "h: 2,3,3\ncoefficients: 1 4 1\n"
