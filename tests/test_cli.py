"""Command-line surface: verbs, exit codes, determinism, golden files."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hessgkm.cli import main

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
    (
        ["classify", "--h", "3,4,5,6,6,6", "--w", "236451", "--json"],
        "classify_345666_236451.json",
    ),
    (
        ["roots", "--type", "C", "--rank", "2", "--m", "a1,a2,a1+a2", "--tables"],
        "roots_c2_tables.txt",
    ),
    (["roots", "--type", "A", "--rank", "2", "--m", "a1,a2", "--tables"], "roots_a2_tables.txt"),
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
    assert "FAIL (312 violations)" in lines[0]
    assert lines[1].startswith("  phi-surjective: 312 violations, first 3: ")
    assert lines[1].count("misses edges at v=") == 3


def test_verify_json(capsys):
    code, out = run_cli(
        ["verify", "--suite", "bruhat", "--n-max", "3", "--json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["suite"] == "bruhat" and payload[0]["violations"] == []


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hessgkm", "betti", "--h", "2,3,3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1 4 1" in proc.stdout
