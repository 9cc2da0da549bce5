"""The four benchmark workloads and their output checks.

Each workload is a function ``(seed, pass_index) -> (ops, layers)``.  It
runs inside a fresh interpreter after ``import hessgkm`` and performs the
workload's set-up: input generation and, for ``weyl``, root-system
construction.  ``ops`` yields ``(kind, thunk, check)`` triples; the worker
times ``thunk()`` and then calls ``check(result)``, which must return True.
``layers`` is a dict the checks may fill with per-layer figures.

Inputs come from the pools in golden.json, recorded by record_golden.py
together with the digest of each output.  A pass draws a stratified sample
(the pools are sorted by a cost proxy, split into equal strata, and each
stratum gives the same number of picks), so passes with different seeds
cost about the same.  Calls into the library look functions up on their
module at call time, so a traced pass sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from functools import partial
from pathlib import Path

from tracer import library_modules

GOLDEN = Path(__file__).with_name("golden.json")

N_MAX = 5
# Per-suite (cases, violations) of `verify` at n_max = 5.  The 312
# phi-surjective and 2 example61 violations are the two refuted claims
# that the engine reports by design; they are expected results.
SWEEP_EXPECTED = {
    "bruhat": (15017, 0),
    "representative": (5411, 0),
    "fixed-points": (5411, 0),
    "connectivity": (2091, 0),
    "shortcut": (1069, 0),
    "phi-injective": (56967, 0),
    "phi-surjective": (3910, 312),
    "patterns": (1069, 0),
    "example61": (1, 2),
}

F4_ORDER = 1152
F4_SPACES = 105


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def draw(rng: random.Random, pool: list, strata: int, per_stratum: int) -> list:
    """Stratified sample of a cost-sorted pool."""
    out = []
    for s in range(strata):
        lo, hi = len(pool) * s // strata, len(pool) * (s + 1) // strata
        out.extend(rng.sample(pool[lo:hi], per_stratum))
    return out


def cli_output(argv: list[str]) -> tuple[int, str]:
    from hessgkm import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _matches(expected: str):
    return lambda out: digest(*out) == expected


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


# -- classify ----------------------------------------------------------------


def classify_argv(h: str, w: str) -> list[str]:
    return ["classify", "--h", h, "--w", w, "--json"]


def classify(seed: int, pass_index: int):
    """50 uniform rank-7 pairs and 10 rank-8 pairs with l(w) >= 20, one
    from each stratum, so that the cost of a pass hardly depends on the
    draw."""
    golden = load_golden()
    rng = _rng("classify", seed, pass_index)
    picks = draw(rng, golden["classify_rank7"], 50, 1) + draw(rng, golden["classify_rank8"], 10, 1)
    rng.shuffle(picks)
    ops = [
        (f"classify-n{len(w)}", partial(cli_output, classify_argv(h, w)), _matches(d))
        for h, w, _, d in picks
    ]
    return ops, {}


# -- sweep --------------------------------------------------------------------


def cache_currsize() -> int:
    """Entries held by every lru_cache bound in a hessgkm module."""
    seen: dict[int, object] = {}
    for mod in library_modules():
        for value in vars(mod).values():
            for fn in (value, getattr(value, "__wrapped__", None)):
                if hasattr(fn, "cache_info"):
                    seen[id(fn)] = fn
    return sum(fn.cache_info().currsize for fn in seen.values())


def _run_suite(suite: str):
    from hessgkm import verify

    return verify.sweep(suite, N_MAX)


def _check_suite(suite: str, layers: dict, result) -> bool:
    layers[f"verify.{suite}.s"] = result.elapsed
    layers[f"verify.{suite}.cases"] = result.cases
    layers[f"verify.{suite}.violations"] = len(result.violations)
    layers[f"verify.{suite}.cache_currsize"] = cache_currsize()
    return result.complete and (result.cases, len(result.violations)) == SWEEP_EXPECTED[suite]


def sweep(seed: int, pass_index: int):
    """Every verify suite at n_max = 5, in order, in one cold process.  The
    sweep is exhaustive, so the seed does not change it."""
    layers: dict = {}
    ops = [
        (f"verify.{suite}", partial(_run_suite, suite), partial(_check_suite, suite, layers))
        for suite in SWEEP_EXPECTED
    ]
    return ops, layers


# -- weyl ---------------------------------------------------------------------


def element_from_word(rs, word: str):
    """The element s_{i1} s_{i2} ... for a word of 1-based letters."""
    x = rs.identity
    for letter in reversed(word):
        x = rs.mul(rs.generators[int(letter) - 1], x)
    return x


def word_of(rs, w) -> str:
    return "".join(str(i + 1) for i in rs.canonical_word(w))


def d4_report(hs, w) -> dict:
    from hessgkm import roots

    return roots.classify_arbitrary(hs, w).to_json_dict()


def d4_digest(report: dict) -> str:
    return digest(json.dumps(report, sort_keys=True))


def _f4_space(rs, m):
    from hessgkm import roots

    hs = roots.validate_hessenberg_space(rs, m)
    classes = roots.partition_classes(hs)
    subsets = roots.weyl_type_subsets(hs)
    bounds = [roots.z_and_w(hs, s) for s in subsets]
    tops = roots.h_admissible_elements(hs)
    return classes, subsets, bounds, tops


def _f4_space_ok(out) -> bool:
    classes, subsets, bounds, tops = out
    return (
        sum(len(c) for c in classes.values()) == F4_ORDER
        and set(classes) == set(subsets)
        and len(bounds) == len(tops) == len(subsets)
    )


def _weyl_ops(rng, f4, d4_inputs):
    from hessgkm import roots

    spaces: list = []

    def enumerate_f4():
        spaces.extend(roots.enumerate_hessenberg_spaces(f4))
        return spaces

    yield "f4.enumerate", enumerate_f4, lambda out: len(out) == F4_SPACES
    # Shuffled, so that every kind of op is spread over the whole pass
    # rather than timed in one stretch of it.
    ops = [("f4.space", partial(_f4_space, f4, m), _f4_space_ok) for m in spaces]
    for hs, w, expected in d4_inputs:
        ops.append(("d4.classify", partial(d4_report, hs, w), lambda out, d=expected: d4_digest(out) == d))
    rng.shuffle(ops)
    yield from ops


def weyl(seed: int, pass_index: int):
    """Every Hessenberg space of F4 and 60 classify_arbitrary calls on D4, in
    a seeded order after the F4 spaces are enumerated."""
    from hessgkm import roots

    f4 = roots.build_root_system("F", 4)
    f4.elements()
    d4 = roots.build_root_system("D", 4)
    d4.elements()
    golden = load_golden()
    rng = _rng("weyl", seed, pass_index)
    picks = draw(rng, golden["d4_classify"], 60, 1)
    spaces: dict = {}
    d4_inputs = []
    for m_text, word, _, d in picks:
        if m_text not in spaces:
            spaces[m_text] = roots.validate_hessenberg_space(d4, d4.parse_root_list(m_text))
        d4_inputs.append((spaces[m_text], element_from_word(d4, word), d))
    return _weyl_ops(rng, f4, d4_inputs), {}


# -- export -------------------------------------------------------------------


def perm_text(u) -> str:
    return "".join(str(x) for x in u)


def cohomology_result(h: str, w: str):
    from hessgkm import cohomology, graphs

    hh = tuple(int(x) for x in h.split(","))
    ww = tuple(int(x) for x in w)
    cls = cohomology.localized_class_candidate(hh, ww)
    ok, bad = cohomology.check_compatibility(graphs.build_hessenberg_graph(hh), cls)
    return cls, ok, len(bad)


def cohomology_digest(out) -> str:
    cls, ok, bad = out
    table = [[perm_text(u), sorted([list(m), c] for m, c in cls[u].items())] for u in sorted(cls)]
    return digest(json.dumps(table), ok, bad)


def graph_argv(h: str, w: str | None, fmt: str) -> list[str]:
    argv = ["graph", "--h", h, "--format", fmt]
    return argv if w is None else argv + ["--w", w]


def export(seed: int, pass_index: int):
    """betti for all 429 rank-7 h; 3 full rank-6 graphs and 9 rank-7 interval
    graphs, each as DOT and JSON; 8 localized classes checked on the full
    rank-6 graph.  The interval graphs are 8 stratified picks plus the
    pool's graph with the most edges, so that every pass exports a graph
    of the biggest size and peak memory does not hinge on the draw."""
    golden = load_golden()
    rng = _rng("export", seed, pass_index)
    ops = [("betti", partial(cli_output, ["betti", "--h", h, "--json"]), _matches(d)) for h, d in golden["betti_rank7"]]
    for h, _, dot, js in draw(rng, golden["full_graph_rank6"], 3, 1):
        ops.append(("graph-full", partial(cli_output, graph_argv(h, None, "dot")), _matches(dot)))
        ops.append(("graph-full", partial(cli_output, graph_argv(h, None, "json")), _matches(js)))
    intervals = golden["interval_graph_rank7"]
    for h, w, _, dot, js in draw(rng, intervals[:-1], 8, 1) + intervals[-1:]:
        ops.append(("graph-interval", partial(cli_output, graph_argv(h, w, "dot")), _matches(dot)))
        ops.append(("graph-interval", partial(cli_output, graph_argv(h, w, "json")), _matches(js)))
    for h, w, _, d in draw(rng, golden["cohomology_rank6"], 8, 1):
        ops.append(("cohomology", partial(cohomology_result, h, w), lambda out, d=d: cohomology_digest(out) == d))
    rng.shuffle(ops)
    return ops, {}


WORKLOADS = {"classify": classify, "sweep": sweep, "weyl": weyl, "export": export}
