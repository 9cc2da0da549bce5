"""Record golden.json: the input pools the workloads sample from, each input
with a cost proxy (the pools are stored sorted by it) and the digest of its
output.

The digests are the benchmark's reference outputs, so record them only at a
commit whose outputs are trusted.  From the repository root:

    python3 hessbench/record_golden.py

The pools are drawn from a fixed seed, so the file is reproducible.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402
from hessgkm import graphs, hess, perms, roots, verify  # noqa: E402

RNG_SEED = "hessbench-golden-1"


def htext(h) -> str:
    return ",".join(str(x) for x in h)


def random_perm(rng: random.Random, n: int):
    return tuple(rng.sample(range(1, n + 1), n))


def distinct_pairs(rng, make, count: int) -> list:
    out: dict = {}
    while len(out) < count:
        pair = make(rng)
        out.setdefault(pair, None)
    return list(out)


def classify_pool(pairs) -> list:
    pool = []
    for h, w in pairs:
        rc, text = wl.cli_output(wl.classify_argv(htext(h), wl.perm_text(w)))
        if rc != 0:
            raise RuntimeError(f"classify failed on h={h} w={w}")
        pool.append([htext(h), wl.perm_text(w), json.loads(text)["interval_size"], wl.digest(rc, text)])
    return sorted(pool, key=lambda e: (e[2], e[0], e[1]))


def graph_digests(h: str, w: str | None) -> tuple[str, str]:
    out = []
    for fmt in ("dot", "json"):
        rc, text = wl.cli_output(wl.graph_argv(h, w, fmt))
        if rc != 0:
            raise RuntimeError(f"graph failed on h={h} w={w}")
        out.append(wl.digest(rc, text))
    return out[0], out[1]


def main() -> None:
    rng = random.Random(RNG_SEED)
    h7, h8, h6 = (verify.hessenberg_functions(n) for n in (7, 8, 6))
    golden: dict = {}

    golden["classify_rank7"] = classify_pool(
        distinct_pairs(rng, lambda r: (r.choice(h7), random_perm(r, 7)), 600)
    )

    def long_rank8(r):
        while True:
            w = random_perm(r, 8)
            if perms.length(w) >= 20:
                return r.choice(h8), w

    golden["classify_rank8"] = classify_pool(distinct_pairs(rng, long_rank8, 200))

    golden["betti_rank7"] = [
        [htext(h), wl.digest(*wl.cli_output(["betti", "--h", htext(h), "--json"]))] for h in h7
    ]

    golden["full_graph_rank6"] = sorted(
        ([htext(h), hess.complexity_dimension(h), *graph_digests(htext(h), None)] for h in h6),
        key=lambda e: (e[1], e[0]),
    )

    # Interval graphs are ranked by edge count, which sets their export
    # cost and memory.
    pool = []
    for h, w in distinct_pairs(rng, lambda r: (r.choice(h7), random_perm(r, 7)), 300):
        edges = len(graphs.interval_graph(h, w).edges)
        pool.append([htext(h), wl.perm_text(w), edges, *graph_digests(htext(h), wl.perm_text(w))])
    golden["interval_graph_rank7"] = sorted(pool, key=lambda e: (e[2], e[0], e[1]))

    def regular_admissible(r):
        while True:
            h = r.choice(h6)
            w = r.choice(hess.enumerate_admissible(h))
            if graphs.is_regular(graphs.interval_graph(h, w), hess.cell_dimension(w, h)).ok:
                return h, w

    pool = []
    for h, w in distinct_pairs(rng, regular_admissible, 240):
        out = wl.cohomology_result(htext(h), wl.perm_text(w))
        pool.append([htext(h), wl.perm_text(w), len(perms.bruhat_interval(w)), wl.cohomology_digest(out)])
    golden["cohomology_rank6"] = sorted(pool, key=lambda e: (e[2], e[0], e[1]))

    d4 = roots.build_root_system("D", 4)
    spaces = roots.enumerate_hessenberg_spaces(d4)
    elements = d4.elements()
    pool = []
    for m, w in distinct_pairs(rng, lambda r: (r.choice(spaces), r.choice(elements)), 300):
        m_text = ",".join(d4.format_root(c) for c in sorted(m, key=d4.positive_roots.index))
        word = wl.word_of(d4, w)
        if wl.element_from_word(d4, word) != w:
            raise RuntimeError(f"word {word} does not rebuild its element")
        report = wl.d4_report(roots.validate_hessenberg_space(d4, d4.parse_root_list(m_text)), w)
        pool.append([m_text, word, report["interval_size"], wl.d4_digest(report)])
    golden["d4_classify"] = sorted(pool, key=lambda e: (e[2], e[0], e[1]))

    with open(wl.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
