"""Command-line front end.

Verbs: classify, enumerate-admissible, graph, betti, patterns, roots,
verify.  JSON output is available everywhere (--json, or --format json for
the graph verb).  Exit codes: 0 success, 1 for verify runs with violations,
2 for usage errors, requests past ``perms.SIZE_LIMIT`` and output that
cannot be written (an unwritable ``--out``).  All output is deterministic
for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import cohomology, graphs, jsontext, patterns, roots, verify
from .classify import classify as run_classify, format_report
from .hess import (
    enumerate_admissible,
    format_hessenberg,
    is_admissible,
    parse_hessenberg,
)
from .perms import SIZE_LIMIT, format_permutation, parse_permutation


# Characters per write of a document.  The text layer encodes each write
# into one bytes object, so one write would copy the whole document.
_WRITE_SLICE = 1 << 16


def _write(text: str, path: str | None = None) -> None:
    """Write text to the file at path, or to stdout, in slices."""
    slices = (text[k : k + _WRITE_SLICE] for k in range(0, len(text), _WRITE_SLICE))
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(slices)
    else:
        sys.stdout.writelines(slices)


def _emit_json(payload) -> None:
    _write(jsontext.document(payload))


def _cmd_classify(args) -> int:
    h = parse_hessenberg(args.h)
    w = parse_permutation(args.w)
    report = run_classify(w, h)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        print(format_report(report), end="")
    return 0


def _cmd_enumerate_admissible(args) -> int:
    h = parse_hessenberg(args.h)
    admissible = [format_permutation(w) for w in enumerate_admissible(h)]
    if args.json:
        _emit_json({"h": list(h), "admissible": admissible})
    else:
        for line in admissible:
            print(line)
    return 0


def _cmd_graph(args) -> int:
    h = parse_hessenberg(args.h)
    if args.w is None:
        g = graphs.build_hessenberg_graph(h)
    else:
        g = graphs.interval_graph(h, parse_permutation(args.w))
    _write(graphs.to_json(g) if args.format == "json" else graphs.to_dot(g), args.out)
    return 0


def _cmd_betti(args) -> int:
    h = parse_hessenberg(args.h)
    coeffs = cohomology.poincare_polynomial(h)
    if args.json:
        _emit_json({"h": list(h), "coefficients": list(coeffs)})
    else:
        print(f"h: {format_hessenberg(h)}")
        print("coefficients: " + " ".join(str(c) for c in coeffs))
    return 0


def _cmd_patterns(args) -> int:
    h = parse_hessenberg(args.h)
    w = parse_permutation(args.w)
    admissible = is_admissible(w, h)
    witnesses = patterns.pattern_witnesses(w, h)
    payload = {
        "h": list(h),
        "w": format_permutation(w),
        "admissible": admissible,
        "witnesses": [{"pattern": f"h-{pid}", "indices": list(wit)} for pid, wit in witnesses],
        "avoids_all": not witnesses if admissible else None,
    }
    if args.json:
        _emit_json(payload)
        return 0
    yes_no = {True: "yes", False: "no", None: "n/a (regularity criterion requires an admissible w)"}
    print(f"h: {format_hessenberg(payload['h'])}")
    print(f"w: {payload['w']}")
    print(f"admissible: {yes_no[admissible]}")
    found = {x["pattern"]: x["indices"] for x in payload["witnesses"]}
    for key in (f"h-{pid}" for pid in patterns.PATTERN_IDS):
        print(f"{key}: witness {','.join(map(str, found[key]))}" if key in found else f"{key}: avoided")
    print(f"avoids all: {yes_no[payload['avoids_all']]}")
    return 0


def _root_set(labels: list[str]) -> str:
    return "{" + ", ".join(labels) + "}"


def _cmd_roots(args) -> int:
    rs = roots.build_root_system(args.type, args.rank)
    m = rs.parse_root_list(args.m) if args.m is not None else frozenset(rs.positive_roots)
    hs = roots.validate_hessenberg_space(rs, m)
    one_line = rs.one_line_map() if rs.type_label == "A" and rs.rank + 1 <= 9 else None

    def label(w) -> str:
        word = rs.format_element(w)
        if one_line is not None:
            return f"{format_permutation(one_line[w])} = {word}"
        return word

    payload = {
        "type": rs.type_label,
        "rank": rs.rank,
        "weyl_order": rs.order,
        "positive_roots": rs.format_roots(rs.positive_roots),
        "m": rs.format_roots(m),
    }
    if args.tables or args.json:
        classes = roots.partition_classes(hs)
        subsets = roots.weyl_type_subsets(hs)
        payload["n_table"] = [
            {
                "element": label(w),
                "inversions": rs.format_roots(inv),
                "inversions_in_m": rs.format_roots(inv & m),
            }
            for w in rs.elements()
            for inv in [rs.inversion_set(w)]
        ]
        payload["classes"] = []
        for s in subsets:
            z, w_top = roots.z_and_w(hs, s)
            elements = [label(x) for x in classes[s]]
            payload["classes"].append(
                {"subset": rs.format_roots(s), "elements": elements, "z": label(z), "w": label(w_top)}
            )
        payload["non_weyl_subsets"] = None
        if 1 << len(m) <= SIZE_LIMIT:
            weyl = {rs.mask_of(s) for s in subsets}
            masks = sorted((x for x in roots.submasks(rs.mask_of(m)) if x not in weyl), key=roots.mask_order_key)
            payload["non_weyl_subsets"] = [rs.format_roots(rs.roots_of_mask(x)) for x in masks]

    if args.json:
        _emit_json(payload)
        return 0

    print(f"type: {payload['type']}{payload['rank']}")
    print(f"|W|: {payload['weyl_order']}")
    print("positive roots: " + ", ".join(payload["positive_roots"]))
    print("M: " + _root_set(payload["m"]))
    if not args.tables:
        return 0
    print("\nN(w) table")
    rows = [
        (r["element"], _root_set(r["inversions"]), _root_set(r["inversions_in_m"])) for r in payload["n_table"]
    ]
    _print_table(("w", "N(w)", "N(w) & M"), rows)
    print("\nWeyl-type classes")
    rows = [(_root_set(c["subset"]), ", ".join(c["elements"]), c["z"], c["w"]) for c in payload["classes"]]
    _print_table(("S", "class", "z_S", "w_S"), rows)
    non_weyl = payload["non_weyl_subsets"]
    if non_weyl:
        print("\nsubsets of M not of Weyl type: " + ", ".join(map(_root_set, non_weyl)))
    elif non_weyl is not None:
        print("\nevery subset of M is of Weyl type")
    return 0


def _print_table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> None:
    widths = [len(x) for x in header]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)).rstrip()
    print(fmt(header))
    print(fmt(tuple("-" * w for w in widths)))
    for row in rows:
        print(fmt(row))


def _cmd_verify(args) -> int:
    if args.suite == "all":
        results = verify.sweep_all(args.n_max, args.budget_seconds)
    else:
        results = [verify.sweep(args.suite, args.n_max, args.budget_seconds)]
    if args.json:
        _emit_json([r.to_json_dict() for r in results])
    else:
        for r in results:
            status = "OK" if r.ok else f"FAIL ({len(r.violations)} violations)"
            partial = "" if r.complete else f" [partial: {r.note}]"
            print(f"{r.suite}: {status} cases={r.cases} elapsed={r.elapsed:.2f}s{partial}")
            _print_violation_groups(r.violations)
    return 0 if all(r.ok for r in results) else 1


# Text mode shows this many violations per check; --json lists them all.
_VIOLATION_EXAMPLES = 3


def _print_violation_groups(violations: list[dict]) -> None:
    """One line per check: its violation count and the first few details."""
    groups: dict[str, list[dict]] = {}
    for v in violations:
        groups.setdefault(v["check"], []).append(v)
    for check, group in groups.items():
        shown = group[:_VIOLATION_EXAMPLES]
        examples = " | ".join(
            " ".join(f"{key}={v[key]}" for key in ("h", "w") if key in v) + f": {v['detail']}"
            for v in shown
        )
        print(f"  {check}: {len(group)} violations, first {len(shown)}: {examples}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` returns a
    fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="hessgkm",
        description="Smoothness and irreducibility verdicts from moment-graph combinatorics.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="full verdict report for (w, h)")
    p.add_argument("--h", required=True, help="Hessenberg function, e.g. 3,3,4,4")
    p.add_argument("--w", required=True, help="permutation in one-line notation, e.g. 3214")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate-admissible", help="all admissible permutations for h")
    p.add_argument("--h", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate_admissible)

    p = sub.add_parser("graph", help="full or interval moment graph")
    p.add_argument("--h", required=True)
    p.add_argument("--w", default=None)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("betti", help="Betti numbers from the cell dimensions")
    p.add_argument("--h", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("patterns", help="decorated pattern containment report")
    p.add_argument("--h", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("roots", help="root system, inversion, and class tables")
    p.add_argument("--type", required=True, help="A, B, C, D, G, or F")
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--m", default=None, help='subset of positive roots, e.g. "a1,a2,a1+a2"')
    p.add_argument("--tables", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("verify", help="exhaustive theorem sweeps")
    p.add_argument("--suite", default="all", choices=("all",) + verify.SUITE_NAMES)
    p.add_argument("--n-max", dest="n_max", type=int, default=5)
    p.add_argument("--budget-seconds", dest="budget_seconds", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
