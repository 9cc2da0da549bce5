"""Command-line front end.

Verbs: classify, enumerate-admissible, graph, betti, patterns, roots,
verify.  JSON output is available everywhere (--json, or --format json for
the graph verb).  Exit codes: 0 success, 1 for verify runs with violations,
2 for usage errors.  All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cohomology, graphs, patterns, roots, verify
from .classify import classify as run_classify, format_report
from .hess import (
    enumerate_admissible,
    format_hessenberg,
    is_admissible,
    parse_hessenberg,
)
from .perms import format_permutation, parse_permutation


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


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
    text = graphs.to_json(g) if args.format == "json" else graphs.to_dot(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
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
    if args.json:
        _emit_json(
            {
                "h": list(h),
                "w": format_permutation(w),
                "admissible": admissible,
                "witnesses": [
                    {"pattern": f"h-{pid}", "indices": list(wit)} for pid, wit in witnesses
                ],
                "avoids_all": not witnesses if admissible else None,
            }
        )
        return 0
    print(f"h: {format_hessenberg(h)}")
    print(f"w: {format_permutation(w)}")
    print(f"admissible: {'yes' if admissible else 'no'}")
    found = dict(witnesses)
    for pid in patterns.PATTERN_IDS:
        if pid in found:
            print(f"h-{pid}: witness " + ",".join(str(i) for i in found[pid]))
        else:
            print(f"h-{pid}: avoided")
    if admissible:
        print(f"avoids all: {'yes' if not witnesses else 'no'}")
    else:
        print("avoids all: n/a (regularity criterion requires an admissible w)")
    return 0


def _cmd_roots(args) -> int:
    rs = roots.build_root_system(args.type, args.rank)
    m = rs.parse_root_list(args.m) if args.m else frozenset(rs.positive_roots)
    hs = roots.validate_hessenberg_space(rs, m)
    m_sorted = sorted(m, key=lambda c: rs._pos_index[c])
    want_tables = args.tables or args.json
    one_line = rs.one_line_map() if rs.type_label == "A" and rs.rank + 1 <= 9 else None

    def label(w) -> str:
        word = rs.format_element(w)
        if one_line is not None:
            return f"{format_permutation(one_line[w])} = {word}"
        return word

    class_rows = []
    non_weyl = None
    elements = []
    if want_tables:
        elements = sorted(rs.elements(), key=rs.sort_key)
        classes = roots.partition_classes(hs)
        subsets = roots.weyl_type_subsets(hs)
        for s in subsets:
            z, w_top = roots.z_and_w(hs, s)
            class_rows.append((s, classes[s], z, w_top))
        if len(m_sorted) <= 16:
            weyl = {rs.mask_of(s) for s in subsets}
            masks = [x for x in roots.submasks(rs.mask_of(m)) if x not in weyl]
            non_weyl = [rs.roots_of_mask(x) for x in sorted(masks, key=roots.mask_order_key)]

    if args.json:
        payload = {
            "type": rs.type_label,
            "rank": rs.rank,
            "weyl_order": rs.order,
            "positive_roots": [rs.format_root(c) for c in rs.positive_roots],
            "m": [rs.format_root(c) for c in m_sorted],
            "n_table": [
                {
                    "element": label(w),
                    "inversions": [
                        rs.format_root(c)
                        for c in sorted(rs.inversion_set(w), key=lambda c: rs._pos_index[c])
                    ],
                    "inversions_in_m": [
                        rs.format_root(c)
                        for c in sorted(rs.inversion_set(w) & m, key=lambda c: rs._pos_index[c])
                    ],
                }
                for w in elements
            ],
            "classes": [
                {
                    "subset": [rs.format_root(c) for c in sorted(s, key=lambda c: rs._pos_index[c])],
                    "elements": [label(x) for x in cls],
                    "z": label(z),
                    "w": label(w_top),
                }
                for s, cls, z, w_top in class_rows
            ],
            "non_weyl_subsets": (
                None
                if non_weyl is None
                else [
                    [rs.format_root(c) for c in sorted(s, key=lambda c: rs._pos_index[c])]
                    for s in non_weyl
                ]
            ),
        }
        _emit_json(payload)
        return 0

    print(f"type: {rs.type_label}{rs.rank}")
    print(f"|W|: {rs.order}")
    print("positive roots: " + ", ".join(rs.format_root(c) for c in rs.positive_roots))
    print("M: " + rs.format_root_set(m))
    if args.tables:
        print()
        print("N(w) table")
        rows = [
            (label(w), rs.format_root_set(rs.inversion_set(w)), rs.format_root_set(rs.inversion_set(w) & m))
            for w in elements
        ]
        _print_table(("w", "N(w)", "N(w) & M"), rows)
        print()
        print("Weyl-type classes")
        rows = [
            (
                rs.format_root_set(s),
                ", ".join(label(x) for x in cls),
                label(z),
                label(w_top),
            )
            for s, cls, z, w_top in class_rows
        ]
        _print_table(("S", "class", "z_S", "w_S"), rows)
        if non_weyl is not None:
            print()
            if non_weyl:
                print(
                    "subsets of M not of Weyl type: "
                    + ", ".join(rs.format_root_set(s) for s in non_weyl)
                )
            else:
                print("every subset of M is of Weyl type")
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


def build_parser() -> argparse.ArgumentParser:
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
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
