"""Verdicts on smoothness, irreducibility, and connectivity for a pair (w, h).

The verdict logic applies only the implications the graph criteria license;
"unknown" is a first-class answer and nothing is extrapolated past it.

* The intersection of the Schubert variety with the ambient Hessenberg
  space is smooth iff its interval graph is regular -- an equivalence, so
  this verdict is never unknown.
* It is irreducible when the graph is regular and connected, and reducible
  whenever w is not admissible (the fixed points of the cell closure are
  then a proper subset of the interval); otherwise unknown.
* The cell closure itself is smooth when the interval graph of the
  admissible representative w~ is regular; the converse fails, so a
  non-regular representative graph yields "unknown", not "no".
* Smooth fixed points of the cell closure are certified by local degree
  equality: on the representative side, every vertex sandwiched in the
  h-order between w~ and a vertex whose degree equals the cell dimension
  is a smooth point of the intersection, hence of the cell closure, and
  these translate back along u.  The one-reflection neighborhood of w
  (see :func:`smooth_points_theorem`) is NOT certified here: interval
  graphs exist whose degree jumps one cover above the minimum, where the
  point provably lies on two components (counterexamples are frozen in
  the test suite), so the verdict keeps to the degree argument.

Each claim carries a citation tag, a stable identifier for the criterion
that fired; the tags are part of the JSON report format.

The graph facts come from one :func:`hessgkm.graphs.interval_summary` per
interval (of w, and of w~ when it differs): degrees, the first violator,
connectivity and the h-Bruhat steps, with no edge objects built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import WindowSummary, interval_summary, reach
from .hess import (
    HessFunc,
    admissible_representative,
    cell_dimension,
    complexity_dimension,
    h_length,
    hess_schubert_fixed_points,
    hessenberg_connected,
    is_admissible,
    validate_hessenberg,
)
from .patterns import Witness, pattern_witnesses
from .perms import (
    Perm,
    apply_transposition,
    bruhat_interval,
    compose,
    format_permutation,
    transpositions,
)

# Citation tags carried by report verdicts.
CITE_REGULAR_EQUIV = "Thm1.2"
CITE_REPRESENTATIVE = "Prop2.4"
CITE_FIXED_POINTS = "Prop2.5"
CITE_IRREDUCIBLE = "Prop3.6"
CITE_CONNECTED = "Prop4.1"
CITE_REDUCIBLE_REMARK = "Rmk4.1(2)"
CITE_DEGREE_SHORTCUT = "Cor4.3"
CITE_PATTERNS = "Thm4.5"
CITE_REP_SMOOTH = "Thm1.3(1)"


@dataclass(frozen=True)
class GraphStats:
    connected: bool
    regular: bool
    min_degree: int
    max_degree: int
    violating_vertex: Perm | None


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    h: HessFunc
    w: Perm
    admissible: bool
    representative: Perm
    translation: Perm
    h_length: int
    cell_dimension: int
    interval_size: int
    fixed_points: tuple[Perm, ...]
    graph_stats: GraphStats
    intersection_smooth: str
    intersection_irreducible: str
    intersection_equals_closure: str
    hess_schubert_smooth: str
    smooth_fixed_points: tuple[Perm, ...]
    reducible_reason: str | None
    pattern_witnesses: tuple[tuple[str, Witness], ...]
    citations: tuple[str, ...]

    def to_json_dict(self) -> dict:
        fmt = format_permutation
        return {
            "n": self.n,
            "h": list(self.h),
            "w": fmt(self.w),
            "admissible": self.admissible,
            "representative": fmt(self.representative),
            "translation": fmt(self.translation),
            "h_length": self.h_length,
            "cell_dimension": self.cell_dimension,
            "interval_size": self.interval_size,
            "fixed_points": [fmt(x) for x in self.fixed_points],
            "graph_stats": {
                "connected": self.graph_stats.connected,
                "regular": self.graph_stats.regular,
                "min_degree": self.graph_stats.min_degree,
                "max_degree": self.graph_stats.max_degree,
                "violating_vertex": (
                    fmt(self.graph_stats.violating_vertex)
                    if self.graph_stats.violating_vertex is not None
                    else None
                ),
            },
            "verdicts": {
                "intersection_smooth": self.intersection_smooth,
                "intersection_irreducible": self.intersection_irreducible,
                "intersection_equals_closure": self.intersection_equals_closure,
                "hess_schubert_smooth": self.hess_schubert_smooth,
                "smooth_fixed_points": [fmt(x) for x in self.smooth_fixed_points],
                "reducible_reason": self.reducible_reason,
            },
            "pattern_witnesses": [
                {"pattern": f"h-{pid}", "indices": list(wit)}
                for pid, wit in self.pattern_witnesses
            ],
            "citations": list(self.citations),
        }


def _local_degree_smooth_set(s: WindowSummary, wt: Perm, h: HessFunc) -> set[Perm]:
    """Vertices of [w~, w0] certified smooth by degree equality along an
    h-Bruhat sandwich w~ <=_h v <=_h u with deg(u) equal to the cell
    dimension; ``s`` summarizes the interval graph of the representative w~."""
    target = cell_dimension(wt, h)
    good = {u for u, d in s.degrees.items() if d == target}
    # The up-steps are exactly the h-Bruhat steps inside the interval.
    return reach((wt,), s.up) & reach(good, s.down)


def smooth_points_theorem(w: Perm, h) -> frozenset[Perm]:
    """The one-reflection neighborhood of w inside the cell-closure fixed
    set: all z = w t (t a transposition) that are fixed points, plus w.

    This is the literal reflection rule; it over-certifies in general
    (a cover above w can lie on two components, e.g. full flag at rank 4,
    w = 1324, z = 4321), so the smooth list reported by :func:`classify`
    uses the local degree criterion instead."""
    h = validate_hessenberg(h)
    fixed = hess_schubert_fixed_points(w, h)
    pts = {w}
    for a, b in transpositions(len(w)):
        z = apply_transposition(w, a, b)
        if z in fixed:
            pts.add(z)
    return frozenset(pts)


def classify(w: Perm, h) -> ClassificationReport:
    h = validate_hessenberg(h)
    if len(w) != len(h):
        raise ValueError(f"rank mismatch: |w| = {len(w)}, |h| = {len(h)}")
    n = len(w)
    adm = is_admissible(w, h)
    wt, u = admissible_representative(w, h)
    lh = h_length(w, h)
    dim = complexity_dimension(h) - lh
    summary = interval_summary(h, w)
    reg = summary.regularity(dim)
    conn = summary.connected
    degs = summary.degrees
    stats = GraphStats(
        connected=conn,
        regular=reg.ok,
        min_degree=min(degs.values()),
        max_degree=max(degs.values()),
        violating_vertex=reg.violator,
    )
    fixed = hess_schubert_fixed_points(w, h)

    citations = [CITE_REGULAR_EQUIV]
    if wt != w:
        citations.append(CITE_REPRESENTATIVE)
    smooth = "yes" if reg.ok else "no"

    if adm:
        irreducible = "yes" if (reg.ok and conn) else "unknown"
        reason = None
        if reg.ok and conn:
            citations.append(CITE_IRREDUCIBLE)
    else:
        irreducible = "no"
        citations.append(CITE_FIXED_POINTS)
        reason = "fixed points of the cell closure form a proper subset of the interval"
        if hessenberg_connected(h):
            citations.append(CITE_REDUCIBLE_REMARK)
    if conn and (adm or hessenberg_connected(h)):
        citations.append(CITE_CONNECTED)

    equals_closure = "yes" if (reg.ok and conn) else "unknown"

    if wt == w:
        summary_t, reg_t = summary, reg
    else:
        summary_t = interval_summary(h, wt)
        reg_t = summary_t.regularity(cell_dimension(wt, h))
    rep_smooth = "yes" if reg_t.ok else "unknown"
    if reg_t.ok:
        citations.append(CITE_REP_SMOOTH)

    witnesses = tuple(pattern_witnesses(wt, h))
    citations.append(CITE_PATTERNS)

    # w~ itself always qualifies (its degree is the cell dimension), so the
    # translated set always contains w.
    local = _local_degree_smooth_set(summary_t, wt, h)
    citations.append(CITE_DEGREE_SHORTCUT)
    pts = {compose(u, v) for v in local}

    seen: set[str] = set()
    ordered = tuple(c for c in citations if not (c in seen or seen.add(c)))

    return ClassificationReport(
        n=n,
        h=h,
        w=w,
        admissible=adm,
        representative=wt,
        translation=u,
        h_length=lh,
        cell_dimension=dim,
        interval_size=len(degs),
        fixed_points=tuple(sorted(fixed)),
        graph_stats=stats,
        intersection_smooth=smooth,
        intersection_irreducible=irreducible,
        intersection_equals_closure=equals_closure,
        hess_schubert_smooth=rep_smooth,
        smooth_fixed_points=tuple(sorted(pts)),
        reducible_reason=reason,
        pattern_witnesses=witnesses,
        citations=ordered,
    )


def component_lower_bound(w: Perm, h) -> frozenset[Perm]:
    """A certified lower bound on the component generators of the
    intersection: w, plus every interval vertex that lies in no other
    vertex's cell-closure fixed set.  Never claimed complete."""
    h = validate_hessenberg(h)
    if len(w) != len(h):
        raise ValueError(f"rank mismatch: |w| = {len(w)}, |h| = {len(h)}")
    interval = sorted(bruhat_interval(w))
    fixed_sets = {u: hess_schubert_fixed_points(u, h) for u in interval}
    bound = {w}
    for v in interval:
        if all(v not in fixed_sets[u] for u in interval if u != v):
            bound.add(v)
    return frozenset(bound)


def format_report(report: ClassificationReport) -> str:
    """Human-readable multi-line rendering with deterministic ordering."""
    fmt = format_permutation
    stats = report.graph_stats
    lines = [
        f"n: {report.n}",
        "h: " + ",".join(str(x) for x in report.h),
        f"w: {fmt(report.w)}",
        f"admissible: {'yes' if report.admissible else 'no'}",
        f"representative: {fmt(report.representative)}",
        f"translation: {fmt(report.translation)}",
        f"h-length: {report.h_length}",
        f"cell dimension: {report.cell_dimension}",
        f"interval size: {report.interval_size}",
        "fixed points: " + " ".join(fmt(x) for x in report.fixed_points),
        "graph: connected={} regular={} min-degree={} max-degree={}{}".format(
            "yes" if stats.connected else "no",
            "yes" if stats.regular else "no",
            stats.min_degree,
            stats.max_degree,
            "" if stats.violating_vertex is None else f" first-violation={fmt(stats.violating_vertex)}",
        ),
        f"intersection smooth: {report.intersection_smooth}",
        "intersection irreducible: {}{}".format(
            report.intersection_irreducible,
            "" if report.reducible_reason is None else f" ({report.reducible_reason})",
        ),
        f"intersection equals cell closure: {report.intersection_equals_closure}",
        f"hessenberg schubert smooth: {report.hess_schubert_smooth}",
        "smooth fixed points: " + " ".join(fmt(x) for x in report.smooth_fixed_points),
        "pattern witnesses ({}): {}".format(
            fmt(report.representative),
            " ".join(f"h-{pid}@{','.join(str(i) for i in wit)}" for pid, wit in report.pattern_witnesses)
            or "none",
        ),
        "citations: " + " ".join(report.citations),
    ]
    return "\n".join(lines) + "\n"
