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
  these translate back along u.  From an admissible w~ the up-steps reach
  all of [w~, w0], degrees never drop along them (the edge maps of Thm
  1.2's proof are injective) and deg(w~) is the cell dimension, so the
  sandwich is the set of full-degree vertices.  The one-reflection
  neighborhood of w (all fixed points w t, t a transposition) is NOT
  certified here: it over-certifies, e.g. at full h and w = 1324 the
  neighbor 4321 = w(1,4) is singular (pinned in the test suite, with the
  interval graphs whose degree jumps one cover above the minimum, where
  the point provably lies on two components), so the verdict keeps to
  the degree argument.

Each claim carries a citation tag, a stable identifier for the criterion
that fired; the tags are part of the JSON report format.

One check of the pair, :func:`hessgkm.hess.check_pair`, precedes unchecked
cores.  The graph facts come from one :func:`hessgkm.graphs.interval_move_graph`
kernel per interval (of w, and of w~ when it differs), with no edge objects
built; the fixed points u . [w~, w0] are w~'s kernel vertices, translated.
Both kernels are read only through their masks: degrees, the first
violator, connectivity as one sink (:meth:`hessgkm.graphs.MoveGraph.sinks`)
and w~'s full-degree vertices, the smooth set, whose walked oracle is
:func:`hessgkm.verify.oracle_smooth_fixed_points`.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import _type_a_move_graph
from .hess import (
    HessFunc,
    _ascend,
    _cell_dimension,
    _fixed_point_set,
    _h_length,
    check_pair,
    format_hessenberg,
    hessenberg_connected,
    window_mask,
)
from .patterns import Witness, _ordered_witnesses
from .perms import (
    Perm,
    bruhat_interval_lex,
    format_permutation,
    left_multiply,
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


class GraphStats(NamedTuple):
    connected: bool
    regular: bool
    min_degree: int
    max_degree: int
    violating_vertex: Perm | None


class ClassificationReport(NamedTuple):
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


def classify(w: Perm, h) -> ClassificationReport:
    w, h = check_pair(w, h)
    wt, u = _ascend(w, h)
    # The ascent swaps only where is_admissible fails.
    adm = wt == w
    # Scanned first: its quadruple check stops n > 36 before any interval,
    # kernel or pair table is built.
    witnesses = tuple(_ordered_witnesses(wt, h))
    lh = _h_length(w, h)
    # w~ keeps w's window order, so both have this cell dimension.
    dim = _cell_dimension(w, h)
    graph = _type_a_move_graph(w, window_mask(h))
    reg = graph.regularity(dim)
    conn = graph.sinks() == 1
    ambient = hessenberg_connected(h)
    degs = graph.degrees()
    stats = GraphStats(
        connected=conn,
        regular=reg.ok,
        min_degree=min(degs),
        max_degree=max(degs),
        violating_vertex=reg.violator,
    )

    citations = [CITE_REGULAR_EQUIV]
    smooth = "yes" if reg.ok else "no"

    if adm:
        irreducible = "yes" if (reg.ok and conn) else "unknown"
        reason = None
        if reg.ok and conn:
            citations.append(CITE_IRREDUCIBLE)
    else:
        irreducible = "no"
        citations += [CITE_REPRESENTATIVE, CITE_FIXED_POINTS]
        reason = "fixed points of the cell closure form a proper subset of the interval"
        if ambient:
            citations.append(CITE_REDUCIBLE_REMARK)
    if conn and (adm or ambient):
        citations.append(CITE_CONNECTED)

    equals_closure = "yes" if (reg.ok and conn) else "unknown"

    graph_t = graph if adm else _type_a_move_graph(wt, window_mask(h))
    degs_t = degs if adm else graph_t.degrees()
    # w~'s full-degree vertices, w~ among them (see the module docstring).
    local = [v for v, d in zip(graph_t.vertices, degs_t) if d == dim]
    rep_smooth = "yes" if len(local) == len(degs_t) else "unknown"
    if rep_smooth == "yes":
        citations.append(CITE_REP_SMOOTH)

    citations += [CITE_PATTERNS, CITE_DEGREE_SHORTCUT]

    if adm:
        fixed, pts = graph.vertices, local
    else:
        fixed, pts = sorted(left_multiply(u, graph_t.vertices)), sorted(left_multiply(u, local))

    return ClassificationReport(
        n=len(w),
        h=h,
        w=w,
        admissible=adm,
        representative=wt,
        translation=u,
        h_length=lh,
        cell_dimension=dim,
        interval_size=len(degs),
        fixed_points=tuple(fixed),
        graph_stats=stats,
        intersection_smooth=smooth,
        intersection_irreducible=irreducible,
        intersection_equals_closure=equals_closure,
        hess_schubert_smooth=rep_smooth,
        smooth_fixed_points=tuple(pts),
        reducible_reason=reason,
        pattern_witnesses=witnesses,
        citations=tuple(citations),
    )


def component_lower_bound(w: Perm, h) -> frozenset[Perm]:
    """A certified lower bound on the component generators of the
    intersection: w, plus every interval vertex that lies in no other
    vertex's cell-closure fixed set.  Never claimed complete."""
    w, h = check_pair(w, h)
    interval = bruhat_interval_lex(w)
    fixed_sets = {u: _fixed_point_set(u, h) for u in interval}
    bound = {w}
    for v in interval:
        if all(v not in fixed_sets[u] for u in interval if u != v):
            bound.add(v)
    return frozenset(bound)


def format_report(report: ClassificationReport) -> str:
    """Human-readable multi-line rendering of :meth:`ClassificationReport.to_json_dict`."""
    d = report.to_json_dict()
    stats, verdicts = d["graph_stats"], d["verdicts"]
    yes_no = {True: "yes", False: "no"}
    lines = [
        f"n: {d['n']}",
        f"h: {format_hessenberg(d['h'])}",
        f"w: {d['w']}",
        f"admissible: {yes_no[d['admissible']]}",
        f"representative: {d['representative']}",
        f"translation: {d['translation']}",
        f"h-length: {d['h_length']}",
        f"cell dimension: {d['cell_dimension']}",
        f"interval size: {d['interval_size']}",
        "fixed points: " + " ".join(d["fixed_points"]),
        "graph: connected={} regular={} min-degree={} max-degree={}{}".format(
            yes_no[stats["connected"]],
            yes_no[stats["regular"]],
            stats["min_degree"],
            stats["max_degree"],
            "" if stats["violating_vertex"] is None else f" first-violation={stats['violating_vertex']}",
        ),
        f"intersection smooth: {verdicts['intersection_smooth']}",
        "intersection irreducible: {}{}".format(
            verdicts["intersection_irreducible"],
            "" if verdicts["reducible_reason"] is None else f" ({verdicts['reducible_reason']})",
        ),
        f"intersection equals cell closure: {verdicts['intersection_equals_closure']}",
        f"hessenberg schubert smooth: {verdicts['hess_schubert_smooth']}",
        "smooth fixed points: " + " ".join(verdicts["smooth_fixed_points"]),
        "pattern witnesses ({}): {}".format(
            d["representative"],
            " ".join(f"{x['pattern']}@{','.join(map(str, x['indices']))}" for x in d["pattern_witnesses"])
            or "none",
        ),
        "citations: " + " ".join(d["citations"]),
    ]
    return "\n".join(lines) + "\n"
