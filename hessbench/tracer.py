"""Benchmark-side spans around hessgkm's public functions.

`Tracer.install` replaces each target function with a timing wrapper under
every name the hessgkm modules bind it to (``from .hess import
admissible_representative`` in ``graphs`` is one such name), so calls made
between library modules are traced as well as calls from the benchmark.
The library itself is not modified on disk.

A span records (name, start, end, parent index, op index).  A span's self
time is its duration minus the time covered by its child spans.  Spans stay
in memory until the pass ends and `Tracer.dump` writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


def _graph_size(tracer, name, args, out, hit) -> None:
    tracer.counts[f"{name}.vertices"] += len(out.vertices)
    tracer.counts[f"{name}.edges_built"] += len(out.edges)


def _interval_vertices(tracer, name, args, out, hit) -> None:
    if not hit:
        tracer.counts[f"{name}.vertices"] += len(out)


def _edges_checked(tracer, name, args, out, hit) -> None:
    tracer.counts["cohomology.edges_checked"] += len(args[0].edges)


def _weyl_subsets_found(tracer, name, args, out, hit) -> None:
    # The result is memoized on the space, so count each space once; the
    # spaces are kept alive here so that their ids stay unique.
    hs = args[0]
    if id(hs) not in tracer.seen_spaces:
        tracer.seen_spaces[id(hs)] = hs
        tracer.counts["roots.weyl_subsets_found"] += len(out)


# (module, function, span name, observer).  Functions sharing a span name
# are one layer metric.
SPANS = (
    ("hessgkm.perms", "bruhat_interval", "perms.bruhat_interval", _interval_vertices),
    ("hessgkm.hess", "admissible_representative", "hess.admissible_representative", None),
    ("hessgkm.hess", "hess_schubert_fixed_points", "hess.fixed_points", None),
    ("hessgkm.graphs", "interval_graph", "graphs.interval_graph", _graph_size),
    ("hessgkm.graphs", "build_hessenberg_graph", "graphs.full_graph", _graph_size),
    ("hessgkm.graphs", "is_regular", "graphs.degree_checks", None),
    ("hessgkm.graphs", "is_connected", "graphs.degree_checks", None),
    ("hessgkm.graphs", "to_dot", "graphs.export", None),
    ("hessgkm.graphs", "to_json", "graphs.export", None),
    ("hessgkm.patterns", "pattern_witnesses", "patterns.pattern_witnesses", None),
    ("hessgkm.classify", "classify", "classify.classify", None),
    ("hessgkm.cohomology", "localized_class_candidate", "cohomology.localized_class_candidate", None),
    ("hessgkm.cohomology", "check_compatibility", "cohomology.check_compatibility", _edges_checked),
    ("hessgkm.cohomology", "poincare_polynomial", "cohomology.poincare_polynomial", None),
    ("hessgkm.roots", "enumerate_hessenberg_spaces", "roots.enumerate_hessenberg_spaces", None),
    ("hessgkm.roots", "partition_classes", "roots.partition_classes", None),
    ("hessgkm.roots", "weyl_type_subsets", "roots.weyl_type_subsets", _weyl_subsets_found),
    ("hessgkm.roots", "z_and_w", "roots.z_and_w", None),
    ("hessgkm.roots", "h_admissible_elements", "roots.h_admissible_elements", None),
    ("hessgkm.roots", "classify_arbitrary", "roots.classify_arbitrary", None),
    ("hessgkm.cli", "main", "cli.main", None),
)

# (module, function, counter, span): calls counted without a span.  The
# candidates a representative search scans are the is_admissible calls it
# makes itself.
COUNTERS = (
    ("hessgkm.hess", "is_admissible", "hess.admissible_representative.candidates_scanned",
     "hess.admissible_representative"),
    ("hessgkm.roots", "is_weyl_type", "roots.subsets_scanned", None),
)

# (module, class, method, span name): methods are wrapped on the class.
METHOD_SPANS = (("hessgkm.roots", "RootSystem", "elements", "roots.elements"),)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.open: list[list] = []  # [span index, child seconds, name] per open span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.seen_spaces: dict = {}
        self.op: int | None = None

    def span(self, name: str, fn, observe=None):
        perf = time.perf_counter
        spans, open_ = self.spans, self.open
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = open_[-1][0] if open_ else None
            spans.append(None)
            frame = [index, 0.0, name]
            open_.append(frame)
            misses = cache_info().misses if cache_info is not None else 0
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                open_.pop()
                duration = end - start
                if open_:
                    open_[-1][1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                spans[index] = (name, start, end, parent, self.op)
            hit = False
            if cache_info is not None:
                hit = cache_info().misses == misses
                self.counts[f"{name}.{'hits' if hit else 'misses'}"] += 1
            if observe is not None:
                observe(self, name, args, out, hit)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn, inside: str | None = None):
        """Count calls of fn, or only those made directly by span `inside`."""
        open_, counts = self.open, self.counts

        def wrapper(*args, **kwargs):
            if inside is None or (open_ and open_[-1][2] == inside):
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target under every name the hessgkm modules bind it to.
        Targets missing from the library are skipped and read as zero."""
        for module, attr, name, observe in SPANS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is not None:
                _rebind(original, self.span(name, original, observe))
        for module, attr, key, inside in COUNTERS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is not None:
                _rebind(original, self.counter(key, original, inside))
        for module, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            if cls is not None and hasattr(cls, attr):
                setattr(cls, attr, self.span(name, getattr(cls, attr)))

    def layer_metrics(self) -> dict[str, float]:
        """Self times, call counts and counters, named as in BENCHMARK.json."""
        out: dict[str, float] = {}
        for _, _, name, _ in SPANS:
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
            hits, misses = self.counts[f"{name}.hits"], self.counts[f"{name}.misses"]
            out[f"{name}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        scanned = self.counts["hess.admissible_representative.candidates_scanned"]
        found = self.counts["hess.admissible_representative.misses"]
        out["hess.admissible_representative.scan_yield"] = found / scanned if scanned else 0.0
        for key in (
            "hess.admissible_representative.candidates_scanned",
            "perms.bruhat_interval.vertices",
            "graphs.interval_graph.vertices",
            "graphs.interval_graph.edges_built",
            "graphs.full_graph.edges_built",
            "cohomology.edges_checked",
            "roots.subsets_scanned",
            "roots.weyl_subsets_found",
        ):
            out[key] = self.counts[key]
        out["roots.elements_s"] = self.self_s["roots.elements"]
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path, meta: dict) -> None:
        """Write the spans as JSON: a name table plus one row per span."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, op in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent, op])
        payload = dict(meta, fields=["name", "start", "end", "parent", "op"], names=list(names), spans=rows)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def library_modules() -> list:
    """The imported hessgkm package and its submodules."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "hessgkm" or name.startswith("hessgkm."))
    ]


def _rebind(original, replacement) -> None:
    for mod in library_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
