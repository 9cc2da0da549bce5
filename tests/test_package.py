"""Package-wide properties: the public namespace, the modules an import loads and
the size of the memo caches."""

import json
import subprocess
import sys
from math import factorial
from pathlib import Path
from types import FunctionType, ModuleType

import hessgkm


def test_submodules_are_not_shadowed_and_stay_out_of_all():
    import hessgkm.classify as m

    assert isinstance(m, ModuleType)
    assert isinstance(hessgkm.classify, ModuleType)
    assert "classify" not in hessgkm.__all__
    assert [name for name in hessgkm.__all__ if isinstance(getattr(hessgkm, name), ModuleType)] == []
    assert {"ClassificationReport", "component_lower_bound", "localized_class_candidate", "sweep"} <= set(
        hessgkm.__all__
    )


def test_claims_under_test_live_in_verify():
    """The claims that only the sweeps and the tests use left graphs and
    roots for verify; the exported ones still resolve at the top level."""
    from hessgkm import graphs, patterns, roots, verify

    moved = {
        graphs: ("edge_set_at", "regularity_via_w0", "phi_rule", "phi_map", "fixed_point_induced_graph"),
        roots: ("root_from_positions", "hessenberg_space_from_function"),
    }
    for module, names in moved.items():
        for name in names:
            assert getattr(verify, name).__module__ == "hessgkm.verify"
            assert not hasattr(module, name), name
    for name in ("edge_set_at", "regularity_via_w0", "phi_map", "fixed_point_induced_graph"):
        assert getattr(hessgkm, name) is getattr(verify, name)
    assert "contains_hpattern" not in hessgkm.__all__
    assert not hasattr(patterns, "contains_hpattern")
    assert all(hasattr(hessgkm, name) for name in hessgkm.__all__)


def test_contract_table_names_every_public_function():
    """The input-contract table of tests/test_contract.py lists every
    function of __all__, checked or exempt with its reason, so a new public
    name has to join it."""
    from test_contract import CONTRACT

    functions = {name for name in hessgkm.__all__ if isinstance(getattr(hessgkm, name), FunctionType)}
    assert {"h_length", "classify_arbitrary", "sweep"} <= functions
    assert functions - set(CONTRACT) == set()


def test_import_loads_no_heavy_stdlib():
    """Importing the package and its CLI pulls in none of these stdlib modules:
    they cost more start-up time than the library's own modules."""
    src = str(Path(hessgkm.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hessgkm, hessgkm.cli; "
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# Every lru_cache of the library, found by type, with its entry count, after
# every suite at n_max = 5 but example61, whose one case is of rank 6
# whatever n_max.
_CACHE_SIZES = """
import functools, gc, json
from hessgkm import verify
for suite in verify.SUITE_NAMES:
    if suite != "example61":
        verify.sweep(suite, 5)
print(json.dumps({
    f"{fn.__module__}.{fn.__qualname__}": fn.cache_info().currsize
    for fn in gc.get_objects()
    if isinstance(fn, functools._lru_cache_wrapper) and fn.__module__.startswith("hessgkm")
}))
"""


def test_caches_hold_at_most_one_entry_per_permutation():
    """Caches keyed by w or by h stay within the permutations of rank <= 5;
    a cache keyed by a (w, h) pair would hold one entry per sweep case."""
    proc = subprocess.run([sys.executable, "-c", _CACHE_SIZES], capture_output=True, text=True, check=True)
    sizes = json.loads(proc.stdout)
    assert {"hessgkm.perms.bruhat_interval", "hessgkm.graphs.bruhat_move_graph"} <= set(sizes)
    limit = sum(factorial(n) for n in range(1, 6))
    assert limit == 153
    assert {name: size for name, size in sizes.items() if size > limit} == {}
