"""Combinatorial smoothness and irreducibility tests for Hessenberg
Schubert geometry, driven entirely by moment-graph data."""

from types import ModuleType as _ModuleType

from .classify import ClassificationReport, component_lower_bound
from .cohomology import check_compatibility, localized_class_candidate, poincare_polynomial
from .graphs import GkmGraph, build_hessenberg_graph, interval_graph, is_connected, is_regular
from .hess import (
    admissible_representative,
    complexity_dimension,
    enumerate_admissible,
    h_length,
    hess_schubert_fixed_points,
    is_admissible,
    parse_hessenberg,
    validate_hessenberg,
)
from .patterns import avoids_all_associated
from .perms import (
    Perm,
    apply_transposition,
    bruhat_interval,
    bruhat_leq,
    compose,
    identity,
    inverse,
    length,
    longest_element,
    parse_permutation,
)
from .roots import (
    HessenbergSpace,
    RootSystem,
    arbitrary_gkm_graph,
    build_root_system,
    classify_arbitrary,
    h_admissible_elements,
    partition_classes,
    validate_hessenberg_space,
    weyl_type_subsets,
    z_and_w,
)
from .verify import (
    SweepResult,
    edge_set_at,
    fixed_point_induced_graph,
    hessenberg_functions,
    phi_map,
    regularity_via_w0,
    sweep,
    sweep_all,
)

__all__ = [name for name in dir() if not (name.startswith("_") or isinstance(globals()[name], _ModuleType))]
