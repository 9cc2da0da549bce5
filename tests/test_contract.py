"""The input contract of the public callables, in one table.

A malformed h, w, Weyl-group element, root or root mask raises
``ValueError`` naming the argument: h and w by name (``h(2) = 1 < 2``,
``rank mismatch: |w| = 3, |h| = 4``), an element, a root or a mask by its
value, since they have no name in their messages (a root given as text by
that text).  A list is taken as the tuple it lists.  ``TypeError`` is
allowed only for a value that is not a sequence, and for a list or an
unhashable entry given to a function memoized by the tuple.  Each kind's
malformations are one hypothesis strategy; the CI job draws more examples
under the ``ci`` profile of ``tests/conftest.py``.
"""

import re
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, strategies as st

from hessgkm.classify import classify, component_lower_bound
from hessgkm.cohomology import localized_class_candidate, poincare_polynomial
from hessgkm.graphs import MoveGraph, build_hessenberg_graph, interval_graph, interval_move_graph
from hessgkm.hess import (
    admissible_representative,
    cell_dimension,
    check_pair,
    complexity_dimension,
    enumerate_admissible,
    h_length,
    hess_schubert_fixed_points,
    is_admissible,
    validate_hessenberg,
)
from hessgkm.patterns import avoids_all_associated, pattern_witnesses
from hessgkm.perms import as_permutation, bruhat_interval, inverse, length
from hessgkm.roots import build_root_system, classify_arbitrary, validate_hessenberg_space
from hessgkm.verify import (
    edge_set_at,
    fixed_point_induced_graph,
    hessenberg_functions,
    phi_map,
    regularity_via_w0,
)

N = 4
H = (3, 3, 4, 4)
W = (4, 3, 1, 2)  # admissible for H, with a regular interval graph
B2 = build_root_system("B", 2)
X = B2.elements()[3]
VALID = {"w": W, "h": H, "element": X, "root": (1, 1), "mask": 0b1011}
# The kinds given as sequences; a root mask is an int.
SEQUENCES = {"w", "h", "element", "root"}


def as_text(root) -> str:
    """A root in the bracketed text form of ``RootSystem.parse_root``."""
    return "[" + ",".join(map(str, root)) + "]"


class Checked(NamedTuple):
    call: Callable
    kinds: dict  # parameter name -> "w", "h", "element", "root" or "mask"; called by keyword
    tuple_only: str | None = None  # why a list or an unhashable entry raises TypeError


PAIR = {"w": "w", "h": "h"}
TAKES_A_GRAPH = "takes a graph built by a checked entry"
TAKES_A_SPACE = "takes a HessenbergSpace, checked by validate_hessenberg_space"
HOT = "hot primitive on checked permutations, called in the sweeps' inner loops"
MEMO = "memoized by the tuple w, which it checks on a cache miss"

# Every public callable: how it checks an h, w or Weyl-group element, or
# why it is exempt.  tests/test_package.py holds it to hessgkm.__all__.
CONTRACT = {
    # hess
    "check_pair": Checked(check_pair, PAIR),
    "validate_hessenberg": Checked(lambda h: validate_hessenberg(h), {"h": "h"}),
    "parse_hessenberg": "takes text, which it parses and validates",
    "complexity_dimension": Checked(complexity_dimension, {"h": "h"}),
    "enumerate_admissible": Checked(enumerate_admissible, {"h": "h"}),
    "h_length": Checked(h_length, PAIR),
    "cell_dimension": Checked(cell_dimension, PAIR),
    "is_admissible": Checked(is_admissible, PAIR),
    "admissible_representative": Checked(admissible_representative, PAIR),
    "hess_schubert_fixed_points": Checked(hess_schubert_fixed_points, PAIR),
    # perms
    "as_permutation": Checked(lambda w: as_permutation(w), {"w": "w"}),
    "inverse": Checked(inverse, {"w": "w"}),
    "length": Checked(length, {"w": "w"}, MEMO),
    "bruhat_interval": Checked(bruhat_interval, {"w": "w"}, MEMO),
    "compose": HOT,
    "apply_transposition": HOT,
    "bruhat_leq": HOT,
    "left_multiply": HOT,
    "identity": "takes a rank",
    "longest_element": "takes a rank",
    "parse_permutation": "takes text, which it parses and validates",
    # graphs
    "build_hessenberg_graph": Checked(build_hessenberg_graph, {"h": "h"}),
    "interval_graph": Checked(interval_graph, PAIR),
    "interval_move_graph": Checked(interval_move_graph, PAIR),
    # patterns and classify
    "pattern_witnesses": Checked(pattern_witnesses, PAIR),
    "avoids_all_associated": Checked(avoids_all_associated, PAIR),
    "classify": Checked(classify, PAIR),
    "component_lower_bound": Checked(component_lower_bound, PAIR),
    # cohomology
    "localized_class_candidate": Checked(localized_class_candidate, PAIR),
    "poincare_polynomial": Checked(poincare_polynomial, {"h": "h"}),
    "check_compatibility": TAKES_A_GRAPH,
    # verify: the oracles of the kernels' regularity and sinks
    "is_connected": TAKES_A_GRAPH,
    "is_regular": TAKES_A_GRAPH,
    # verify: the claims under test
    "edge_set_at": Checked(edge_set_at, {"h": "h", "w": "w", "u": "w"}),
    "fixed_point_induced_graph": Checked(fixed_point_induced_graph, PAIR),
    "regularity_via_w0": Checked(regularity_via_w0, PAIR),
    "phi_map": Checked(lambda h, w, u: phi_map(h, w, u, 3, 4), {"h": "h", "w": "w", "u": "w"}),
    "hessenberg_functions": "takes a rank",
    "sweep": "takes a suite name and a rank",
    "sweep_all": "takes a rank",
    # roots
    "classify_arbitrary": Checked(
        lambda w: classify_arbitrary(validate_hessenberg_space(B2, B2.positive_roots), w), {"w": "element"}
    ),
    "RootSystem.mul": Checked(B2.mul, {"a": "element", "b": "element"}),
    "RootSystem.length": Checked(B2.length, {"w": "element"}),
    "RootSystem.inversion_set": Checked(B2.inversion_set, {"w": "element"}),
    "RootSystem.canonical_word": Checked(B2.canonical_word, {"w": "element"}),
    "RootSystem.format_element": Checked(B2.format_element, {"w": "element"}),
    "RootSystem.bruhat_interval_up": Checked(B2.bruhat_interval_up, {"w": "element"}),
    "RootSystem.act": Checked(lambda w: B2.act(w, (1, 0)), {"w": "element"}),
    "RootSystem.inversion_mask": Checked(B2.inversion_mask, {"w": "element"}),
    "RootSystem.reflection": Checked(B2.reflection, {"coords": "root"}),
    "RootSystem.mask_of": Checked(lambda root: B2.mask_of([(0, 1), root]), {"root": "root"}),
    "RootSystem.format_root": Checked(B2.format_root, {"coords": "root"}),
    "RootSystem.format_roots": Checked(lambda root: B2.format_roots([root, (1, 0)]), {"root": "root"}),
    "RootSystem.format_root_set": Checked(lambda root: B2.format_root_set([root]), {"root": "root"}),
    "RootSystem.parse_root": Checked(lambda root: B2.parse_root(as_text(root)), {"root": "root"}),
    "RootSystem.roots_of_mask": Checked(B2.roots_of_mask, {"mask": "mask"}),
    "build_root_system": "takes a type label and a rank",
    "validate_hessenberg_space": "takes a root system and a root set, which it validates",
    "arbitrary_gkm_graph": TAKES_A_SPACE,
    "h_admissible_elements": TAKES_A_SPACE,
    "partition_classes": TAKES_A_SPACE,
    "weyl_type_subsets": TAKES_A_SPACE,
    "z_and_w": TAKES_A_SPACE,
}

CHECKED = {name: entry for name, entry in CONTRACT.items() if isinstance(entry, Checked)}
ARGUMENTS = [(name, arg) for name, entry in CHECKED.items() for arg in entry.kinds]


def call_with(name: str, **given):
    """The entry ``name`` on its valid arguments, those in ``given`` replaced."""
    entry = CHECKED[name]
    return entry.call(**{arg: given.get(arg, VALID[kind]) for arg, kind in entry.kinds.items()})


# -- one strategy per kind: a valid value with one malformation, and its way --

NON_INTEGRAL = st.sampled_from([2.5, "3", None, (1,), [1], float("nan"), float("inf")])


def _put(values: tuple, i: int, x) -> tuple:
    return values[:i] + (x,) + values[i + 1:]


@st.composite
def bad_permutations(draw):
    """A malformed w of rank N: a non-integral, repeated or out-of-range
    entry; or a permutation of another rank, malformed only beside an h."""
    w = tuple(draw(st.permutations(range(1, N + 1))))
    i = draw(st.integers(0, N - 1))
    way = draw(st.sampled_from(["non-integral", "repeated", "out of range", "rank"]))
    if way == "non-integral":
        return way, _put(w, i, draw(NON_INTEGRAL))
    if way == "repeated":
        return way, _put(w, i, w[(i + draw(st.integers(1, N - 1))) % N])
    if way == "out of range":
        return way, _put(w, i, draw(st.sampled_from([0, -1, N + 1, 10**20])))
    return way, tuple(draw(st.permutations(range(1, draw(st.sampled_from([1, N - 1, N + 1])) + 1))))


@st.composite
def bad_hessenberg(draw):
    """A malformed h of rank N: a non-integral entry, a descent, h(i) < i,
    h(i) > n or no entry at all; or an h of another rank, malformed only
    beside a w."""
    h = draw(st.sampled_from(hessenberg_functions(N)))
    i = draw(st.integers(0, N - 1))
    way = draw(st.sampled_from(["non-integral", "descent", "below i", "above n", "empty", "rank"]))
    if way == "non-integral":
        return way, _put(h, i, draw(NON_INTEGRAL))
    if way == "descent":  # h(i + 1) = n > h(i + 2) = i + 2
        i = min(i, N - 3)
        return way, (N,) * (i + 1) + (i + 2,) + (N,) * (N - i - 2)
    if way == "below i":  # h(i + 1) <= i
        i = max(i, 1)
        return way, _put(h, i, draw(st.integers(-2, i)))
    if way == "above n":
        return way, _put(h, i, draw(st.sampled_from([N + 1, 2 * N, 10**20])))
    if way == "empty":
        return way, ()
    return way, draw(st.sampled_from(hessenberg_functions(draw(st.sampled_from([1, N - 1, N + 1])))))


@st.composite
def bad_elements(draw):
    """A malformed element of W(B2): a non-integral, repeated or
    out-of-range entry, or an entry too many or too few."""
    x = draw(st.sampled_from(B2.elements()))
    i = draw(st.integers(0, len(x) - 1))
    way = draw(st.sampled_from(["non-integral", "repeated", "out of range", "length"]))
    if way == "non-integral":
        return way, _put(x, i, draw(NON_INTEGRAL))
    if way == "repeated":
        return way, _put(x, i, x[(i + draw(st.integers(1, len(x) - 1))) % len(x)])
    if way == "out of range":
        return way, _put(x, i, draw(st.sampled_from([-1, len(x), 9])))
    return way, x[:i] + x[i + 1:] if draw(st.booleans()) else x + (0,)


@st.composite
def bad_roots(draw):
    """A malformed positive root of B2: a non-integral coordinate, a vector
    of integers that is no positive root (zero, negative, too long), or a
    coordinate too many or too few."""
    root = draw(st.sampled_from(B2.positive_roots))
    i = draw(st.integers(0, len(root) - 1))
    way = draw(st.sampled_from(["non-integral", "not a root", "length"]))
    if way == "non-integral":
        return way, _put(root, i, draw(NON_INTEGRAL))
    if way == "not a root":
        return way, draw(st.sampled_from([(0, 0), (5, 5), (2, 0), (1, 3), (-1, 0), (-1, -2)]))
    return way, root[:i] + root[i + 1:] if draw(st.booleans()) else root + (0,)


@st.composite
def bad_masks(draw):
    """A malformed root mask of B2: negative, a bit past the last of its
    four positive roots, or not an int."""
    way = draw(st.sampled_from(["negative", "too wide", "not an int"]))
    if way == "negative":
        return way, draw(st.integers(max_value=-1))
    if way == "too wide":
        return way, draw(st.integers(min_value=1 << len(B2.positive_roots)))
    return way, draw(st.sampled_from([2.5, 3.0, "3", None, (1,), [1], float("nan")]))


MALFORMED = {
    "w": bad_permutations(),
    "h": bad_hessenberg(),
    "element": bad_elements(),
    "root": bad_roots(),
    "mask": bad_masks(),
}


def hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def names(message: str, arg: str, kind: str, value) -> bool:
    """Whether the message names the argument: h or w by its name, standing
    alone or in h(i), |w| and the like; an element, a root or a mask by its
    value, a root also by its text."""
    if kind in ("element", "mask"):
        return str(value) in message
    if kind == "root":
        return str(value) in message or as_text(value) in message
    return re.search(rf"(?<![A-Za-z_]){arg}(?![A-Za-z_])", message) is not None


@pytest.mark.parametrize("kind", MALFORMED)
@given(data=st.data())
def test_malformed_argument_raises_value_error_naming_it(kind, data):
    # Each drawn value goes to every argument of its kind, the others valid.
    way, bad = data.draw(MALFORMED[kind])
    for name, arg in ARGUMENTS:
        entry = CHECKED[name]
        if entry.kinds[arg] != kind or (way == "rank" and not {"w", "h"} <= set(entry.kinds.values())):
            continue
        if entry.tuple_only and not hashable(bad):
            with pytest.raises(TypeError, match="unhashable"):
                call_with(name, **{arg: bad})
            continue
        with pytest.raises(ValueError) as info:
            call_with(name, **{arg: bad})
        assert names(str(info.value), arg, kind, bad), (name, arg, str(info.value))


def as_data(result):
    """A result as comparable data: a move graph by its vertices and masks."""
    return (result.vertices, result.moves, result.up) if isinstance(result, MoveGraph) else result


SEQUENCE_ARGUMENTS = [(name, arg) for name, arg in ARGUMENTS if CHECKED[name].kinds[arg] in SEQUENCES]


@pytest.mark.parametrize("name, arg", SEQUENCE_ARGUMENTS, ids=[f"{n}-{a}" for n, a in SEQUENCE_ARGUMENTS])
def test_a_list_is_taken_as_the_tuple(name, arg):
    entry = CHECKED[name]
    value = VALID[entry.kinds[arg]]
    if entry.tuple_only:
        with pytest.raises(TypeError, match="unhashable"):
            call_with(name, **{arg: list(value)})
    else:
        assert as_data(call_with(name, **{arg: list(value)})) == as_data(call_with(name))


def test_not_a_sequence_raises_type_error_or_value_error():
    for name, arg in SEQUENCE_ARGUMENTS:
        for value in (None, 5):
            with pytest.raises((TypeError, ValueError)):
                call_with(name, **{arg: value})
