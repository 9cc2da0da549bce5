"""Root systems, Weyl groups, Hessenberg spaces, and class partitions."""

import hashlib
import random
import re
from functools import cached_property

import pytest

from hessgkm.classify import classify
from hessgkm.graphs import interval_graph
from hessgkm.hess import admissible_representative, cell_dimension, enumerate_admissible
from hessgkm.perms import all_permutations
from hessgkm.roots import (
    RootSystem,
    _bits,
    _move_graph,
    arbitrary_gkm_graph,
    build_root_system,
    classify_arbitrary,
    enumerate_hessenberg_spaces,
    h_admissible_elements,
    mask_order_key,
    partition_classes,
    submasks,
    validate_hessenberg_space,
    weyl_type_subsets,
    z_and_w,
)
from hessgkm.verify import (
    hessenberg_functions,
    hessenberg_space_from_function,
    is_regular,
    is_weyl_type,
    oracle_canonical_word,
    oracle_weak_leq,
    oracle_weyl_bruhat_leq,
    oracle_weyl_type_masks,
    oracle_weyl_type_subsets,
    root_from_positions,
)

SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]

EXPECTED = {
    ("A", 1): (1, 2),
    ("A", 2): (3, 6),
    ("A", 3): (6, 24),
    ("B", 2): (4, 8),
    ("C", 2): (4, 8),
    ("B", 3): (9, 48),
    ("C", 3): (9, 48),
    ("D", 4): (12, 192),
    ("G", 2): (6, 12),
    ("F", 4): (24, 1152),
}


# The Cartan matrices of the integral realizations; F4's is doubled from the
# usual one, which the pairings do not see.
CARTAN = {
    ("A", 1): [[2]],
    ("A", 2): [[2, -1], [-1, 2]],
    ("A", 3): [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    ("B", 2): [[2, -1], [-2, 2]],
    ("C", 2): [[2, -2], [-1, 2]],
    ("B", 3): [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    ("C", 3): [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    ("D", 4): [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    ("G", 2): [[2, -3], [-1, 2]],
    ("F", 4): [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
}


@pytest.mark.parametrize("type_label,rank", SYSTEMS)
def test_cartan_from_integral_realization(type_label, rank):
    rs = build_root_system(type_label, rank)
    assert rs.cartan == CARTAN[(type_label, rank)]
    assert all(type(x) is int for row in rs._gram for x in row)


def chain_oracle_leq(rs: RootSystem, u, v) -> bool:
    """Independent Bruhat decision: BFS over length-increasing reflection
    right-multiplications."""
    if u == v:
        return True
    refl = rs.reflections()
    seen = {u}
    frontier = [u]
    lv = rs.length(v)
    while frontier:
        nxt = []
        for x in frontier:
            lx = rs.length(x)
            for t in refl:
                y = rs.mul(x, t)
                ly = rs.length(y)
                if ly <= lx or ly > lv or y in seen:
                    continue
                if y == v:
                    return True
                seen.add(y)
                nxt.append(y)
        frontier = nxt
    return False


@pytest.mark.parametrize("type_label,rank", SYSTEMS)
def test_counts(type_label, rank):
    rs = build_root_system(type_label, rank)
    pos, order = EXPECTED[(type_label, rank)]
    assert len(rs.positive_roots) == pos
    assert len(rs.elements()) == order
    w0 = rs.longest()
    assert rs.length(w0) == pos
    assert rs.inversion_set(w0) == frozenset(rs.positive_roots)
    assert rs.length(rs.identity) == 0


def test_unsupported_inputs():
    with pytest.raises(ValueError):
        build_root_system("E", 6)
    with pytest.raises(ValueError):
        build_root_system("G", 3)
    with pytest.raises(ValueError):
        build_root_system("D", 2)
    # |W(B7)| = 645,120 is past the size limit; |W(B6)| = 46,080 fits.
    with pytest.raises(ValueError, match="W\\(B7\\): 645120 items exceed the size limit"):
        build_root_system("B", 7)
    assert build_root_system("B", 6).order == 46080
    # The order is bounded before any simple root or factorial of the rank
    # is built, so a rank of a million fails at once.
    with pytest.raises(ValueError, match=r"W\(A1000000\): more than 2\^\d+ items exceed the size limit SIZE_LIMIT"):
        build_root_system("A", 10**6)


def test_c2_conventions():
    rs = build_root_system("C", 2)
    assert rs.positive_roots == ((1, 0), (0, 1), (1, 1), (2, 1))
    assert rs.cartan == [[2, -2], [-1, 2]]
    assert rs.format_root((2, 1)) == "2a1+a2"
    assert rs.parse_root("2a1+a2") == (2, 1)
    assert rs.parse_root("[1,1]") == (1, 1)
    assert rs.parse_root_list("a1,[0,1],a1+a2") == frozenset({(1, 0), (0, 1), (1, 1)})
    for blank in ("", "  ", ",", " , "):
        assert rs.parse_root_list(blank) == frozenset()
    for text, field in [("a1,,a2", 2), ("a1,", 2), (",a1", 1), ("[1,1], ,a2", 2), ("[1,,1]", 2)]:
        with pytest.raises(ValueError, match=f"empty field {field} in "):
            rs.parse_root_list(text)
    for text in ("[1,1", "a1,[1,1", "a1],a2", "]a1[", "[1,1]]"):
        with pytest.raises(ValueError, match="unbalanced brackets in "):
            rs.parse_root_list(text)
    for text, field in [("[1,x]", "x"), ("xa1", "x"), ("a1x", "1x"), ("a1+a", "")]:
        with pytest.raises(ValueError, match=re.escape(f"cannot parse root {text!r}: {field!r} is not an integer")):
            rs.parse_root(text)
    with pytest.raises(ValueError):
        rs.parse_root("a3")
    with pytest.raises(ValueError):
        rs.parse_root("[1,0,0]")
    with pytest.raises(ValueError):
        rs.parse_root("3a1+a2")


def test_a2_table():
    rs = build_root_system("A", 2)
    assert rs.positive_roots == ((1, 0), (0, 1), (1, 1))
    table = {
        rs.format_element(w): rs.format_root_set(rs.inversion_set(w))
        for w in rs.elements()
    }
    assert table == {
        "e": "{}",
        "s1": "{a1}",
        "s2": "{a2}",
        "s1s2": "{a2, a1+a2}",
        "s2s1": "{a1, a1+a2}",
        "s1s2s1": "{a1, a2, a1+a2}",
    }


def test_c2_inversion_table():
    rs = build_root_system("C", 2)
    table = {
        rs.format_element(w): rs.format_root_set(rs.inversion_set(w))
        for w in rs.elements()
    }
    assert table == {
        "e": "{}",
        "s1": "{a1}",
        "s2": "{a2}",
        "s2s1": "{a1, 2a1+a2}",
        "s1s2": "{a2, a1+a2}",
        "s1s2s1": "{a1, a1+a2, 2a1+a2}",
        "s2s1s2": "{a2, a1+a2, 2a1+a2}",
        "s1s2s1s2": "{a1, a2, a1+a2, 2a1+a2}",
    }


def test_length_equals_inversion_count():
    for type_label, rank in [("A", 3), ("C", 2), ("G", 2)]:
        rs = build_root_system(type_label, rank)
        for w in rs.elements():
            assert rs.length(w) == len(rs.inversion_set(w))


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)])
def test_bruhat_recursion_matches_chain_oracle(type_label, rank):
    rs = build_root_system(type_label, rank)
    elements = rs.elements()
    for u in elements:
        for v in elements:
            assert oracle_weyl_bruhat_leq(rs, u, v) == chain_oracle_leq(rs, u, v), (
                type_label,
                rank,
                rs.format_element(u),
                rs.format_element(v),
            )


@pytest.mark.parametrize("type_label,rank", SYSTEMS)
def test_canonical_words_match_greedy_oracle(type_label, rank):
    rs = build_root_system(type_label, rank)
    for w in rs.elements():
        assert rs.canonical_word(w) == oracle_canonical_word(rs, w)


@pytest.mark.parametrize("type_label,rank", SYSTEMS)
def test_elements_in_length_word_order(type_label, rank):
    # The group is listed by (length, word), each canonical word as long as
    # its element; the words and labels are read first on a fresh system.
    rs = build_root_system(type_label, rank)
    assert rs.canonical_word(rs.identity) == ()
    assert rs.format_element(rs.identity) == "e"
    words = [rs.canonical_word(w) for w in rs.elements()]
    assert all(len(word) == rs.length(w) for word, w in zip(words, rs.elements()))
    assert words == sorted(words, key=lambda word: (len(word), word))
    assert rs.canonical_word(rs.longest()) == words[-1] and len(words[-1]) == len(rs.positive_roots)


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_bruhat_interval_up_matches_bruhat_leq(type_label, rank):
    rs = build_root_system(type_label, rank)
    elements = rs.elements()
    for w in elements:
        assert rs.bruhat_interval_up(w) == tuple(v for v in elements if oracle_weyl_bruhat_leq(rs, w, v))


def test_weak_order_is_inversion_containment():
    for type_label, rank in [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)]:
        rs = build_root_system(type_label, rank)
        for u in rs.elements():
            nu = rs.inversion_set(u)
            for v in rs.elements():
                assert oracle_weak_leq(rs, u, v) == (nu <= rs.inversion_set(v))


def test_validate_hessenberg_space():
    c2 = build_root_system("C", 2)
    validate_hessenberg_space(c2, c2.parse_root_list("a1,a2,a1+a2"))
    validate_hessenberg_space(c2, frozenset(c2.positive_roots))
    validate_hessenberg_space(c2, frozenset())
    a2 = build_root_system("A", 2)
    with pytest.raises(ValueError):
        validate_hessenberg_space(a2, {(1, 1)})  # (a1+a2) - a1 = a2 missing
    with pytest.raises(ValueError):
        validate_hessenberg_space(a2, {(2, 0)})  # not a root
    # A coordinate is not truncated: (1.5, 0) is no root, not a1.
    with pytest.raises(ValueError, match=r"coordinate 1 of root \(1\.5, 0\) = 1\.5 is not an integer"):
        validate_hessenberg_space(a2, {(1.5, 0)})
    assert validate_hessenberg_space(a2, {(1.0, 0)}).roots == {(1, 0)}


@pytest.mark.parametrize("root", [(1, 0, 0), (1,), (-1, 0)])
def test_tuples_that_are_not_roots_are_named(root):
    # The tuple itself is named, never a root its leading coordinates spell.
    b2 = build_root_system("B", 2)
    message = re.escape(f"{root} is not a positive root of B2")
    with pytest.raises(ValueError, match=message):
        validate_hessenberg_space(b2, [root])
    with pytest.raises(ValueError, match=message):
        b2.reflection(root)


def test_hessenberg_spaces_compare_by_identity_with_own_memo():
    c2 = build_root_system("C", 2)
    m = c2.parse_root_list("a1,a2,a1+a2")
    hs, other = validate_hessenberg_space(c2, m), validate_hessenberg_space(c2, m)
    assert hs.roots == other.roots
    assert hs != other and hs == hs
    assert hs.mask == other.mask == c2.mask_of(m)
    assert hs._classes is None
    weyl_type_subsets(hs)
    assert hs._classes is not None and other._classes is None


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 2), ("C", 2), ("G", 2)])
def test_validate_closure_matches_pairwise_definition(type_label, rank):
    # Accepted exactly when every difference of a root of M and a positive
    # root that is a positive root lies in M, over every subset of Phi+.
    rs = build_root_system(type_label, rank)
    positive = set(rs.positive_roots)
    for mask in submasks((1 << len(positive)) - 1):
        m = rs.roots_of_mask(mask)
        closed = all(
            diff not in positive or diff in m
            for alpha in m
            for beta in positive
            for diff in [tuple(a - b for a, b in zip(alpha, beta))]
        )
        try:
            validate_hessenberg_space(rs, m)
        except ValueError as err:
            assert not closed and str(err).startswith("not closed under subtraction: ")
        else:
            assert closed


def _reference_mask_key(mask):
    return mask.bit_count(), [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_mask_order_key_matches_index_lists():
    rng = random.Random(0)
    cases = [
        list(submasks((1 << 12) - 1)),
        # Random masks up to 36 bits, the width of B6, the widest system
        # within the size limit.
        [rng.getrandbits(rng.randint(0, 36)) for _ in range(4000)],
        # No width is fixed: masks far past 64 bits are ordered alike.
        [rng.getrandbits(rng.randint(60, 200)) for _ in range(1000)] + [1 << 100 | 1, 1 << 99 | 2, 3],
    ]
    for masks in cases:
        assert sorted(masks, key=mask_order_key) == sorted(masks, key=_reference_mask_key)
        for mask in masks:
            assert _bits(mask) == _reference_mask_key(mask)[1]
    assert _bits(0) == []


def test_elements_builds_no_tables():
    # Enumerating the group builds no table; each is built on first use.
    tables = {name for name, v in vars(RootSystem).items() if isinstance(v, cached_property)}
    assert {"_ids", "_inv_masks", "_reflection_table", "_reflections", "_steps"} <= tables
    rs = build_root_system("F", 4)
    rs.elements()
    assert not tables & set(vars(rs))


def test_weyl_type_subsets_c2():
    c2 = build_root_system("C", 2)
    hs = validate_hessenberg_space(c2, c2.parse_root_list("a1,a2,a1+a2"))
    subs = [c2.format_root_set(s) for s in weyl_type_subsets(hs)]
    assert subs == ["{}", "{a1}", "{a2}", "{a1, a1+a2}", "{a2, a1+a2}", "{a1, a2, a1+a2}"]
    assert not is_weyl_type(hs, {(1, 1)})
    assert not is_weyl_type(hs, {(1, 0), (0, 1)})


@pytest.mark.parametrize(
    "type_label,rank", [system for system in SYSTEMS if system != ("F", 4)]
)
def test_weyl_type_subsets_match_definitional_scan(type_label, rank):
    # F4's 2^24 subsets are too many; it is held to the backtracker alone,
    # in test_weyl_type_subsets_match_backtracker.
    rs = build_root_system(type_label, rank)
    for m in enumerate_hessenberg_spaces(rs):
        hs = validate_hessenberg_space(rs, m)
        assert weyl_type_subsets(hs) == oracle_weyl_type_subsets(hs)
        assert oracle_weyl_type_masks(hs) == list(map(rs.mask_of, oracle_weyl_type_subsets(hs)))


@pytest.mark.parametrize("type_label,rank", SYSTEMS)
def test_weyl_type_subsets_match_backtracker(type_label, rank):
    # The class traces, in order, against the backtracker over M, which
    # never looks at W.
    rs = build_root_system(type_label, rank)
    for m in enumerate_hessenberg_spaces(rs):
        hs = validate_hessenberg_space(rs, m)
        assert list(map(rs.mask_of, weyl_type_subsets(hs))) == oracle_weyl_type_masks(hs)


def _class_layer_digest(systems) -> str:
    """sha256 over every space of each system: the classes, keys in order
    with their members, the Weyl-type subsets, each subset's z and w, and
    the admissible elements, all as labels."""
    out = hashlib.sha256()
    for type_label, rank in systems:
        rs = build_root_system(type_label, rank)
        fmt, fmt_set = rs.format_element, rs.format_root_set
        for m in enumerate_hessenberg_spaces(rs):
            hs = validate_hessenberg_space(rs, m)
            subsets = weyl_type_subsets(hs)
            lines = [f"{type_label}{rank} M = {fmt_set(m)}"]
            lines += [f"{fmt_set(s)}: {' '.join(map(fmt, xs))}" for s, xs in partition_classes(hs).items()]
            lines.append(" ".join(map(fmt_set, subsets)))
            lines += [" ".join(map(fmt, z_and_w(hs, s))) for s in subsets]
            lines.append(" ".join(map(fmt, h_admissible_elements(hs))))
            out.update("\n".join(lines).encode() + b"\n")
    return out.hexdigest()


def test_class_layer_is_pinned():
    digest = _class_layer_digest(SYSTEMS + [("A", 4), ("A", 5)])
    assert digest == "34b386fcc3efef6ff9292050f78be8eda39da98f360c5bca7b717f9d8f94dc14"


def test_weyl_type_subsets_a2_all():
    a2 = build_root_system("A", 2)
    hs = validate_hessenberg_space(a2, {(1, 0), (0, 1)})
    assert len(weyl_type_subsets(hs)) == 4


def test_class_tables_c2():
    c2 = build_root_system("C", 2)
    hs = validate_hessenberg_space(c2, c2.parse_root_list("a1,a2,a1+a2"))
    classes = partition_classes(hs)
    fmt = c2.format_element
    got = {
        c2.format_root_set(s): (
            tuple(fmt(x) for x in classes[s]),
            fmt(z_and_w(hs, s)[0]),
            fmt(z_and_w(hs, s)[1]),
        )
        for s in weyl_type_subsets(hs)
    }
    assert got == {
        "{}": (("e",), "e", "e"),
        "{a1}": (("s1", "s2s1"), "s1", "s2s1"),
        "{a2}": (("s2",), "s2", "s2"),
        "{a1, a1+a2}": (("s1s2s1",), "s1s2s1", "s1s2s1"),
        "{a2, a1+a2}": (("s1s2", "s2s1s2"), "s1s2", "s2s1s2"),
        "{a1, a2, a1+a2}": (("s1s2s1s2",), "s1s2s1s2", "s1s2s1s2"),
    }
    adm = [fmt(x) for x in h_admissible_elements(hs)]
    assert adm == ["e", "s2", "s2s1", "s1s2s1", "s2s1s2", "s1s2s1s2"]


def test_class_tables_a2():
    a2 = build_root_system("A", 2)
    ol = a2.one_line_map()
    hs = validate_hessenberg_space(a2, {(1, 0), (0, 1)})
    classes = partition_classes(hs)

    def pl(x):
        return "".join(map(str, ol[x]))

    got = {
        a2.format_root_set(s): (
            tuple(sorted(pl(x) for x in classes[s])),
            pl(z_and_w(hs, s)[0]),
            pl(z_and_w(hs, s)[1]),
        )
        for s in weyl_type_subsets(hs)
    }
    assert got == {
        "{}": (("123",), "123", "123"),
        "{a1}": (("213", "312"), "213", "312"),
        "{a2}": (("132", "231"), "132", "231"),
        "{a1, a2}": (("321",), "321", "321"),
    }


def test_z_and_w_rejects_non_weyl_type():
    c2 = build_root_system("C", 2)
    hs = validate_hessenberg_space(c2, c2.parse_root_list("a1,a2,a1+a2"))
    with pytest.raises(ValueError):
        z_and_w(hs, {(1, 1)})


def test_class_table_checks_traces_against_weyl_masks():
    b3 = build_root_system("B", 3)
    hs = validate_hessenberg_space(b3, b3.positive_roots)
    masks = oracle_weyl_type_masks(hs)
    # The class traces, read off W, are the backtracker's masks in order,
    # and each keys one class.
    assert list(map(b3.mask_of, weyl_type_subsets(hs))) == masks
    assert list(map(b3.mask_of, partition_classes(hs))) == masks
    # {a1, a2} is no trace at M = Phi+ in B3: a1 + a2 lies in M.  A mask
    # with no class is refused as not of Weyl type.
    bogus = b3.mask_of([(1, 0, 0), (0, 1, 0)])
    assert bogus not in masks
    with pytest.raises(ValueError, match=r"\{a1, a2\} is not a Weyl-type subset of M"):
        z_and_w(hs, {(1, 0, 0), (0, 1, 0)})


def test_weyl_type_subsets_returns_a_new_list():
    b2 = build_root_system("B", 2)
    hs = validate_hessenberg_space(b2, b2.positive_roots)
    subsets = weyl_type_subsets(hs)
    assert len(subsets) == 8
    subsets.pop()
    assert len(weyl_type_subsets(hs)) == 8
    assert weyl_type_subsets(hs) == oracle_weyl_type_subsets(hs)


CLASS_TOTALS = {
    ("A", 1): 3,
    ("A", 2): 15,
    ("A", 3): 105,
    ("A", 4): 945,
    ("A", 5): 10395,
    ("B", 2): 23,
    ("C", 2): 23,
    ("B", 3): 273,
    ("C", 3): 273,
    ("D", 4): 1659,
    ("G", 2): 45,
    ("F", 4): 17811,
}


@pytest.mark.parametrize("type_label,rank", sorted(CLASS_TOTALS))
def test_class_totals_over_all_spaces(type_label, rank):
    # Observed counts of classes summed over every Hessenberg space.  In
    # type A_{n-1} a class is one h-admissible permutation of the type A
    # engine, so the totals must agree with it.
    rs = build_root_system(type_label, rank)
    total = sum(
        len(partition_classes(validate_hessenberg_space(rs, m)))
        for m in enumerate_hessenberg_spaces(rs)
    )
    assert total == CLASS_TOTALS[type_label, rank]
    if type_label == "A" and rank <= 4:
        assert total == sum(len(enumerate_admissible(h)) for h in hessenberg_functions(rank + 1))


def test_tuples_outside_the_system_raise_value_error():
    # Tuples enter the id space with a ValueError that names them.
    b2 = build_root_system("B", 2)
    hs = validate_hessenberg_space(b2, b2.positive_roots)
    with pytest.raises(ValueError, match=r"\(5, 5\) is not a positive root of B2"):
        z_and_w(hs, {(5, 5)})
    with pytest.raises(ValueError, match=r"\(0, 0, 0, 0, 0, 0, 0, 0\) is not an element of W\(B2\)"):
        classify_arbitrary(hs, (0,) * 8)
    with pytest.raises(ValueError, match="is not an element"):
        b2.bruhat_interval_up((0,) * 8)
    # So do the root and element methods; act also takes negative roots.
    with pytest.raises(ValueError, match=r"\(5, 5\) is not a root of B2"):
        b2.act(b2.identity, (5, 5))
    assert b2.act(b2.identity, (-1, 0)) == (-1, 0)
    for call in (b2.format_roots, b2.format_root_set):
        with pytest.raises(ValueError, match=r"\(5, 5\) is not a positive root of B2"):
            call([(5, 5)])
    for call in (b2.length, b2.inversion_set):
        with pytest.raises(ValueError, match=r"\(9, 9, 9, 9, 9, 9, 9, 9\) is not an element of W\(B2\)"):
            call((9,) * 8)


@pytest.mark.parametrize("type_label,rank", SYSTEMS)
def test_partition_and_weak_interval_all_spaces(type_label, rank):
    rs = build_root_system(type_label, rank)
    spaces = enumerate_hessenberg_spaces(rs)
    elements = rs.elements()
    masks = {w: rs.inversion_mask(w) for w in elements}
    for m in spaces:
        hs = validate_hessenberg_space(rs, m)
        m_mask = rs.mask_of(m)
        classes = partition_classes(hs)
        # disjoint cover of W, every key of Weyl type
        assert sum(len(c) for c in classes.values()) == len(elements)
        subs = set(weyl_type_subsets(hs))
        assert set(classes) == subs
        # z/w bound their class in the left weak order (mask containment)
        for s in subs:
            z, w_top = z_and_w(hs, s)
            zm, wm = masks[z], masks[w_top]
            for x in classes[s]:
                xm = masks[x]
                assert zm & ~xm == 0 and xm & ~wm == 0
            # endpoints carry the class trace
            assert masks[z] & m_mask == masks[w_top] & m_mask == rs.mask_of(s)


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)])
def test_weak_interval_reverse_inclusion_small(type_label, rank):
    # the full claim: the class IS the left weak interval [z_S, w_S]
    rs = build_root_system(type_label, rank)
    for m in enumerate_hessenberg_spaces(rs):
        hs = validate_hessenberg_space(rs, m)
        classes = partition_classes(hs)
        for s, cls in classes.items():
            z, w_top = z_and_w(hs, s)
            members = {
                x for x in rs.elements() if oracle_weak_leq(rs, z, x) and oracle_weak_leq(rs, x, w_top)
            }
            assert members == set(cls)


def _check_moves(rs, m, g):
    """Each move bit c at a vertex w of the kernel ``g`` is a root of ``m``
    and leads to w s_c, which is longer exactly on the up bits; the up bits
    are the c of ``m`` with w(c) > 0.  The up-step walk, each step taken
    from both ends, leads along every move.  Returns the edges {w, w s_c}."""
    positive = set(rs.positive_roots)
    m_bits = {rs.positive_roots.index(c) for c in m}
    for x, w in enumerate(g.vertices):
        for c, root in enumerate(rs.positive_roots):
            assert (g.up[x] >> c & 1) == (c in m_bits and rs.act(w, root) in positive)
            assert not g.moves[x] >> c & 1 or c in m_bits
    walked = list(g.up_steps())
    ends = sorted(walked + [(y, c, x) for x, c, y in walked])
    assert [(x, c) for x, c, _ in ends] == [(x, c) for x, m in enumerate(g.moves) for c in _bits(m)]
    edges = set()
    for x, c, y in ends:
        w, v = g.vertices[x], g.vertices[y]
        assert v == rs.mul(w, rs.reflection(rs.positive_roots[c]))
        assert (rs.length(v) > rs.length(w)) == bool(g.up[x] >> c & 1)
        edges.add(frozenset((w, v)))
    return edges


def test_arbitrary_graph_shapes():
    c2 = build_root_system("C", 2)
    hs = validate_hessenberg_space(c2, c2.parse_root_list("a1,a2,a1+a2"))
    g = arbitrary_gkm_graph(hs)
    assert g.vertices == c2.elements()
    assert len(_check_moves(c2, hs.roots, g)) == 12
    assert set(g.degrees()) == {3}
    assert g.sinks() == 1
    empty = validate_hessenberg_space(c2, frozenset())
    g0 = arbitrary_gkm_graph(empty)
    assert not any(g0.moves) and g0.sinks() == len(g0.vertices) == 8
    a2 = build_root_system("A", 2)
    hexagon = arbitrary_gkm_graph(validate_hessenberg_space(a2, {(1, 0), (0, 1)}))
    assert len(hexagon.vertices) == 6 and sum(m.bit_count() for m in hexagon.up) == 6


@pytest.mark.parametrize("type_label,rank", [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("G", 2), ("F", 4)])
def test_reflection_is_conjugate_of_simple_reflection(type_label, rank):
    # For beta = x(alpha_i) positive, s_beta = x s_i x^-1: a partner for the
    # coroot-row construction, which builds each reflection from beta alone.
    rs = build_root_system(type_label, rank)
    positive = set(rs.positive_roots)
    found = set()
    for x in rs.elements():
        x_inv = tuple(sorted(range(len(x)), key=x.__getitem__))
        for a, s in zip(rs.simple_roots, rs.generators):
            beta = rs.act(x, a)
            if beta in positive:
                assert rs.reflection(beta) == rs.mul(rs.mul(x, s), x_inv)
                found.add(beta)
    assert found == positive


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_reflection_steps_match_definition(type_label, rank):
    # The kernel of every space against the definition of its moment
    # graph: edges {w, w s_c} for c in M, each up from its shorter end.
    rs = build_root_system(type_label, rank)
    elements = rs.elements()
    for m in enumerate_hessenberg_spaces(rs):
        hs = validate_hessenberg_space(rs, m)
        g = arbitrary_gkm_graph(hs)
        assert g.regularity(len(m)).ok
        edges = {frozenset((w, rs.mul(w, rs.reflection(c)))) for w in elements for c in m}
        assert _check_moves(rs, m, g) == edges
        # Connectivity against a search over the definitional edges.
        adj = {w: set() for w in elements}
        for e in edges:
            u, v = e
            adj[u].add(v)
            adj[v].add(u)
        seen, stack = {rs.identity}, [rs.identity]
        while stack:
            for y in adj[stack.pop()] - seen:
                seen.add(y)
                stack.append(y)
        connected = len(seen) == len(elements)
        assert (g.sinks() == 1) == connected


@pytest.mark.parametrize(
    "type_label,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4), ("G", 2)]
)
def test_sinks_count_components(type_label, rank):
    # On [x, w0] for every space and a seeded sample of x, the kernel's
    # sinks against the components of a search over W along the moves
    # v -> v s_c, c in M, that stay inside the interval.
    rs = build_root_system(type_label, rank)
    elements = rs.elements()
    rng = random.Random(f"sinks {type_label}{rank}")
    for m in enumerate_hessenberg_spaces(rs):
        refl = [rs.reflection(c) for c in m]
        for x in [rs.identity, *rng.sample(elements, 3)]:
            ids = sorted(rs._interval_ids(rs._id(x)))
            g = _move_graph(validate_hessenberg_space(rs, m), ids)
            members, seen, components = set(g.vertices), set(), 0
            for v in g.vertices:
                if v not in seen:
                    components += 1
                    seen.add(v)
                    stack = [v]
                    while stack:
                        u = stack.pop()
                        for y in (rs.mul(u, s) for s in refl):
                            if y in members and y not in seen:
                                seen.add(y)
                                stack.append(y)
            assert g.sinks() == components, (m, x)


@pytest.mark.parametrize("type_label,rank", SYSTEMS)
def test_interval_move_graph_matches_bruhat_leq(type_label, rank):
    # The kernel of [w, w0] for a few seeded w and spaces, built as
    # classify_arbitrary builds it: its vertices are the v >= w of the
    # right-descent recursion, in (length, word) order, and its moves are
    # the space's reflection moves inside the interval.
    rs = build_root_system(type_label, rank)
    elements = rs.elements()
    spaces = enumerate_hessenberg_spaces(rs)
    rng = random.Random(f"{type_label}{rank}")
    for w in [rs.longest(), *rng.sample(elements, min(3, len(elements)))]:
        m = rng.choice(spaces)
        g = _move_graph(validate_hessenberg_space(rs, m), sorted(rs._interval_ids(rs._id(w))))
        interval = [v for v in elements if oracle_weyl_bruhat_leq(rs, w, v)]
        word = rs.canonical_word
        assert list(g.vertices) == sorted(interval, key=lambda v: (len(word(v)), word(v)))
        members = set(interval)
        inside = {frozenset((u, rs.mul(u, rs.reflection(c)))) for u in interval for c in m}
        assert _check_moves(rs, m, g) == {e for e in inside if e <= members}


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("A", 4), ("B", 3), ("C", 3), ("G", 2)])
def test_classify_arbitrary_violator_is_first_in_word_order(type_label, rank):
    # The reported violator is the least vertex of [w~, w0] in (length,
    # word) order whose degree, counted by the definition, differs from
    # the cell dimension; in the simply-laced types the verdict follows it.
    rs = build_root_system(type_label, rank)
    for m in enumerate_hessenberg_spaces(rs):
        hs = validate_hessenberg_space(rs, m)
        refl = [rs.reflection(c) for c in m]
        for w in rs.elements():
            report = classify_arbitrary(hs, w)
            _, rep = z_and_w(hs, rs.inversion_set(w) & m)
            interval = set(rs.bruhat_interval_up(rep))
            bad = [
                v
                for v in interval
                if sum(rs.mul(v, s) in interval for s in refl) != report.cell_dimension
            ]
            first = min(bad, key=lambda v: (len(rs.canonical_word(v)), rs.canonical_word(v))) if bad else None
            assert report.violating_vertex == (None if first is None else rs.format_element(first))
            assert report.regular == (first is None)
            assert (report.hess_schubert_smooth == "yes") == (report.regular and rs.simply_laced)


@pytest.mark.parametrize(
    "type_label,rank,regular_count",
    [("A", 3, 22), ("B", 3, 34), ("C", 3, 34), ("D", 4, 108), ("G", 2, 12)],
)
def test_full_m_regularity_matches_palindromy(type_label, rank, regular_count):
    # At M = Phi+ every class is one element, so the representative is w and
    # the variety is the Schubert variety of w0 w (up to w0): by
    # Carrell-Peterson its graph is regular iff the rank-generating
    # function of [w, w0] is palindromic.
    rs = build_root_system(type_label, rank)
    hs = validate_hessenberg_space(rs, rs.positive_roots)
    regular = 0
    for w in rs.elements():
        ranks = [0] * (len(rs.positive_roots) + 1 - rs.length(w))
        for v in rs.bruhat_interval_up(w):
            ranks[rs.length(v) - rs.length(w)] += 1
        report = classify_arbitrary(hs, w)
        assert report.regular == (ranks == ranks[::-1]), rs.format_element(w)
        regular += report.regular
    assert regular == regular_count


def test_classify_arbitrary_c2():
    c2 = build_root_system("C", 2)
    hs = validate_hessenberg_space(c2, c2.parse_root_list("a1,a2,a1+a2"))
    rep = classify_arbitrary(hs, c2.generators[0])
    assert rep.representative == "s2s1"
    assert rep.regular and not rep.simply_laced
    assert rep.hess_schubert_smooth == "unknown"
    assert rep.reason == "non-simply-laced"
    top = classify_arbitrary(hs, c2.longest())
    assert top.interval_size == 1 and top.regular


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_type_a_dictionary(n):
    rs = build_root_system("A", n - 1)
    ol = rs.one_line_map()
    inv_ol = {p: w for w, p in ol.items()}
    for h in hessenberg_functions(n):
        hs = hessenberg_space_from_function(rs, h)
        # admissible sets agree
        tops = {ol[x] for x in h_admissible_elements(hs)}
        assert tops == set(enumerate_admissible(h))
        # representative agrees with the window-order search
        for p in all_permutations(n):
            w = inv_ol[p]
            s = rs.inversion_set(w) & hs.roots
            _, w_top = z_and_w(hs, s)
            assert ol[w_top] == admissible_representative(p, h)[0]
        # class trace sizes match window inversion counts
        from hessgkm.hess import h_length

        for p in all_permutations(n):
            w = inv_ol[p]
            assert len(rs.inversion_set(w) & hs.roots) == h_length(p, h)
        # graphs agree through the dictionary
        g = arbitrary_gkm_graph(hs)
        edges = {
            frozenset({ol[g.vertices[x]], ol[g.vertices[y]]})
            for x, _, y in g.up_steps()
        }
        from hessgkm.graphs import build_hessenberg_graph

        assert edges == {frozenset((e.u, e.v)) for e in build_hessenberg_graph(h).edges}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_type_a_classification_agrees(n):
    rs = build_root_system("A", n - 1)
    ol = rs.one_line_map()
    inv_ol = {p: w for w, p in ol.items()}
    for h in hessenberg_functions(n):
        hs = hessenberg_space_from_function(rs, h)
        for p in all_permutations(n):
            rep = classify_arbitrary(hs, inv_ol[p])
            wt, _ = admissible_representative(p, h)
            regular = is_regular(interval_graph(h, wt), cell_dimension(wt, h)).ok
            assert rep.regular == regular
            r = classify(p, h)
            assert (rep.hess_schubert_smooth == "yes") == (r.hess_schubert_smooth == "yes")


def test_root_from_positions():
    rs = build_root_system("A", 3)
    assert root_from_positions(rs, 1, 2) == (1, 0, 0)
    assert root_from_positions(rs, 1, 4) == (1, 1, 1)
    assert root_from_positions(rs, 2, 4) == (0, 1, 1)
    with pytest.raises(ValueError):
        root_from_positions(rs, 2, 2)


def test_enumerate_hessenberg_spaces_counts():
    # closed subsets correspond to Hessenberg functions in type A
    for n in (2, 3, 4):
        rs = build_root_system("A", n - 1)
        assert len(enumerate_hessenberg_spaces(rs)) == len(hessenberg_functions(n))
