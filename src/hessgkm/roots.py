"""Root systems, Weyl groups, and Hessenberg spaces in arbitrary Lie type.

Roots are stored as integer coordinate vectors over the simple roots, so
"a1+a2" is (1, 1).  Supported types: A, B, C, D (while |W| is within
:data:`hessgkm.perms.SIZE_LIMIT`), G2, and F4.  Conventions follow the
standard Euclidean realizations; in particular for type C the last simple
root is long, so C2 has positive roots a1, a2, a1+a2, 2a1+a2.  Every
realization is integral: F4's usual one, with its half-integer root, is
doubled.  Only the Gram matrix is used, through one pairing: the integer
coroot row <alpha_j, beta^vee> = 2 (alpha_j, beta) / (beta, beta) of a root
beta, found by exact integer division.  It is a ratio of inner products, so
scaling a realization does not change it.  The simple rows are ``cartan``
and close the positive roots, and every reflection
s_beta(gamma) = gamma - <gamma, beta^vee> beta, the generators
and :meth:`RootSystem.reflections` alike, is built from beta's row.

Weyl group elements are stored as permutations of the signed root list
(positives first, then their negatives); this representation is faithful
and makes composition, inversion sets, and lengths cheap.  Composition is
function composition, matching :func:`hessgkm.perms.compose`.

Sets of positive roots are also integer masks (bit i is
``positive_roots[i]``), and an element's id is its position in
:meth:`RootSystem.elements`, which lists W in (length, word) order with
the canonical words, so ids sort as the reports do.  Each other table is
built once, on first use; all but the root tables are lists by id: the
moves to each longer w s_c, inversion masks (and the id of each mask), the
mask of roots each element sends to a negative simple root, the (a, b, a+b)
index triples, each root's down-closure and each root's label.
Left weak order is inversion-mask containment (Bjorner-Brenti,
Combinatorics of Coxeter Groups, Prop. 3.1.3).  The slow definitions behind
these tables (the right-descent Bruhat recursion, weak order by lengths, the
greedy word, Weyl type by closure) are oracles in :mod:`hessgkm.verify`.
The class layer and the moment graph work on ids; tuples of coordinates and
elements stay the type of every public argument and result, and a tuple
that is not a root or an element raises ``ValueError`` where it enters.

A Hessenberg space is a subset M of the positive roots closed under
subtracting positive roots (if a is in M, b is positive, and a - b is a
positive root, then a - b is in M) -- the root-level shadow of being a
module over the Borel.  The machinery built on M:

* Weyl-type subsets: S with both S and M - S closed under addition inside
  M; these are exactly the traces N(w) & M of inversion sets, and the
  library reads them off the class table.  The closure test over all 2^|M|
  subsets and a backtracker over M are oracles in :mod:`hessgkm.verify`.
* The partition of W into classes {w : N(w) & M = S}, one per Weyl-type S;
  each class is a left weak order interval [z_S, w_S], where z_S is the
  unique class member sending no positive root outside M to a negative
  simple root, and w_S = w0 * z_{M-S}, found by N(w0 z) = Phi+ - N(z).
  One pass over W per space buckets the ids by trace and finds every z_S,
  so each is found once and reused for the complement class; every member
  is checked to lie between the bounds by one AND/OR reduction of the
  class's inversion masks.  The space keeps the table, keyed by the trace
  masks in :func:`mask_order_key` order, with each trace's roots.
* The admissible elements: the class tops w_S.
* The moment graph on W with edges {w, w s_a} for a in M, and the
  regularity verdict on Bruhat interval subgraphs; the smoothness
  conclusion is withheld outside the simply-laced types.  It is the
  kernel :class:`hessgkm.graphs.MoveGraph` on the interval's elements in
  id order, so the first violator is the least by (length, word): the up
  bits at w are M - N(w), each mirrored into its target w s_c, whose id
  the reflection table's row of w names; the same walk of the rows builds
  the kernel's targets.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import cache, cached_property, reduce
from operator import and_, itemgetter, or_
from typing import NamedTuple

from .graphs import MoveGraph
from .perms import Perm, _fields, _integers, check_factorial, check_size, compose as perm_compose

Coords = tuple[int, ...]
Element = tuple[int, ...]  # permutation of the signed root index list


@cache
def _byte_bits(k: int) -> tuple[tuple[int, ...], ...]:
    """Per byte value b, the indices of the set bits of b as byte k of a mask."""
    return tuple(tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256))


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, in increasing order."""
    out: list[int] = []
    for k, b in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
        if b:
            out.extend(_byte_bits(k)[b])
    return out


# The least rank of each type; G and F have that rank alone.
_LEAST_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2, "F": 4}

_POSITIVE_COUNT = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "G": lambda r: 6,
    "F": lambda r: 24,
}


def _unit_diff(dim: int, i: int, j: int) -> tuple[int, ...]:
    v = [0] * dim
    v[i] = 1
    v[j] = -1
    return tuple(v)


def _weyl_order(t: str, rank: int) -> int:
    """|W| of type t and rank ``rank``, within the size limit.  The type,
    the rank and the limit are checked first, and nothing of the rank's
    size is built before: the order m! 2^s of A-D is bounded by
    :func:`hessgkm.perms.check_factorial` before it is taken."""
    least = _LEAST_RANK.get(t)
    if least is None:
        raise ValueError(f"unsupported type {t!r} (supported: A, B, C, D, G2, F4)")
    if t in ("G", "F"):
        if rank != least:
            raise ValueError(f"type {t} has rank {least}")
        return 12 if t == "G" else 1152
    if rank < least:
        raise ValueError(f"type {t} needs rank >= {least}")
    m, s = (rank + 1, 0) if t == "A" else (rank, rank - (t == "D"))
    check_factorial(m, f"W({t}{rank})", s)
    return math.factorial(m) << s


def _simple_roots_euclidean(t: str, rank: int) -> list[tuple[int, ...]]:
    """The simple roots of a type and rank that :func:`_weyl_order` passed."""
    if t == "A":
        return [_unit_diff(rank + 1, i, i + 1) for i in range(rank)]
    if t in ("B", "C"):
        out = [_unit_diff(rank, i, i + 1) for i in range(rank - 1)]
        last = [0] * rank
        last[rank - 1] = 1 if t == "B" else 2
        return out + [tuple(last)]
    if t == "D":
        out = [_unit_diff(rank, i, i + 1) for i in range(rank - 1)]
        last = [0] * rank
        last[rank - 2] = 1
        last[rank - 1] = 1
        return out + [tuple(last)]
    if t == "G":
        return [(1, -1, 0), (-2, 1, 1)]
    # F4: the usual realization doubled, so that it is integral.
    return [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]


def _reflect_coords(gamma: Coords, beta: Coords, row: tuple[int, ...]) -> Coords:
    """s_beta(gamma) = gamma - <gamma, beta^vee> beta, given beta's coroot row."""
    k = sum(x * y for x, y in zip(gamma, row))
    return tuple(x - k * y for x, y in zip(gamma, beta))


def _root_int(field: str, text: str) -> int:
    """A coordinate, coefficient or index of the root ``text`` as an int."""
    try:
        return int(field)
    except ValueError:
        raise ValueError(f"cannot parse root {text!r}: {field!r} is not an integer") from None


class RootSystem:
    """Positive roots, reflections, and the Weyl group of one Cartan type."""

    def __init__(self, type_label: str, rank: int):
        type_label = type_label.upper()
        # Covers A<=7, B/C<=6, D<=6, G2, F4; E types are not built here.
        self.order = _weyl_order(type_label, rank)
        simples = _simple_roots_euclidean(type_label, rank)
        self.type_label = type_label
        self.rank = rank
        # gram[i][j] = (alpha_i, alpha_j), an integer
        self._gram = [[sum(a * b for a, b in zip(x, y)) for y in simples] for x in simples]
        self.simple_roots: tuple[Coords, ...] = tuple(
            tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)
        )
        # cartan[i][j] = <alpha_j, alpha_i^vee>: the coroot rows of the simple roots
        self.cartan = [list(self._coroot(a)) for a in self.simple_roots]
        self.positive_roots = self._close_positive_roots()
        expected = _POSITIVE_COUNT[type_label](rank)
        if len(self.positive_roots) != expected:
            raise RuntimeError(
                f"positive root closure produced {len(self.positive_roots)} roots, "
                f"expected {expected}"
            )
        self._pos_index = {c: i for i, c in enumerate(self.positive_roots)}
        p = len(self.positive_roots)
        self._num_positive = p
        self._signed: tuple[Coords, ...] = self.positive_roots + tuple(
            tuple(-x for x in c) for c in self.positive_roots
        )
        self._signed_index = {c: i for i, c in enumerate(self._signed)}
        self._simple_indices = tuple(self._pos_index[c] for c in self.simple_roots)
        self.identity: Element = tuple(range(2 * p))
        self.generators: tuple[Element, ...] = tuple(map(self._reflect, self.simple_roots))
        self._elements: tuple[Element, ...] | None = None
        self._words: tuple[tuple[int, ...], ...] | None = None

    # -- construction ----------------------------------------------------------

    def _coroot(self, beta: Coords) -> tuple[int, ...]:
        """The coroot row of ``beta``: <alpha_j, beta^vee> = 2 (alpha_j, beta) / (beta, beta)
        for each simple root alpha_j, from the Gram matrix."""
        ab = [sum(g * b for g, b in zip(gram_j, beta)) for gram_j in self._gram]
        bb = sum(b * x for b, x in zip(beta, ab))
        pairing = [divmod(2 * x, bb) for x in ab]
        if any(r for _, r in pairing):
            raise RuntimeError(f"non-integral coroot pairing for {beta}")
        return tuple(k for k, _ in pairing)

    def _close_positive_roots(self) -> tuple[Coords, ...]:
        seen = set(self.simple_roots)
        frontier = list(seen)
        while frontier:
            nxt = []
            for c in frontier:
                for a, row in zip(self.simple_roots, self.cartan):
                    img = _reflect_coords(c, a, row)
                    if min(img) >= 0 and img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        return tuple(sorted(seen, key=lambda c: (sum(c), tuple(-x for x in c))))

    def _reflect(self, beta: Coords) -> Element:
        """The reflection in the root ``beta``, as a signed-root permutation."""
        row, index = self._coroot(beta), self._signed_index
        return tuple(index[_reflect_coords(c, beta, row)] for c in self._signed)

    # -- element operations ------------------------------------------------------

    def act(self, w: Element, coords: Coords) -> Coords:
        """w(root) for a root of either sign; w is checked."""
        self._id(w)
        return self._signed[w[self._signed_root_index(coords)]]

    def mul(self, a: Element, b: Element) -> Element:
        """Function composition: (a*b)(root) = a(b(root)), each factor checked."""
        self._id(a), self._id(b)
        return tuple([a[x] for x in b])

    def length(self, w: Element) -> int:
        self._id(w)
        p = self._num_positive
        return sum(1 for i in range(p) if w[i] >= p)

    def inversion_set(self, w: Element) -> frozenset[Coords]:
        self._id(w)
        p = self._num_positive
        return frozenset(self._signed[i] for i in range(p) if w[i] >= p)

    def inversion_mask(self, w: Element) -> int:
        self._id(w)
        return self._inversion_mask(w)

    def _inversion_mask(self, w: Element) -> int:
        p = self._num_positive
        mask = 0
        for i in range(p):
            if w[i] >= p:
                mask |= 1 << i
        return mask

    def _index(self, coords: Coords) -> int:
        """The index of a positive root, a tuple or a list; a ``ValueError``
        names anything else."""
        try:
            i = self._pos_index.get(tuple(coords))
        except TypeError:  # not a sequence, or an unhashable entry
            i = None
        if i is None:
            raise ValueError(f"{coords} is not a positive root of {self.type_label}{self.rank}")
        return i

    def _signed_root_index(self, coords: Coords) -> int:
        """The index of a root of either sign; a ``ValueError`` names anything else."""
        i = self._signed_index.get(coords)
        if i is None:
            raise ValueError(f"{coords} is not a root of {self.type_label}{self.rank}")
        return i

    def mask_of(self, roots) -> int:
        mask = 0
        for c in roots:
            mask |= 1 << self._index(c)
        return mask

    def roots_of_mask(self, mask: int) -> frozenset[Coords]:
        """The positive roots of the bits of ``mask``, an int of no bit past
        the last root; a ``ValueError`` names anything else."""
        if not isinstance(mask, int) or mask < 0 or mask >> self._num_positive:
            raise ValueError(
                f"mask {mask!r} is not a set of the {self._num_positive} positive roots of {self.type_label}{self.rank}"
            )
        return self._roots_of_mask(mask)

    def _roots_of_mask(self, mask: int) -> frozenset[Coords]:
        return frozenset(map(self.positive_roots.__getitem__, _bits(mask)))

    def reflection(self, coords: Coords) -> Element:
        """The reflection in a positive root, as a signed-root permutation."""
        return self.reflections()[self._index(coords)]

    def reflections(self) -> tuple[Element, ...]:
        """The reflections in the positive roots, in root order."""
        return self._reflections

    @cached_property
    def _reflections(self) -> tuple[Element, ...]:
        return tuple(map(self._reflect, self.positive_roots))

    # -- group enumeration ---------------------------------------------------------

    def elements(self) -> tuple[Element, ...]:
        """The whole group in (length, word) order, by left multiplication:
        s_1, s_2, ... in turn times each element of a layer, in order, first
        reach x from s_i x for i its least left descent, so x's canonical
        word is (i,) + word(s_i x) and the next layer is in word order too."""
        if self._elements is None:
            elements, words = [self.identity], [()]
            seen, layer = {self.identity}, range(1)
            while layer:
                start = len(elements)
                # times(s) is s x for the element x of id k
                left = [itemgetter(*elements[k]) for k in layer]
                for i, s in enumerate(self.generators):
                    for k, times in zip(layer, left):
                        x = times(s)
                        if x not in seen:
                            seen.add(x)
                            elements.append(x)
                            words.append((i, *words[k]))
                layer = range(start, len(elements))
            if len(elements) != self.order:
                raise RuntimeError(f"enumerated {len(elements)} elements, expected {self.order}")
            self._elements, self._words = tuple(elements), tuple(words)
        return self._elements

    def longest(self) -> Element:
        return self.elements()[-1]

    # -- tables by element id, built on first use by the Hessenberg-space functions --
    #
    # An element's id is its position in :meth:`elements`.  Tuples enter the
    # id space through :meth:`_id` and leave it only where a public function
    # returns elements.

    @cached_property
    def _sum_triples(self) -> tuple[tuple[int, int, int], ...]:
        """Index triples (a, b, c) of positive roots with a < b and a + b = c."""
        roots, pos = self.positive_roots, self._pos_index
        out = []
        for a, x in enumerate(roots):
            for b in range(a + 1, len(roots)):
                c = pos.get(tuple(u + v for u, v in zip(x, roots[b])))
                if c is not None:
                    out.append((a, b, c))
        return tuple(out)

    @cached_property
    def _down_masks(self) -> tuple[int, ...]:
        """Per positive root, the mask of the roots reached from it by
        subtracting positive roots, itself included."""
        down = [1 << i for i in range(self._num_positive)]
        # c - b = a and c - a = b; the roots are in height order, so a and b
        # are complete before c is reached.
        for a, b, c in sorted(self._sum_triples, key=lambda t: t[2]):
            down[c] |= down[a] | down[b]
        return tuple(down)

    @cached_property
    def _ids(self) -> dict[Element, int]:
        return {w: k for k, w in enumerate(self.elements())}

    def _id(self, w: Element) -> int:
        """The id of ``w``, a tuple or a list; a ``ValueError`` names anything not in W."""
        try:
            k = self._ids.get(tuple(w))
        except TypeError:  # not a sequence, or an unhashable entry
            k = None
        if k is None:
            raise ValueError(f"{w} is not an element of W({self.type_label}{self.rank})")
        return k

    @cached_property
    def _inv_masks(self) -> tuple[int, ...]:
        return tuple(map(self._inversion_mask, self.elements()))

    @cached_property
    def _id_of_mask(self) -> dict[int, int]:
        return {mask: k for k, mask in enumerate(self._inv_masks)}

    @cached_property
    def _neg_simple_masks(self) -> tuple[int, ...]:
        """Per id, the mask of positive roots sent to negative simple roots."""
        p = self._num_positive
        neg_simple = {p + i for i in self._simple_indices}
        return tuple(
            sum(1 << i for i in range(p) if w[i] in neg_simple) for w in self.elements()
        )

    @cached_property
    def _steps(self) -> tuple[itemgetter, ...]:
        """Per positive root c, right multiplication by s_c: w -> w s_c."""
        return tuple(itemgetter(*s) for s in self.reflections())

    @cached_property
    def _reflection_table(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per id, the moves (c, id of w s_c) over the positive roots c in
        order with w(c) > 0: those make w longer (the chain definition,
        Bjorner-Brenti, ch. 2)."""
        ids, p, steps = self._ids, self._num_positive, self._steps
        return tuple(
            tuple((c, ids[steps[c](w)]) for c in range(p) if w[c] < p)
            for w in self.elements()
        )

    def canonical_word(self, w: Element) -> tuple[int, ...]:
        """Reduced word, greedy smallest left descent first (0-indexed letters)."""
        k = self._id(w)  # enumerates W, which lists the words
        return self._words[k]

    def format_element(self, w: Element) -> str:
        return self._format_id(self._id(w))

    def _format_id(self, k: int) -> str:
        word = self._words[k]
        return "".join(f"s{i + 1}" for i in word) if word else "e"

    # -- orders ----------------------------------------------------------------------

    def bruhat_interval_up(self, w: Element) -> tuple[Element, ...]:
        """[w, w0] in (length, word) order, searched along the moves
        x -> x s_c with x(c) > 0.

        >>> g2 = build_root_system("G", 2)
        >>> len(g2.bruhat_interval_up(g2.identity)), len(g2.bruhat_interval_up(g2.longest()))
        (12, 1)
        """
        return tuple(map(self.elements().__getitem__, sorted(self._interval_ids(self._id(w)))))

    def _interval_ids(self, k: int) -> set[int]:
        """The ids of [w, w0] for the element w of id ``k``."""
        rows, seen, layer = self._reflection_table, {k}, {k}
        while layer:
            layer = {y for x in layer for _, y in rows[x]} - seen
            seen |= layer
        check_size(len(seen), "upper Bruhat interval")
        return seen

    # -- text forms ---------------------------------------------------------------------

    def format_root(self, coords: Coords) -> str:
        """The label of a positive root, as in ``a1+2a2``; a ``ValueError``
        names anything else."""
        return self._root_labels[self._index(coords)]

    @cached_property
    def _root_labels(self) -> tuple[str, ...]:
        """The label of each positive root, in root order."""
        labels = []
        for coords in self.positive_roots:
            terms = [f"a{j + 1}" if c == 1 else f"{c}a{j + 1}" for j, c in enumerate(coords) if c]
            labels.append("+".join(terms))
        return tuple(labels)

    def format_roots(self, roots) -> list[str]:
        """The labels of a set of positive roots, in root order."""
        return [self._root_labels[i] for i in sorted(map(self._index, roots))]

    def format_root_set(self, roots) -> str:
        return "{" + ", ".join(self.format_roots(roots)) + "}"

    def parse_root(self, text: str) -> Coords:
        text = text.strip()
        if not text:
            raise ValueError("empty root")
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError(f"unbalanced brackets in {text!r}")
            coords = tuple(_root_int(x, text) for x in _fields(text[1:-1].split(","), text))
            if len(coords) != self.rank:
                raise ValueError(f"expected {self.rank} coordinates in {text!r}")
        else:
            acc = [0] * self.rank
            for term in text.split("+"):
                term = term.strip()
                if "a" not in term:
                    raise ValueError(f"cannot parse root term {term!r}")
                coeff_s, idx_s = term.split("a", 1)
                coeff = _root_int(coeff_s, text) if coeff_s else 1
                idx = _root_int(idx_s, text)
                if not (1 <= idx <= self.rank):
                    raise ValueError(f"no simple root a{idx} at rank {self.rank}")
                acc[idx - 1] += coeff
            coords = tuple(acc)
        if coords not in self._pos_index:
            raise ValueError(f"{text!r} = {coords} is not a positive root")
        return coords

    def parse_root_list(self, text: str) -> frozenset[Coords]:
        """Comma-separated roots (not the commas inside [...]).  A list of no
        roots, blank or commas only, is empty; an empty item beside a root, or
        brackets that do not balance, raise."""
        items = []
        depth = 0
        current: list[str] = []
        for ch in text:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            if depth < 0:
                break
            if ch == "," and depth == 0:
                items.append("".join(current))
                current = []
            else:
                current.append(ch)
        if depth:
            raise ValueError(f"unbalanced brackets in {text!r}")
        items.append("".join(current))
        if not "".join(items).strip():
            return frozenset()
        return frozenset(map(self.parse_root, _fields(items, text)))

    @property
    def simply_laced(self) -> bool:
        return self.type_label in ("A", "D")

    # -- type A dictionary -----------------------------------------------------------------

    def one_line_map(self) -> dict[Element, Perm]:
        """For type A: element -> one-line permutation of S_{rank+1}, along
        the canonical words: the word (i,) + word(s_i x) of x gives s_i o x."""
        if self.type_label != "A":
            raise ValueError("one-line notation only applies to type A")
        n = self.rank + 1
        adjacent = []
        for i in range(self.rank):
            p = list(range(1, n + 1))
            p[i], p[i + 1] = p[i + 1], p[i]
            adjacent.append(tuple(p))
        elements = self.elements()
        perm = {(): tuple(range(1, n + 1))}
        for word in self._words[1:]:
            perm[word] = perm_compose(adjacent[word[0]], perm[word[1:]])
        return {x: perm[word] for x, word in zip(elements, self._words)}


def build_root_system(type_label: str, rank: int) -> RootSystem:
    return RootSystem(type_label, rank)


# -- Hessenberg spaces ------------------------------------------------------------


class HessenbergSpace:
    """A closed subset M of the positive roots of ``rs``, with its mask and,
    once built, its class table.  Equality is identity."""

    __slots__ = ("rs", "roots", "mask", "_classes")

    def __init__(self, rs: RootSystem, roots: frozenset[Coords], mask: int):
        self.rs, self.roots, self.mask, self._classes = rs, roots, mask, None


def validate_hessenberg_space(rs: RootSystem, roots) -> HessenbergSpace:
    """Check closure under subtracting positive roots and wrap the subset."""
    m = frozenset(_integers(c, f"coordinate {{}} of root {tuple(c)}") for c in roots)
    m_mask, down, pos = rs.mask_of(m), rs._down_masks, rs._pos_index
    # M is closed iff it holds the down-closure of each of its roots; the
    # pairwise scan runs only to name the first missing difference.
    if any(down[c] & ~m_mask for c in _bits(m_mask)):
        for alpha in m:
            for beta in rs.positive_roots:
                diff = tuple(a - b for a, b in zip(alpha, beta))
                if diff in pos and diff not in m:
                    raise ValueError(
                        f"not closed under subtraction: {rs.format_root(alpha)} - "
                        f"{rs.format_root(beta)} = {rs.format_root(diff)} is missing"
                    )
        raise RuntimeError("down-closure and pairwise closure disagree")
    return HessenbergSpace(rs, m, m_mask)


_SWAP_01 = str.maketrans("01", "10")


def mask_order_key(mask: int) -> tuple[int, str]:
    """Order on root masks: by size, then by the sorted root indices.

    Among masks of one size the first differing index decides, and it is
    the lowest bit of the difference; so the second part is the bit string
    read from bit 0 up with 0 and 1 swapped (the bit-reversed mask,
    negated), and as a string it fixes no width.
    """
    return mask.bit_count(), bin(mask)[:1:-1].translate(_SWAP_01)


def submasks(mask: int):
    """Every submask of `mask`, from `mask` itself down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _class_table(hs: HessenbergSpace) -> dict[int, tuple[frozenset[Coords], tuple[int, ...], int, int]]:
    """Per trace mask S, sorted by :func:`mask_order_key`: the roots of S,
    the class {w : N(w) & M = S} as ids in (length, word) order, and the
    ids of z_S and w_S.  Built once per space.

    The traces are exactly the Weyl-type subsets, so one pass over W finds
    them: it buckets the ids by trace and finds each class's z candidates,
    the members sending no positive root outside M to a negative simple
    root; each class must have exactly one.  Then w_S = w0 * z_{M-S}
    reuses the z of the complement class, which must exist, and the whole
    class is checked to lie between z_S and w_S in left weak order.
    """
    if hs._classes is not None:
        return hs._classes
    rs, m_mask = hs.rs, hs.mask
    inv, neg, outside = rs._inv_masks, rs._neg_simple_masks, ~m_mask
    buckets: dict[int, list[int]] = defaultdict(list)
    z_hits: dict[int, list[int]] = defaultdict(list)
    for k in range(rs.order):
        s = inv[k] & m_mask
        buckets[s].append(k)
        if not neg[k] & outside:
            z_hits[s].append(k)
    for s in buckets:
        if len(z_hits[s]) != 1:
            raise RuntimeError(f"expected exactly one class minimum, found {len(z_hits[s])}")
    every = (1 << rs._num_positive) - 1
    table = {}
    for s in sorted(buckets, key=mask_order_key):
        if m_mask & ~s not in buckets:
            raise RuntimeError("complement of a Weyl-type subset has no class")
        members, z = buckets[s], z_hits[s][0]
        # N(w0 z') is the complement of N(z') in Phi+, here for z' = z_{M-S}.
        w = rs._id_of_mask[every & ~inv[z_hits[m_mask & ~s][0]]]
        if inv[w] & m_mask != s:
            raise RuntimeError("computed class maximum lies outside the class")
        # Every member x has N(z) <= N(x) <= N(w) iff N(z) lies in the
        # meet of the members' masks and their join lies in N(w).
        masks = [inv[k] for k in members]
        if inv[z] & ~reduce(and_, masks) or reduce(or_, masks) & ~inv[w]:
            raise RuntimeError("class is not sandwiched between z_S and w_S")
        table[s] = rs._roots_of_mask(s), tuple(members), z, w
    hs._classes = table
    return table


def weyl_type_subsets(hs: HessenbergSpace) -> list[frozenset[Coords]]:
    """All Weyl-type subsets of M, the class traces, sorted by (size, root
    order).  Each call returns a new list."""
    return [row[0] for row in _class_table(hs).values()]


def partition_classes(hs: HessenbergSpace) -> dict[frozenset[Coords], tuple[Element, ...]]:
    """Group W by the trace of the inversion set on M.  Keys come in the
    order of :func:`weyl_type_subsets`; each class is sorted by (length,
    word)."""
    at = hs.rs.elements().__getitem__
    return {sub: tuple(map(at, members)) for sub, members, _, _ in _class_table(hs).values()}


def z_and_w(hs: HessenbergSpace, subset) -> tuple[Element, Element]:
    """The minimum z_S and maximum w_S of the class of S in left weak order.

    z_S comes from the characterization scan; w_S = w0 * z_{M-S}.  Both are
    verified to bound the class (inversion-mask containment), which doubles
    as an internal self-check.  Memoized per space.
    """
    elements = hs.rs.elements()
    z, w = _class_bounds(hs, hs.rs.mask_of(subset))
    return elements[z], elements[w]


def _class_bounds(hs: HessenbergSpace, s: int) -> tuple[int, int]:
    """The ids of z_S and w_S for the mask ``s`` of S."""
    row = _class_table(hs).get(s)
    if row is None:
        rs = hs.rs
        raise ValueError(f"{rs.format_root_set(rs.roots_of_mask(s))} is not a Weyl-type subset of M")
    return row[2], row[3]


def h_admissible_elements(hs: HessenbergSpace) -> list[Element]:
    """The class tops w_S over all Weyl-type S, sorted by (length, word)."""
    tops = {row[3] for row in _class_table(hs).values()}
    return list(map(hs.rs.elements().__getitem__, sorted(tops)))


def enumerate_hessenberg_spaces(rs: RootSystem) -> list[frozenset[Coords]]:
    """All subsets of the positive roots closed under subtracting positive
    roots, grown from below by adding one root's down-closure at a time."""
    down = rs._down_masks
    spaces = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for m in frontier:
            for d in down:
                grown = m | d
                if grown not in spaces:
                    spaces.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return [rs._roots_of_mask(m) for m in sorted(spaces, key=mask_order_key)]


# -- moment graph over W -----------------------------------------------------------


def _move_graph(hs: HessenbergSpace, ids) -> MoveGraph:
    """The moment graph of M on the elements of ``ids``, an upset of W, in
    their order: bit c at w is the edge {w, w s_c}, c in M, an up-step where
    w(c) > 0.  The up bits are M - N(w); each is mirrored into its target
    along the up rows of the reflection table, which name the target's id.
    The target builder is the same walk of the rows."""
    rs = hs.rs
    m_mask, inv, rows = hs.mask, rs._inv_masks, rs._reflection_table
    local = {k: x for x, k in enumerate(ids)}
    up = [m_mask & ~inv[k] for k in ids]
    moves = up[:]
    for k in ids:
        for c, y in rows[k]:
            if m_mask >> c & 1:
                moves[local[y]] |= 1 << c

    def up_steps(g):
        for x, k in enumerate(ids):
            for c, y in rows[k]:
                if m_mask >> c & 1:
                    yield x, c, local[y]

    return MoveGraph(tuple(map(rs.elements().__getitem__, ids)), moves, up, rs._num_positive, up_steps)


def arbitrary_gkm_graph(hs: HessenbergSpace) -> MoveGraph:
    """Moment graph on all of W, in :meth:`RootSystem.elements` order:
    edges {w, w s_a} for a in M."""
    return _move_graph(hs, range(hs.rs.order))


class WeylClassification(NamedTuple):
    type_label: str
    rank: int
    element: str
    class_subset: tuple[str, ...]
    representative: str
    cell_dimension: int
    interval_size: int
    regular: bool
    violating_vertex: str | None
    simply_laced: bool
    hess_schubert_smooth: str
    reason: str | None

    def to_json_dict(self) -> dict:
        return {
            "type": self.type_label,
            "rank": self.rank,
            "element": self.element,
            "class_subset": list(self.class_subset),
            "representative": self.representative,
            "cell_dimension": self.cell_dimension,
            "interval_size": self.interval_size,
            "regular": self.regular,
            "violating_vertex": self.violating_vertex,
            "simply_laced": self.simply_laced,
            "hess_schubert_smooth": self.hess_schubert_smooth,
            "reason": self.reason,
        }


def classify_arbitrary(hs: HessenbergSpace, w: Element) -> WeylClassification:
    """Regularity of the interval graph at the admissible representative of
    w, with the smoothness verdict gated on the simply-laced hypothesis."""
    rs = hs.rs
    k = rs._id(w)
    s = rs._inv_masks[k] & hs.mask
    _, rep = _class_bounds(hs, s)
    # The first violator in (length, word) order, as the report shows it.
    interval = sorted(rs._interval_ids(rep))
    expected = len(hs.roots) - s.bit_count()
    regular, violator = _move_graph(hs, interval).regularity(expected)
    if not regular:
        smooth, reason = "unknown", "interval graph is not regular"
    elif not rs.simply_laced:
        smooth, reason = "unknown", "non-simply-laced"
    else:
        smooth, reason = "yes", None
    return WeylClassification(
        type_label=rs.type_label,
        rank=rs.rank,
        element=rs._format_id(k),
        class_subset=tuple(map(rs._root_labels.__getitem__, _bits(s))),
        representative=rs._format_id(rep),
        cell_dimension=expected,
        interval_size=len(interval),
        regular=regular,
        violating_vertex=None if violator is None else rs.format_element(violator),
        simply_laced=rs.simply_laced,
        hess_schubert_smooth=smooth,
        reason=reason,
    )
