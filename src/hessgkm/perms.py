"""Exact arithmetic on the symmetric group and its strong Bruhat order.

A permutation w of [n] = {1, ..., n} is a tuple holding the values
(w(1), ..., w(n)) -- one-line notation, 1-indexed -- so ``w[i-1]`` is the
image of i.  Composition follows the function convention,
``compose(u, v)(i) == u(v(i))``.

The Bruhat order is decided by the tableau criterion (Ehresmann;
Bjorner and Brenti, *Combinatorics of Coxeter Groups*, ch. 2): u <= v iff
for every k the increasingly sorted prefixes satisfy sorted(u[:k]) <=
sorted(v[:k]) entrywise, that is iff for every k and threshold t, v[:k]
holds at least as many values >= t as u[:k].  The differences of those
counts, one slack per threshold, are packed into fixed-width fields of one
int (:func:`_slack_layout`), so a position costs one add and one test.  An
independent chain oracle for the same order, and the sorted-prefix loop,
live in :mod:`hessgkm.verify`.

Upper intervals [w, w0] are built by one enumerator for every n.  The
k-th condition involves only the set of v[:k], so a prefix is dropped as
soon as its set fails (no extension of it lies above w), and two prefixes
holding the same set have the same tails.  The tails after each prefix set
are therefore listed once, memoized by the set's bitmask, as byte columns
(:func:`_lane_bytes`): column c holds entry c of every tail, in
lexicographic order.  The tails after S are x followed by those after
S + {x}, for x ascending, so x's byte repeated heads them and column c + 1
joins the children's columns c: no object is made per tail.  The kernel of
:mod:`hessgkm.graphs` reads the columns, and :func:`bruhat_interval_lex`
zips them into tuples.  The conditions are the same packed slack fields,
so the test for the next value is O(1).  The cost follows the size of the
interval rather than n!.

Position pairs share one bit layout: bit k stands for the k-th pair of
:func:`transpositions`, (1, 2), (1, 3), ..., (n-1, n).  :func:`inversion_mask`
gives the inversions of w in it, and :func:`length` is its bit count; the
window inversions of :mod:`hessgkm.hess` are the same mask under a window
mask, and :mod:`hessgkm.graphs` names an interval's edges by their bits.
The memo caches here are keyed by w alone.

Every verb guards the factorial growth of S_n, W and the intervals with
one bound, :data:`SIZE_LIMIT`, on the elements a call would materialize;
:func:`check_size` raises ``ValueError`` naming it, so the CLI exits 2.
A factorial count is bounded by :func:`check_factorial` before it is taken.

Text form: a digit string for n <= 9 (``"4312"``), comma-separated values
for larger n (``"10,3,1,2,4,5,6,7,8,9"``).
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from functools import lru_cache
from typing import Iterable, Iterator

Perm = tuple[int, ...]

# The most elements any call materializes: 8! = 40,320 fits, 9! does not.
SIZE_LIMIT = 1 << 16


# Python prints no int of more than 4,300 digits, about 14,280 bits; a
# longer count is named by a power of two below it.
_PRINTED_BITS = 14_000


def check_size(count: int, what: str) -> None:
    """Fail fast when ``what`` would hold more than SIZE_LIMIT items."""
    if count > SIZE_LIMIT:
        bits = count.bit_length() - 1
        _refuse(count if bits < _PRINTED_BITS else f"more than 2^{bits}", what)


def check_factorial(n: int, what: str, shift: int = 0) -> None:
    """:func:`check_size` of n! 2^shift, the order of S_n or of a Weyl
    group.  A base-2 log bound from ``lgamma`` comes first, so an order too
    long to print is refused by a power of two below it, and neither it nor
    n! is built.  (2^50)! is far past printing, and n! exceeds it for any
    larger n."""
    bits = int(math.lgamma(min(n, 1 << 50) + 1) / math.log(2)) + shift - 1
    if bits >= _PRINTED_BITS:
        _refuse(f"more than 2^{bits}", what)
    check_size(math.factorial(n) << shift, what)


def _refuse(count, what: str):
    raise ValueError(f"{what}: {count} items exceed the size limit SIZE_LIMIT = {SIZE_LIMIT}")


def _integers(values, name: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints.  A ``ValueError`` names the first one
    that is not integral by ``name``, whose ``{}`` takes its 1-based index."""
    values = tuple(values)
    if set(map(type, values)) <= {int}:  # the common case, at C speed
        return values
    for i, x in enumerate(values, 1):
        try:
            if int(x) == x:
                continue
        except (TypeError, ValueError, OverflowError):  # an entry int() refuses
            pass
        raise ValueError(f"{name.format(i)} = {x!r} is not an integer")
    return tuple(map(int, values))


def as_permutation(entries: Iterable[int], name: str = "w") -> Perm:
    """Validate one-line entries, named ``name`` in a ``ValueError``, and return them as a tuple.

    >>> as_permutation([4, 3, 1, 2])
    (4, 3, 1, 2)
    """
    w = _integers(entries, name + "({})")
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{name} = {w!r} is not a permutation of 1..{len(w)}")
    return w


def identity(n: int) -> Perm:
    if n < 1:
        raise ValueError("rank must be at least 1")
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The order-reversing permutation n, n-1, ..., 1.

    >>> longest_element(3)
    (3, 2, 1)
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    return tuple(range(n, 0, -1))


def all_permutations(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def _check_same_rank(u: Perm, v: Perm) -> None:
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")


def compose(u: Perm, v: Perm) -> Perm:
    """Function composition: ``compose(u, v)(i) == u(v(i))``.

    >>> compose((1, 4, 2, 3), (4, 3, 1, 2))
    (3, 2, 1, 4)
    """
    _check_same_rank(u, v)
    return tuple(u[x - 1] for x in v)


def left_multiply(u: Perm, vs: Iterable[Perm]) -> Iterator[Perm]:
    """``compose(u, v)`` for each v of ``vs``, all of u's rank, through one
    lookup tuple.

    >>> list(left_multiply((1, 4, 2, 3), [(4, 3, 1, 2), (1, 2, 3, 4)]))
    [(3, 2, 1, 4), (1, 4, 2, 3)]
    """
    at = (0, *u).__getitem__
    return (tuple(map(at, v)) for v in vs)


def inverse(w: Perm) -> Perm:
    """Position lookup.  An entry outside 1..n or not integral fills no slot
    and a repeated one fills a slot twice, so a slot left empty raises
    ``ValueError``.  No hot path relies on this check: the library's cores
    build their position lists in place on permutations already checked.

    >>> inverse((4, 3, 1, 2))
    (3, 4, 2, 1)
    """
    n = len(w)
    out = [0] * n
    try:
        for i, x in enumerate(w, 1):
            if 0 < x <= n:
                out[x - 1] = i
    except TypeError:  # a non-integral entry fills no slot, so one stays empty
        pass
    if 0 in out:
        raise ValueError(f"w = {w!r} is not a permutation of 1..{n}")
    return tuple(out)


@lru_cache(maxsize=None)
def inversion_mask(w: Perm) -> int:
    """The inversions of w as a bitmask: bit k is set iff the k-th pair
    (i, j) of :func:`transpositions` has w(i) > w(j).

    >>> bin(inversion_mask((3, 1, 2)))
    '0b11'
    """
    mask = 0
    bit = 1
    for i, x in enumerate(w):
        for y in w[i + 1:]:
            if x > y:
                mask |= bit
            bit <<= 1
    return mask


@lru_cache(maxsize=None)
def length(w: Perm) -> int:
    """Number of inversions, i.e. the Coxeter length; w is checked on a cache miss.

    >>> length((3, 2, 1, 4))
    3
    """
    return inversion_mask(as_permutation(w)).bit_count()


def apply_transposition(w: Perm, i: int, j: int) -> Perm:
    """Right multiplication by the transposition (i, j): swap positions i, j.

    >>> apply_transposition((4, 3, 2, 1), 3, 4)
    (4, 3, 1, 2)
    """
    n = len(w)
    if not (1 <= i < j <= n):
        raise ValueError(f"positions must satisfy 1 <= i < j <= {n}, got ({i}, {j})")
    out = list(w)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def transpositions(n: int) -> list[tuple[int, int]]:
    """All position pairs (i, j) with 1 <= i < j <= n, in lexicographic
    order; the k-th pair is bit k of every position-pair mask."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@lru_cache(maxsize=None)
def _slack_layout(n: int) -> tuple[int, tuple[int, ...], int]:
    """The packed slack fields of rank n: (width, below, guards).  Field t,
    for t = 1..n, is ``width`` bits at bit t * width; ``below[x]`` has a one
    in each field 1..x (the thresholds t <= x that a value x counts for), and
    ``guards`` the top bit of each field.  A count is at most n <
    2 ** (width - 1), so a field biased by its guard bit stays within its
    width from one below the bias upward, and its guard is off iff it is
    below the bias.  :func:`bruhat_leq` keeps biased fields and
    :func:`bruhat_interval_lex` plain ones."""
    width = n.bit_length() + 1
    below = [0] * (n + 1)
    for t in range(1, n + 1):
        below[t] = below[t - 1] | 1 << t * width
    return width, tuple(below), below[n] << (width - 1)


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Tableau test (Ehresmann) for u <= v in the strong Bruhat order: for
    every prefix length k and threshold t, v[:k] has at least as many values
    >= t as u[:k].  The differences are the packed slack fields of
    :func:`_slack_layout`, biased by their guards: each position adds one
    step, and a cleared guard is a negative slack.  The sorted-prefix loop
    it replaced is :func:`hessgkm.verify.oracle_sorted_prefix_leq`.

    >>> bruhat_leq((3, 2, 1, 4), (4, 3, 1, 2))
    True
    >>> bruhat_leq((4, 3, 1, 2), (3, 4, 2, 1))
    False
    """
    _check_same_rank(u, v)
    _, below, guards = _slack_layout(len(u))
    slack = guards
    for a, b in zip(u, v):
        slack += below[b] - below[a]
        if slack & guards != guards:
            return False
    return True


def _lane_bytes(n: int) -> int:
    """Bytes an entry of rank n takes in an interval's columns and the
    kernel's lanes: one to n = 127, two (little-endian) from 128, so that a
    lane's sums keep a sign bit."""
    return 1 if n < 128 else 2


def _little_array(code: str, buf) -> array:
    """``buf`` as an array of type ``code`` whose items are little-endian."""
    out = array(code, buf)
    if sys.byteorder == "big":
        out.byteswap()
    return out


def _columns(free: int, slack: int, memo: dict, spec: tuple) -> tuple[int, list[bytes]]:
    """(count, columns) of the tails, in lexicographic order, that complete
    a prefix of v holding the values missing from ``free`` (bit x set for
    each value x left) to some v >= w; the prefix meets its conditions, so
    some tail does.  ``slack`` packs, in field t of ``width`` bits, the
    number of prefix values >= t minus the same count for w[:k].  The tails
    depend on the prefix set alone, so ``memo`` keeps them by ``free``, and
    a caller looks there first.  A module-level function holding no
    reference to itself, so the memo is no garbage cycle."""
    w, width, below, zero_guards, ones, heads, what = spec
    y = w[len(w) - free.bit_count()]
    # v[k] = x < y lowers the slack on (x, y] by one, so x must be at least
    # the highest threshold z <= y whose slack is already 0 (slack[1] is
    # always 0).  Any x >= y only raises slack.  The guard bit of a field is
    # borrowed off iff the field is 0.
    zeros = zero_guards & ~((slack | zero_guards) - ones) & ((1 << (y + 1) * width) - 1)
    z = zeros.bit_length() // width - 1
    rest = free >> z << z
    total = 0
    head, tails = [], []
    while rest:
        bit = rest & -rest
        rest ^= bit
        x = bit.bit_length() - 1
        count, cols = memo.get(free ^ bit) or _columns(free ^ bit, slack + below[x] - below[y], memo, spec)
        total += count
        if total > SIZE_LIMIT:
            check_size(SIZE_LIMIT + 1, what)
        head.append(heads[x] * count)
        tails.append(cols)
    entry = memo[free] = (total, [b"".join(head), *map(b"".join, zip(*tails))])
    return entry


@lru_cache(maxsize=None)
def _interval_columns(w: Perm) -> tuple[bytes, ...]:
    """[w, w0] in lexicographic order as n columns, column c holding entry
    c + 1 of every vertex (:func:`_lane_bytes`).  The position pairs (a
    kernel bit each) are checked first, which also keeps the recursion, a
    level a position, to n <= 362, within Python's depth."""
    as_permutation(w)
    n = len(w)
    check_size(math.comb(n, 2), "position pairs")
    width, below, guards = _slack_layout(n)
    heads = [x.to_bytes(_lane_bytes(n), "little") for x in range(n + 1)]
    what = f"interval [{format_permutation(w)}, w0] (enumeration stopped)"
    spec = (w, width, below, guards, below[n], heads, what)
    return tuple(_columns((1 << (n + 1)) - 2, 0, {0: (1, [])}, spec)[1])


@lru_cache(maxsize=None)
def bruhat_interval_lex(w: Perm) -> tuple[Perm, ...]:
    """[w, w0] in lexicographic order, the order of its enumeration: the
    columns of :func:`_interval_columns` zipped into tuples, their lanes
    read as bytes or, two bytes wide, as ``array('H')``."""
    columns = _interval_columns(w)
    if _lane_bytes(len(w)) == 2:
        columns = [_little_array("H", c) for c in columns]
    return tuple(zip(*columns))


@lru_cache(maxsize=None)
def bruhat_interval(w: Perm) -> frozenset[Perm]:
    """The upper interval [w, w0] = all v with w <= v.

    Enumerated once per prefix set under the sorted-prefix criterion, in
    lexicographic order, at a cost that grows with the size of the
    interval.

    >>> sorted(bruhat_interval((1, 3, 2)))
    [(1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    >>> len(bruhat_interval((1, 2, 3, 4)))
    24
    """
    return frozenset(bruhat_interval_lex(w))


def _fields(items: list[str], text: str) -> list[str]:
    """The stripped items of a comma-separated ``text``; an empty one raises."""
    out = [x.strip() for x in items]
    if "" in out:
        raise ValueError(f"empty field {out.index('') + 1} in {text!r}")
    return out


def parse_permutation(text: str) -> Perm:
    """Parse one-line notation: "4312", or "10,3,1,..." for n >= 10."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if "," in text:
        parts = _fields(text.split(","), text)
    else:
        parts = list(text)
    try:
        entries = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse permutation from {text!r}") from None
    return as_permutation(entries)


# Byte x to the ASCII digit of x for x <= 9, and to a byte that is not ASCII
# past 9, so that decoding fails.
_DIGITS = b"0123456789".ljust(256, b"\xff")


def format_permutation(w: Perm) -> str:
    """One-line text form: digits for n <= 9, comma-separated for n >= 10.
    A digit string is one translation of the entries' bytes."""
    if len(w) <= 9:
        try:
            return bytes(w).translate(_DIGITS).decode("ascii")
        except (TypeError, ValueError):  # not a permutation: an entry past 9
            return "".join(map(str, w))
    return ",".join(map(str, w))
