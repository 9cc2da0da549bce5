"""Exact arithmetic on the symmetric group and its strong Bruhat order.

A permutation w of [n] = {1, ..., n} is a tuple holding the values
(w(1), ..., w(n)) -- one-line notation, 1-indexed -- so ``w[i-1]`` is the
image of i.  Composition follows the function convention,
``compose(u, v)(i) == u(v(i))``.

The Bruhat order is decided by the sorted-prefix dominance criterion:
u <= v iff for every k the increasingly sorted prefixes satisfy
sorted(u[:k]) <= sorted(v[:k]) entrywise.  An independent chain oracle for
the same order lives in :mod:`hessgkm.verify`.

Upper intervals [w, w0] are built by one depth-first enumerator for every
n.  Because the k-th condition involves only v[:k], it grows v one
position at a time and drops a prefix as soon as its condition fails; no
extension of a failing prefix lies above w.  The cost therefore follows
the size of the interval rather than n!, and the elements come out in
lexicographic order.

Text form: a digit string for n <= 9 (``"4312"``), comma-separated values
for larger n (``"10,3,1,2,4,5,6,7,8,9"``).
"""

from __future__ import annotations

import itertools
from bisect import insort
from functools import lru_cache
from typing import Iterable, Iterator

Perm = tuple[int, ...]


def as_permutation(entries: Iterable[int]) -> Perm:
    """Validate one-line entries and return them as a tuple.

    >>> as_permutation([4, 3, 1, 2])
    (4, 3, 1, 2)
    """
    w = tuple(int(x) for x in entries)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
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


def inverse(w: Perm) -> Perm:
    """Position lookup.

    >>> inverse((4, 3, 1, 2))
    (3, 4, 2, 1)
    """
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return tuple(out)


@lru_cache(maxsize=None)
def length(w: Perm) -> int:
    """Number of inversions, i.e. the Coxeter length.

    >>> length((3, 2, 1, 4))
    3
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


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
    """All position pairs (i, j) with 1 <= i < j <= n."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Sorted-prefix dominance test for u <= v in the strong Bruhat order.

    >>> bruhat_leq((3, 2, 1, 4), (4, 3, 1, 2))
    True
    >>> bruhat_leq((4, 3, 1, 2), (3, 4, 2, 1))
    False
    """
    _check_same_rank(u, v)
    if u == v:
        return True
    su: list[int] = []
    sv: list[int] = []
    # The k = n prefix is all of [n] for both, so it never decides.
    for k in range(len(u) - 1):
        insort(su, u[k])
        insort(sv, v[k])
        if any(a > b for a, b in zip(su, sv)):
            return False
    return True


def bruhat_covers_above(w: Perm) -> list[Perm]:
    """Covers of w: w(i,j) with w(i) < w(j) and no intermediate value between."""
    n = len(w)
    covers = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            a, b = w[i - 1], w[j - 1]
            if a < b and not any(a < w[k - 1] < b for k in range(i + 1, j)):
                covers.append(apply_transposition(w, i, j))
    return covers


def _extend_upper(
    w: Perm, k: int, prefix: list[int], free: int, slack: list[int], out: list[Perm]
) -> None:
    """Append to ``out``, in lexicographic order, every v >= w with
    v[:k] == prefix.

    ``free`` has bit x set for each value x not in the prefix.  ``slack[t]``
    is the number of prefix entries of v that are >= t minus the same count
    for w[:k]; the prefix satisfies the criterion iff no slack is negative.
    """
    n = len(w)
    if k == n - 1:
        # The last value is forced, and the full prefix never decides.
        out.append((*prefix, free.bit_length() - 1))
        return
    y = w[k]
    # v[k] = x < y lowers the slack on (x, y] by one, so x must be at least
    # the highest threshold z <= y whose slack is already 0 (slack[1] is
    # always 0).  Any x >= y only raises slack.
    z = y
    while slack[z]:
        z -= 1
    for x in range(z, n + 1):
        if not free >> x & 1:
            continue
        lo, hi, d = (x, y, -1) if x < y else (y, x, 1)
        for t in range(lo + 1, hi + 1):
            slack[t] += d
        prefix.append(x)
        _extend_upper(w, k + 1, prefix, free & ~(1 << x), slack, out)
        prefix.pop()
        for t in range(lo + 1, hi + 1):
            slack[t] -= d


@lru_cache(maxsize=None)
def bruhat_interval(w: Perm) -> frozenset[Perm]:
    """The upper interval [w, w0] = all v with w <= v.

    Enumerated by prefix-pruned depth-first search under the sorted-prefix
    criterion, in lexicographic order, at a cost that grows with the size
    of the interval.

    >>> sorted(bruhat_interval((1, 3, 2)))
    [(1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    >>> len(bruhat_interval((1, 2, 3, 4)))
    24
    """
    n = len(w)
    out: list[Perm] = []
    _extend_upper(w, 0, [], (1 << (n + 1)) - 2, [0] * (n + 1), out)
    return frozenset(out)


def parse_permutation(text: str) -> Perm:
    """Parse one-line notation: "4312", or "10,3,1,..." for n >= 10."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = list(text)
    try:
        entries = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse permutation from {text!r}") from None
    return as_permutation(entries)


def format_permutation(w: Perm) -> str:
    """One-line text form: digits for n <= 9, comma-separated for n >= 10."""
    if len(w) <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)
