"""Window-decorated pattern containment tests on admissible permutations.

Seven decorated patterns govern the regularity of the interval graph of an
admissible permutation: the graph is regular iff w contains none of them.
A pattern is an index quadruple i < j < k < l whose values are
order-isomorphic to the pattern digits, subject to window inequalities on
the Hessenberg function.  The constraint sets are:

====== ==================== ===========================================
id     value order          windows
====== ==================== ===========================================
2143   w(j)<w(i)<w(l)<w(k)  l <= h(i)
1324   w(i)<w(k)<w(j)<w(l)  l <= h(j),  k <= h(i)
1243   w(i)<w(j)<w(l)<w(k)  l <= h(j),  j <= h(i) < l
2134   w(j)<w(i)<w(k)<w(l)  l <= h(k),  k <= h(i) < l
1423   w(i)<w(k)<w(l)<w(j)  l <= h(j),  k <= h(i) < l
2314   w(k)<w(i)<w(j)<w(l)  l <= h(j),  k <= h(i) < l
2413   w(k)<w(i)<w(l)<w(j)  j <= h(i) < k <= h(j) < l <= h(k)
====== ==================== ===========================================

One lexicographic pass over the quadruples finds the first witness of
every pattern: each quadruple's order pattern names at most one id, whose
windows are then checked.

The regularity equivalence only holds for h-admissible w; containment
itself is computed for any input, but no regularity conclusion is drawn
for non-admissible w.
"""

from __future__ import annotations

import math
from itertools import combinations

from .hess import HessFunc, _is_admissible, check_pair
from .perms import Perm, check_size, format_permutation

PATTERN_IDS = ("2143", "1324", "1243", "2134", "1423", "2314", "2413")

Witness = tuple[int, int, int, int]


def _window_ok(pattern_id: str, h: HessFunc, i: int, j: int, k: int, l: int) -> bool:
    hi, hj, hk = h[i - 1], h[j - 1], h[k - 1]
    if pattern_id == "2143":
        return l <= hi
    if pattern_id == "1324":
        return l <= hj and k <= hi
    if pattern_id == "1243":
        return l <= hj and j <= hi < l
    if pattern_id == "2134":
        return l <= hk and k <= hi < l
    if pattern_id in ("1423", "2314"):
        return l <= hj and k <= hi < l
    return j <= hi < k <= hj < l <= hk  # 2413


# Each pattern id by its order pattern: the positions 0..3 sorted by value.
_BY_ORDER = {tuple(sorted(range(4), key=pid.__getitem__)): pid for pid in PATTERN_IDS}


def _first_witnesses(w: Perm, h: HessFunc) -> dict[str, Witness]:
    """One lexicographic pass over the quadruples: the first witness of
    each pattern, keyed by id."""
    check_size(math.comb(len(w), 4), "position quadruples")
    found: dict[str, Witness] = {}
    for quad in combinations(range(1, len(w) + 1), 4):
        values = [w[p - 1] for p in quad]
        pid = _BY_ORDER.get(tuple(sorted(range(4), key=values.__getitem__)))
        if pid is not None and pid not in found and _window_ok(pid, h, *quad):
            found[pid] = quad
            if len(found) == len(PATTERN_IDS):
                break
    return found


def _ordered_witnesses(w: Perm, h: HessFunc) -> list[tuple[str, Witness]]:
    """:func:`_first_witnesses` in the fixed pattern order, for a checked pair."""
    found = _first_witnesses(w, h)
    return [(pid, found[pid]) for pid in PATTERN_IDS if pid in found]


def pattern_witnesses(w: Perm, h) -> list[tuple[str, Witness]]:
    """First witness for each contained pattern, in the fixed pattern order."""
    return _ordered_witnesses(*check_pair(w, h))


def avoids_all_associated(w: Perm, h) -> tuple[bool, list[tuple[str, Witness]]]:
    """Whether the admissible permutation w avoids all seven patterns.

    Raises for non-admissible w: the regularity equivalence this test feeds
    is only stated in that case.  The pair is checked once.
    """
    w, h = check_pair(w, h)
    if not _is_admissible(w, h):
        raise ValueError(
            f"{format_permutation(w)} is not admissible for h={h}; "
            "the pattern criterion does not apply"
        )
    witnesses = _ordered_witnesses(w, h)
    return (not witnesses, witnesses)
