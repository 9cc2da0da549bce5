"""Hessenberg functions and the combinatorics they induce on S_n.

A Hessenberg function is a nondecreasing h: [n] -> [n] with h(i) >= i,
stored as the value tuple (h(1), ..., h(n)).  Its *window* pairs are the
positions (i, j) with i < j <= h(i); they control everything downstream:

* the complexity dimension d_h = sum(h(i) - i),
* the window inversion count l_h(w) = #{(i, j) window : w(i) > w(j)},
  with d_h - l_h(w) the dimension of the cell attached to w; it is the
  bit count of w's inversion mask (:func:`hessgkm.perms.inversion_mask`)
  under :func:`window_mask`, and two permutations agree in relative order
  on every window pair iff their masks agree under it,
* h-admissibility: w is admissible iff the position of w(j) + 1 in w is
  at most h(j) for every j with w(j) <= n - 1,
* the unique admissible representative w~ >= w that agrees with w in
  relative order on every window pair, reached from w by a greedy ascent
  of value swaps k <-> k + 1, together with the translation u = w o w~^{-1},
* the fixed-point set of the cell closure, u . [w~, w0], which equals
  [w, w0] exactly when w is admissible,
* the h-Bruhat order: reachability by length-increasing window swaps (its
  steps are the up-steps of :func:`hessgkm.graphs.interval_move_graph`).

Degenerate h with h(i) = i for some i < n (a disconnected ambient space)
is fully supported; nothing here special-cases it.

A public function checks its h, or its pair by :func:`check_pair`, once; the
library runs the unchecked cores ``_name`` on checked values.  The memo caches
(:func:`validate_hessenberg`, :func:`windows`, :func:`window_mask`,
:func:`enumerate_admissible`) are keyed by h alone, none by a (w, h) pair.
"""

from __future__ import annotations

from functools import lru_cache

from .perms import (
    Perm,
    _fields,
    _integers,
    all_permutations,
    as_permutation,
    bruhat_interval,
    check_factorial,
    inversion_mask,
    left_multiply,
    transpositions,
)

HessFunc = tuple[int, ...]


def validate_hessenberg(values) -> HessFunc:
    """Validate raw values as a Hessenberg function h, its checks memoized by the tuple.

    >>> validate_hessenberg([2, 3, 3])
    (2, 3, 3)
    """
    return _hessenberg(_integers(values, "h({})"))


@lru_cache(maxsize=None)
def _hessenberg(h: HessFunc) -> HessFunc:
    n = len(h)
    if n < 1:
        raise ValueError("empty Hessenberg function h")
    for i, v in enumerate(h, start=1):
        if v < i:
            raise ValueError(f"h({i}) = {v} < {i}")
        if v > n:
            raise ValueError(f"h({i}) = {v} > n = {n}")
        if i < n and v > h[i]:
            raise ValueError(f"h is not nondecreasing at position {i}: {v} > {h[i]}")
    return h


def parse_hessenberg(text: str) -> HessFunc:
    """Parse comma-separated values, e.g. "3,3,4,4"."""
    text = text.strip()
    if not text:
        raise ValueError("empty Hessenberg function")
    parts = _fields(text.split(","), text)
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse Hessenberg function from {text!r}") from None
    return validate_hessenberg(values)


def format_hessenberg(h: HessFunc) -> str:
    return ",".join(str(x) for x in h)


def complexity_dimension(h) -> int:
    """d_h = sum(h(i) - i); the dimension of the ambient Hessenberg space."""
    return sum(v - i for i, v in enumerate(validate_hessenberg(h), start=1))


@lru_cache(maxsize=None)
def windows(h: HessFunc) -> tuple[tuple[int, int], ...]:
    """All position pairs (i, j) with i < j <= h(i)."""
    return tuple((i, j) for i in range(1, len(h) + 1) for j in range(i + 1, h[i - 1] + 1))


@lru_cache(maxsize=None)
def window_mask(h: HessFunc) -> int:
    """The window pairs as a position-pair mask, in the bit layout of
    :func:`hessgkm.perms.inversion_mask`.

    >>> bin(window_mask((2, 3, 3)))
    '0b101'
    """
    return sum(1 << k for k, (i, j) in enumerate(transpositions(len(h))) if j <= h[i - 1])


def check_pair(w, h, name: str = "w") -> tuple[Perm, HessFunc]:
    """(w, h) as tuples after the one check of a pair; a ``ValueError`` names w by ``name``, or h."""
    w, h = as_permutation(w, name), validate_hessenberg(h)
    if len(w) != len(h):
        raise ValueError(f"rank mismatch: |{name}| = {len(w)}, |h| = {len(h)}")
    return w, h


def h_length(w: Perm, h: HessFunc) -> int:
    """Window inversion count l_h(w).

    >>> h_length((2, 1, 3, 4), (3, 3, 4, 4))
    1
    """
    return _h_length(*check_pair(w, h))


def _h_length(w: Perm, h: HessFunc) -> int:
    return (inversion_mask(w) & window_mask(h)).bit_count()


def cell_dimension(w: Perm, h: HessFunc) -> int:
    """Dimension d_h - l_h(w) of the cell attached to w: its window pairs that w does not invert."""
    return _cell_dimension(*check_pair(w, h))


def _cell_dimension(w: Perm, h: HessFunc) -> int:
    return (window_mask(h) & ~inversion_mask(w)).bit_count()


def is_admissible(w: Perm, h: HessFunc) -> bool:
    """True iff the position of w(j) + 1 is at most h(j) whenever w(j) <= n - 1."""
    return _is_admissible(*check_pair(w, h))


def _positions(w: Perm) -> list[int]:
    """``pos[k]`` is the 0-based position of the value k in w; ``pos[0]`` is unused."""
    pos = [0] * (len(w) + 1)
    for i, x in enumerate(w):
        pos[x] = i
    return pos


def _is_admissible(w: Perm, h: HessFunc) -> bool:
    pos = _positions(w)
    p = pos[1]
    for q in pos[2:]:  # k at p and k + 1 at q, 0-based: q + 1 <= h(p + 1)
        if q >= h[p]:
            return False
        p = q
    return True


def enumerate_admissible(h) -> tuple[Perm, ...]:
    """All h-admissible permutations, in lexicographic order; h is checked before the memo."""
    return _enumerate_admissible(validate_hessenberg(h))


@lru_cache(maxsize=None)
def _enumerate_admissible(h: HessFunc) -> tuple[Perm, ...]:
    check_factorial(len(h), f"S_{len(h)}")
    return tuple(w for w in all_permutations(len(h)) if _is_admissible(w, h))


def admissible_representative(w: Perm, h: HessFunc) -> tuple[Perm, Perm]:
    """The unique admissible w~ >= w agreeing with w on window order, and u.

    Returns (w~, u) with u = compose(w, inverse(w~)), so that
    compose(u, w~) == w.  Found by greedy ascent: while some value k sits
    left of k + 1 at positions p < q with q > h(p) -- exactly a failure of
    :func:`is_admissible` -- swap the values k and k + 1.  Each swap is left
    multiplication by s_k, raises the length by one and keeps the window
    order ((p, q) is not a window pair), so at most C(n, 2) swaps end at an
    admissible element above w.  Its oracle,
    :func:`hessgkm.verify.oracle_admissible_representative`, looks w's
    window order up among all of h's admissible elements and keeps those
    in [w, w0].
    """
    return _ascend(*check_pair(w, h))


def _ascend(w: Perm, h: HessFunc) -> tuple[Perm, Perm]:
    n = len(w)
    v = list(w)
    pos = _positions(w)
    ascending = True
    while ascending:
        ascending = False
        for k in range(1, n):
            p, q = pos[k], pos[k + 1]
            if q >= h[p]:  # q + 1 > h(p + 1) >= p + 1, so k sits left of k + 1
                v[p], v[q] = k + 1, k
                pos[k], pos[k + 1] = q, p
                ascending = True
    del pos[0]  # now the 0-based inverse of w~, so u(k) = w(w~^-1(k))
    return tuple(v), tuple(map(w.__getitem__, pos))


def hess_schubert_fixed_points(w: Perm, h: HessFunc) -> frozenset[Perm]:
    """Fixed points of the cell closure attached to (w, h): u . [w~, w0].

    Is the interval [w, w0] itself iff w is h-admissible (then u = e).
    """
    return _fixed_point_set(*check_pair(w, h))


def _fixed_point_set(w: Perm, h: HessFunc) -> frozenset[Perm]:
    wt, u = _ascend(w, h)
    interval = bruhat_interval(wt)
    return interval if wt == w else frozenset(left_multiply(u, interval))


def hessenberg_connected(h: HessFunc) -> bool:
    """Whether the ambient space is connected: h(i) > i for all i < n."""
    return all(h[i - 1] > i for i in range(1, len(h)))
