"""Group orbits on the disk with Blaschke-sum convergence diagnostics.

Supported presentations:

* ``cyclic(a)``   -- the infinite cyclic group generated by
  g(z) = (z - a)/(1 - a z);
* ``z2z2(a)``     -- the group generated by the half-turn b(z) = -z and
  the involution g(z) = (a - z)/(1 - a z), a free product of two
  two-element groups whose words are the alternating strings in the two
  letters (exactly two reduced words of every positive length);
* ``generic``     -- any finite list of generators, explored by
  breadth-first search over words.

Orbits are enumerated breadth-first by word length, generators in
listed order followed by their formal inverses, with candidate points
deduplicated against all accepted points in the pseudo-hyperbolic
metric.  Words are recorded as strings over 'a', 'b', ... for the
generators and 'A', 'B', ... for their inverses.

Every kind first lists its candidate points as one array, in that
order, and one filter then drops the points on the boundary, removes
duplicates and applies the point cap.  The dedup is exact.  Since
|1 - conj(w) z| < 2 on the disk, two points within dedup_tol
pseudo-hyperbolically are less than 2 * dedup_tol apart in each
coordinate.  So the candidates are split into clusters wherever their
sorted real parts, and then within a cluster their sorted imaginary
parts, jump by more than 4 * dedup_tol, and every duplicate of a point
lies in its cluster.  A point alone in its cluster is accepted without
a comparison; the others are compared in enumeration order with the
accepted points of their cluster, so the accepted orbit is the one an
all-pairs scan gives.  ``enumerate_orbit`` builds entries and words
for the accepted points only; ``_orbit_array``, which gives orbit-kernel
rows, returns the accepted points as one array and builds neither.  The
generic search identifies group elements with the same filter on their
parameters a, in clusters of side 2 * 1e-10.

A generic presentation runs its element search once per depth.  Each
level is composed in one numpy pass over the frontier and the letters,
bit for bit the scalar compositions, in blocks of at most 65,536
candidates and never more than could reach the element cap.  Each
block is filtered as soon as it is composed, so a search past the cap
composes the candidates a one-at-a-time search would.
The search keeps the elements it finds as their words plus two
parameter arrays, building words for the kept elements only, and one
run to completion stays on the presentation for its lifetime.  Orbits
of other base points, the stabilizer order and orbit kernels up to
that depth then read the kept arrays instead of composing them again.

For the cyclic and z2z2 kinds the word combinatorics are known in
closed form and the candidates are the iterates of the stable tanh
parametrization, computed in one vectorized pass that equals the
scalar maps bit for bit; the result is the same breadth-first ordering
the generic search produces, without the loss of precision of long
composition chains.  Orbit points too close to the unit circle to be
represented (|p| >= 1 - 1e-14) are dropped from the entry list; their
number and a bound on their total Blaschke weight are recorded and
folded into the tail bound.
"""

from __future__ import annotations

import bisect
import string
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, OrbitExplosion
from .mobius import (
    DISK_BOUNDARY_MARGIN,
    DiskAutomorphism,
    _compose_grid,
    _modulus,
    automorphism_images,
    disk_point,
    iterate_cyclic,
    iterate_images,
    pseudo_hyperbolic,
)

CYCLIC = "cyclic"
Z2Z2 = "z2z2"
GENERIC = "generic"

DEFAULT_DEDUP_TOL = 1e-12
DEFAULT_POINT_CAP = 10**6

# Euclidean tolerance for identifying two group elements during the
# generic breadth-first search.  Elements whose parameters agree this
# closely act identically at double precision.
_ELEMENT_TOL = 1e-10

# Candidates composed at a time by the element search, which bounds the
# composer's temporary arrays on large levels.
_BLOCK = 1 << 16

# Bound used for each orbit point dropped for being numerically on the
# boundary: its true weight 1 - |p| is below the representability
# margin, plus slack for the rounding of |p| itself.
_DROPPED_WEIGHT = DISK_BOUNDARY_MARGIN + 1e-15


@dataclass(frozen=True)
class GroupPresentation:
    """A group of disk automorphisms given by generators."""

    kind: str
    a: float | None
    generators: tuple[DiskAutomorphism, ...]
    # (depth, words, a, lam) of the last element search of a generic
    # presentation that ran to completion; see _generic_elements.
    _elements: tuple | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.kind not in (CYCLIC, Z2Z2, GENERIC):
            raise InputError(f"unknown group kind {self.kind!r}")
        if not self.generators:
            raise InputError("a group presentation needs at least one generator")
        if len(self.generators) > 26:
            raise InputError("at most 26 generators are supported")
        for i, g in enumerate(self.generators):
            if g.is_identity():
                raise InputError(f"generator {i} is the identity map")


def _closed_form_parameter(a, name: str) -> float:
    """``a`` as a float if in (-1, 1) and nonzero, else an InputError naming it ``name``."""
    a = float(a)
    if not -1.0 < a < 1.0 or a == 0.0:
        raise InputError(f"{name} {a!r} must lie in (-1,1), nonzero")
    return a


def cyclic_group(a: float) -> GroupPresentation:
    """Infinite cyclic group generated by z -> (z - a)/(1 - a z)."""
    a = _closed_form_parameter(a, "cyclic parameter")
    return GroupPresentation(CYCLIC, a, (iterate_cyclic(a, 1),))


def z2z2_group(a: float) -> GroupPresentation:
    """Group generated by the half-turn z -> -z and z -> (a - z)/(1 - a z)."""
    a = _closed_form_parameter(a, "z2z2 parameter")
    if iterate_cyclic(a, 1).is_identity():
        raise InputError("the translation z -> (z - a)/(1 - a z) is the identity map")
    half_turn = DiskAutomorphism(0j, complex(1.0))
    involution = DiskAutomorphism(complex(a), complex(1.0))
    return GroupPresentation(Z2Z2, a, (half_turn, involution))


def generic_group(generators) -> GroupPresentation:
    return GroupPresentation(GENERIC, None, tuple(generators))


@dataclass(frozen=True)
class OrbitEntry:
    word: str
    point: complex
    weight: float


@dataclass(frozen=True)
class Orbit:
    """Deduplicated truncated orbit of ``base`` with Blaschke weights.

    ``partial_sum`` is the sum of the stored weights in entry order.
    ``tail_bound`` (cyclic/z2z2 only) bounds the total weight of every
    true orbit point not among the entries, including points dropped
    for being numerically on the boundary (``dropped`` of them).
    """

    group: GroupPresentation = field(repr=False)
    base: complex
    max_word_length: int
    dedup_tol: float
    entries: tuple[OrbitEntry, ...]
    partial_sum: float
    tail_bound: float | None
    dropped: int = 0
    dropped_weight: float = 0.0

    @property
    def points(self) -> tuple[complex, ...]:
        return tuple(e.point for e in self.entries)


def enumerate_orbit(group: GroupPresentation, base: complex, max_word_length: int) -> Orbit:
    """Breadth-first truncated orbit of ``base`` under ``group``.

    Deterministic: identical inputs give identical orbits, order and
    all.  Points within ``DEFAULT_DEDUP_TOL`` of an accepted one are
    duplicates, and more than ``DEFAULT_POINT_CAP`` accepted points
    raise ``OrbitExplosion``; a generic presentation finds that out
    after its element search, under the same cap on its elements.
    """
    base, candidates, word, (mod, accepted, dropped, dropped_weight), tail = _accept(
        group, base, max_word_length
    )
    # entries and words for the accepted points only; the sum adds its
    # terms in candidate order
    entries = []
    partial_sum = 0.0
    for k, p, m in zip(
        accepted.tolist(), candidates[accepted].tolist(), mod[accepted].tolist()
    ):
        w = 1.0 - m
        entries.append(OrbitEntry(word(k), p, w))
        partial_sum += w
    return Orbit(
        group=group,
        base=base,
        max_word_length=max_word_length,
        dedup_tol=DEFAULT_DEDUP_TOL,
        entries=tuple(entries),
        partial_sum=partial_sum,
        tail_bound=tail,
        dropped=dropped,
        dropped_weight=dropped_weight,
    )


def _orbit_array(group: GroupPresentation, base: complex, max_word_length: int):
    """(points, tail_bound): the points of ``enumerate_orbit(group, base,
    max_word_length)`` as one array, in entry order, and its tail bound,
    without entries or words."""
    _, candidates, _, (_, accepted, _, _), tail = _accept(group, base, max_word_length)
    return candidates[accepted], tail


def _accept(group, base, n_max: int):
    """(base, candidates, word, filtered, tail_bound): the validated
    base, the orbit's candidate points in enumeration order with
    ``word(k)`` the word of candidate k, what ``_filter`` keeps of them
    at ``DEFAULT_DEDUP_TOL`` under ``DEFAULT_POINT_CAP``, and the
    orbit's tail bound."""
    base = disk_point(base)
    if n_max < 0:
        raise InputError("max_word_length must be nonnegative")
    candidates, word = _candidates(group, base, n_max)
    filtered = _filter(candidates, DEFAULT_DEDUP_TOL, DEFAULT_POINT_CAP)
    tail = _tail_bound(group, base, n_max, filtered[3])
    return base, candidates, word, filtered, tail


def _candidates(group, base, n_max):
    """The orbit's candidate points in enumeration order, base first, and
    the function from a candidate's index to its word."""
    if group.kind == GENERIC:
        # the cap bounds elements here and accepted points in _filter: a
        # nontrivial stabilizer makes the element count exceed the point
        # count.
        words, a, lam = _generic_elements(group, n_max, DEFAULT_POINT_CAP)
        images = automorphism_images(a[1:], lam[1:], base)
        word = words.__getitem__
    else:
        # Level L >= 1 holds candidates 2L - 1 and 2L: cyclic a^L, A^L;
        # z2z2 the alternating words of length L starting with a, b.
        levels = np.arange(1, n_max + 1)
        if group.kind == CYCLIC:
            powers, points = np.stack([levels, -levels], axis=1), base

            def word(k):
                return ("a" if k % 2 else "A") * ((k + 1) // 2)

        else:
            # The reduced words are the alternating strings.  With h the
            # half-turn and t = h g the translation z -> (z - a)/(1 - a z),
            # the one of length L starting with 'a' is t^(L//2) for even L
            # and t^(L//2) h for odd L; the one starting with 'b' is
            # t^(-L//2) resp. t^(-(L//2+1)) h.
            half, odd = levels // 2, levels % 2 == 1
            powers = np.stack([half, -(half + odd)], axis=1)
            points = np.where(odd, -base, base).reshape(-1, 1)

            def word(k):
                return _alternating_word("ab" if k % 2 else "ba", (k + 1) // 2)

        images = iterate_images(group.a, powers, points).ravel()
    return np.concatenate(([base], images)), word


def _filter(candidates: np.ndarray, dedup_tol: float, cap: int):
    """(mod, accepted, dropped, dropped_weight) of an orbit from its
    candidate points in enumeration order: their moduli, the indices of
    the accepted ones, and the number dropped with a bound on their
    weight.

    A candidate is dropped if |p| >= 1 - DISK_BOUNDARY_MARGIN, rejected
    if it lies within ``dedup_tol`` of an earlier accepted point, and
    accepted otherwise; more than ``cap`` accepted points raise
    ``OrbitExplosion``.  The weight adds its terms in candidate order.
    """
    mod = _modulus(candidates)
    inside = mod < 1.0 - DISK_BOUNDARY_MARGIN
    dropped_weight = 0.0
    for m in mod[~inside].tolist():
        dropped_weight += max(1.0 - m, 0.0) + _DROPPED_WEIGHT
    kept = np.flatnonzero(inside)
    points = candidates[kept]
    p = points.tolist()
    accepted = kept[_distinct(
        points, 4.0 * dedup_tol, lambda k, j: pseudo_hyperbolic(p[k], p[j]) <= dedup_tol
    )]
    if accepted.size > cap:
        raise OrbitExplosion(f"orbit exceeded the cap of {cap} accepted points")
    return mod, accepted, candidates.size - kept.size, dropped_weight


def _distinct(keys: np.ndarray, side: float, same) -> np.ndarray:
    """Mask of the keys accepted when each is compared, in index order,
    with the accepted keys before it: key k is rejected if ``same(k, j)``
    holds for an accepted j < k.

    ``same`` may hold only for keys at most ``side`` apart in each
    coordinate.  So the keys are split into clusters wherever consecutive
    real parts, and then within a cluster consecutive imaginary parts,
    differ by more than ``side``; every match of a key lies in its own
    cluster.  A key alone in its cluster is accepted at once, and the
    others are compared only within their cluster.
    """
    n = keys.size
    keep = np.ones(n, dtype=bool)
    if n < 2:
        return keep
    order = np.argsort(keys.real, kind="stable")
    x = keys.real[order]
    column = np.concatenate(([0], np.cumsum(np.diff(x) > side)))
    inner = np.lexsort((keys.imag[order], column))
    order, column = order[inner], column[inner]
    y = keys.imag[order]
    split = (np.diff(column) != 0) | (np.diff(y) > side)
    cluster = np.concatenate(([0], np.cumsum(split)))
    shared = np.bincount(cluster)[cluster] > 1
    if not shared.any():
        return keep
    members, cluster = order[shared], cluster[shared]
    by_index = np.lexsort((members, cluster))
    accepted: dict[int, list[int]] = {}
    for k, c in zip(members[by_index].tolist(), cluster[by_index].tolist()):
        earlier = accepted.setdefault(c, [])
        if any(same(k, j) for j in earlier):
            keep[k] = False
        else:
            earlier.append(k)
    return keep


def _alternating_word(pair: str, length: int) -> str:
    return (pair * length)[:length]


def _letters(group) -> list[tuple[str, DiskAutomorphism]]:
    letters = [
        (string.ascii_lowercase[i], g) for i, g in enumerate(group.generators)
    ]
    letters += [
        (string.ascii_uppercase[i], g.inverse())
        for i, g in enumerate(group.generators)
    ]
    return letters


def _same_element(a1: complex, lam1: complex, a2: complex, lam2: complex) -> bool:
    return abs(a1 - a2) <= _ELEMENT_TOL and abs(lam1 - lam2) <= _ELEMENT_TOL


def _generic_elements(group, n_max: int, cap: int) -> tuple[list, np.ndarray, np.ndarray]:
    """(words, a, lam) of the distinct group elements of word length at
    most ``n_max`` in BFS order, element k being the automorphism of
    parameters a[k] and lam[k]; ``OrbitExplosion`` past ``cap`` elements.

    A search to depth m <= n, where n is the depth of the group's kept
    search, reads the words of length <= m from it: the breadth-first
    order makes them a prefix of the kept list, in the order a search to
    depth m finds them.  A deeper request searches again.
    """
    kept = group._elements
    if kept is None or kept[0] < n_max:
        return _search_elements(group, n_max, cap)
    _, words, a, lam = kept
    end = bisect.bisect_right(words, n_max, key=len)
    _check_cap(end, cap)
    return words[:end], a[:end], lam[:end]


def _check_cap(count: int, cap: int) -> None:
    if count > cap:
        raise OrbitExplosion(f"group exploration exceeded the cap of {cap} elements")


def _search_elements(group, n_max: int, cap: int) -> tuple[list, np.ndarray, np.ndarray]:
    """Breadth-first search over words up to length ``n_max``; a search
    run to completion is kept on the group.

    Each level's candidates are composed in frontier-then-letter order,
    as many at a time as cannot pass ``cap``, and each block is filtered
    as soon as it is composed: a search past the cap stops at the first
    element beyond it.  Words are built for the kept
    elements only.  Branches whose parameter is numerically on the
    boundary are pruned; their images are beyond double-precision
    resolution.
    """
    letters = _letters(group)
    maps = [g for _, g in letters]
    identity = DiskAutomorphism.identity()
    words = [""]
    a, lam = np.array([identity.a]), np.array([identity.lam])
    frontier = np.zeros(1, dtype=int)
    _check_cap(len(words), cap)
    margin = 1.0 - DISK_BOUNDARY_MARGIN
    for _ in range(n_max):
        level = len(words)
        front_a, front_lam = a[frontier], lam[frontier]
        total = frontier.size * len(maps)
        start = 0
        while start < total:
            stop = min(total, start + _BLOCK, start + cap + 1 - len(words))
            got_a, got_lam, ok = _compose_grid(front_a, front_lam, maps, start, stop)
            new_a, new_lam = got_a[ok], got_lam[ok]
            keep = _admit(a, lam, new_a, new_lam)
            a = np.concatenate((a, new_a[keep]))
            lam = np.concatenate((lam, new_lam[keep]))
            parent, letter = np.divmod(start + np.flatnonzero(ok)[keep], len(maps))
            words += [
                words[p] + letters[c][0]
                for p, c in zip(frontier[parent].tolist(), letter.tolist())
            ]
            _check_cap(len(words), cap)
            start = stop
        inside = _modulus(a[level:]) < margin
        frontier = level + np.flatnonzero(inside)
        if not frontier.size:
            break
    object.__setattr__(group, "_elements", (n_max, words, a, lam))
    return words, a, lam


def _admit(a: np.ndarray, lam: np.ndarray, new_a: np.ndarray, new_lam: np.ndarray) -> np.ndarray:
    """Mask of the new elements, with parameters ``new_a`` and
    ``new_lam``, that coincide with no element before them: neither with
    an earlier new one nor with a found one of parameters ``a`` and
    ``lam``.  The found elements are distinct: only those near a new one
    are filtered, and not against each other.
    """
    side = 2.0 * _ELEMENT_TOL
    near = np.ones(a.size, dtype=bool)
    for old, t in ((a.real, new_a.real), (a.imag, new_a.imag)):
        t = np.sort(t)
        near &= np.searchsorted(t, old - side) < np.searchsorted(t, old + side, "right")
    near = np.flatnonzero(near)
    keys = np.concatenate((a[near], new_a))
    lams = np.concatenate((lam[near], new_lam))

    def same(k, j):
        return k >= near.size and _same_element(
            keys.item(k), lams.item(k), keys.item(j), lams.item(j)
        )

    return _distinct(keys, side, same)[near.size:]


def _tail_bound(group, base, n_max, dropped_weight) -> float | None:
    """Geometric bound on the weight of omitted orbit points.

    For the cyclic group the iterate parameters satisfy
    1 - a_n <= 2 q^n with q = (1-|a|)/(1+|a|), so the weight of the two
    omitted tails past word length N is at most 4 q^(N+1)/(1-q) for the
    orbit of 0.  For another base point the per-term bound picks up the
    factor 2(1+|w|)/(1-|w|).  In the z2z2 group a word of length L
    reaches translation powers of size at most ceil(L/2), so the same
    bound applies at the effective depth floor(N/2), doubled for the
    two word families through the origin stabilizer.
    """
    if group.kind == GENERIC:
        return None
    q = (1.0 - abs(group.a)) / (1.0 + abs(group.a))
    base0 = abs(base) <= DEFAULT_DEDUP_TOL
    per_term = 2.0 if base0 else 4.0 * (1.0 + abs(base)) / (1.0 - abs(base))
    if group.kind == CYCLIC:
        tail = 2.0 * per_term * q ** (n_max + 1) / (1.0 - q)
    else:
        m0 = n_max // 2
        exponent = m0 + 1 if base0 else m0
        tail = 4.0 * per_term * q**exponent / (1.0 - q)
    return tail + dropped_weight


def cyclic_orbit_weight(a: float, n: int) -> float:
    """Weight 1 - a_n of the n-th cyclic orbit point of 0, computed in
    the cancellation-free form 2 q^|n| / (1 + q^|n|)."""
    a = _closed_form_parameter(a, "parameter")
    q = (1.0 - abs(a)) / (1.0 + abs(a))
    p = q ** abs(n)
    return 2.0 * p / (1.0 + p)


def stabilizer_order_origin(
    group: GroupPresentation,
    max_word_length: int = 8,
) -> int:
    """Order of the subgroup fixing the origin.

    Exact for the cyclic kind (1: the iterates move 0 freely) and the
    z2z2 kind (2: the identity and the half-turn).  For generic
    presentations the count is over distinct enumerated elements of
    word length at most ``max_word_length`` fixing 0 within
    ``DEFAULT_DEDUP_TOL``, hence a lower bound on the true order.  The
    element search is the one its orbits read, under the same cap
    (``DEFAULT_POINT_CAP`` elements): a count fails only where an orbit
    of the group to that depth fails too.
    """
    if max_word_length < 0:
        raise InputError("max_word_length must be nonnegative")
    if group.kind == CYCLIC:
        return 1
    if group.kind == Z2Z2:
        return 2
    _, a, lam = _generic_elements(group, max_word_length, DEFAULT_POINT_CAP)
    images = automorphism_images(a, lam, 0j)
    return int(np.count_nonzero(_modulus(images) <= DEFAULT_DEDUP_TOL))
