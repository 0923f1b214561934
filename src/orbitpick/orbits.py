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

Dedup runs in near-linear time through a cell index: accepted points
are bucketed in a square grid of side 4 * dedup_tol, and a candidate is
tested only against the points in its own and the eight adjacent cells.
The filter is exact.  Since |1 - conj(w) z| < 2 on the disk, a
pseudo-hyperbolic distance <= dedup_tol forces a Euclidean distance
<= 2 * dedup_tol, half a cell, so every match lies in an adjacent cell
and the accepted orbit is the one an all-pairs scan gives.  The generic
search identifies group elements the same way, on a grid of side
2 * 1e-10 over their parameters a.

For the cyclic and z2z2 kinds the word combinatorics are known in
closed form and enumeration uses the stable tanh parametrization of the
iterates; the result is the same breadth-first ordering the generic
search produces, without the loss of precision of long composition
chains.  Orbit points too close to the unit circle to be represented
(|p| >= 1 - 1e-14) are dropped from the entry list; their number and a
bound on their total Blaschke weight are recorded and folded into the
tail bound.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field

from .errors import InputError, NotDiskAutomorphism, OrbitExplosion
from .mobius import (
    DISK_BOUNDARY_MARGIN,
    DiskAutomorphism,
    disk_point,
    iterate_cyclic,
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


def cyclic_group(a: float) -> GroupPresentation:
    """Infinite cyclic group generated by z -> (z - a)/(1 - a z)."""
    a = float(a)
    if not -1.0 < a < 1.0 or a == 0.0:
        raise InputError(f"cyclic parameter {a!r} must lie in (-1,1), nonzero")
    return GroupPresentation(CYCLIC, a, (iterate_cyclic(a, 1),))


def z2z2_group(a: float) -> GroupPresentation:
    """Group generated by the half-turn z -> -z and z -> (a - z)/(1 - a z)."""
    a = float(a)
    if not -1.0 < a < 1.0 or a == 0.0:
        raise InputError(f"z2z2 parameter {a!r} must lie in (-1,1), nonzero")
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


class _CellIndex:
    """Items keyed by a complex number, bucketed in square cells of the
    given side.  ``near(z)`` yields every item in the 3x3 block of cells
    around the cell of ``z``: among them is every item whose key differs
    from ``z`` by less than one side in each coordinate."""

    def __init__(self, side: float):
        # A coarser grid stays exact; the floor keeps z / side finite
        # for subnormal sides.
        self.side = max(side, 1e-300)
        self.cells: dict[tuple[int, int], list] = {}
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def near(self, z: complex):
        i = math.floor(z.real / self.side)
        j = math.floor(z.imag / self.side)
        cells = self.cells
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                yield from cells.get((i + di, j + dj), ())

    def add(self, z: complex, item) -> None:
        key = (math.floor(z.real / self.side), math.floor(z.imag / self.side))
        self.cells.setdefault(key, []).append(item)
        self.size += 1


class _Collector:
    """Accepts candidate points in enumeration order, applying the
    pseudo-hyperbolic dedup rule and the boundary drop rule."""

    def __init__(self, dedup_tol: float, cap: int):
        self.dedup_tol = dedup_tol
        self.cap = cap
        self.index = _CellIndex(4.0 * dedup_tol)
        self.entries: list[OrbitEntry] = []
        self.partial_sum = 0.0
        self.dropped = 0
        self.dropped_weight = 0.0

    def offer(self, word: str, point: complex) -> None:
        mod = abs(point)
        if mod >= 1.0 - DISK_BOUNDARY_MARGIN:
            self.dropped += 1
            self.dropped_weight += max(1.0 - mod, 0.0) + _DROPPED_WEIGHT
            return
        for q in self.index.near(point):
            if pseudo_hyperbolic(point, q) <= self.dedup_tol:
                return
        if len(self.entries) >= self.cap:
            raise OrbitExplosion(
                f"orbit exceeded the cap of {self.cap} accepted points"
            )
        self.index.add(point, point)
        w = 1.0 - mod
        self.entries.append(OrbitEntry(word, point, w))
        self.partial_sum += w


def enumerate_orbit(
    group: GroupPresentation,
    base: complex,
    max_word_length: int,
    dedup_tol: float = DEFAULT_DEDUP_TOL,
    max_points: int = DEFAULT_POINT_CAP,
) -> Orbit:
    """Breadth-first truncated orbit of ``base`` under ``group``.

    Deterministic: identical inputs give identical orbits, order and
    all.  ``dedup_tol`` must lie in (0, 1e-6].
    """
    base = disk_point(base)
    if max_word_length < 0:
        raise InputError("max_word_length must be nonnegative")
    if not 0.0 < dedup_tol <= 1e-6:
        raise InputError("dedup_tol must lie in (0, 1e-6]")
    col = _Collector(dedup_tol, max_points)
    col.offer("", base)
    if group.kind == CYCLIC:
        _enumerate_cyclic(group, base, max_word_length, col)
    elif group.kind == Z2Z2:
        _enumerate_z2z2(group, base, max_word_length, col)
    else:
        _enumerate_generic(group, base, max_word_length, col)
    tail = _tail_bound(group, base, max_word_length, dedup_tol, col)
    return Orbit(
        group=group,
        base=base,
        max_word_length=max_word_length,
        dedup_tol=dedup_tol,
        entries=tuple(col.entries),
        partial_sum=col.partial_sum,
        tail_bound=tail,
        dropped=col.dropped,
        dropped_weight=col.dropped_weight,
    )


def _enumerate_cyclic(group, base, n_max, col):
    a = group.a
    for n in range(1, n_max + 1):
        col.offer("a" * n, iterate_cyclic(a, n)(base))
        col.offer("A" * n, iterate_cyclic(a, -n)(base))


def _enumerate_z2z2(group, base, n_max, col):
    # Reduced words are the alternating strings; the one of length L
    # starting with 'a' is t^(L//2) for even L and t^(L//2) h for odd L,
    # where h is the half-turn and t = h g is the translation
    # z -> (z - a)/(1 - a z).  The one starting with 'b' is t^(-L//2)
    # resp. t^(-(L//2+1)) h.  Within a level the 'a'-word is accepted
    # first, matching the generic search order.
    a = group.a
    for length in range(1, n_max + 1):
        half = length // 2
        if length % 2 == 0:
            pa = iterate_cyclic(a, half)(base)
            pb = iterate_cyclic(a, -half)(base)
        else:
            pa = iterate_cyclic(a, half)(-base)
            pb = iterate_cyclic(a, -(half + 1))(-base)
        col.offer(_alternating_word("ab", length), pa)
        col.offer(_alternating_word("ba", length), pb)


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


def _same_element(e1: DiskAutomorphism, e2: DiskAutomorphism) -> bool:
    return abs(e1.a - e2.a) <= _ELEMENT_TOL and abs(e1.lam - e2.lam) <= _ELEMENT_TOL


def _generic_elements(group, n_max: int, cap: int):
    """Yield (word, element) for distinct group elements in BFS order.

    Branches whose parameter is numerically on the boundary are pruned;
    their images are beyond double-precision resolution.
    """
    letters = _letters(group)
    identity = DiskAutomorphism.identity()
    seen = _CellIndex(2.0 * _ELEMENT_TOL)
    seen.add(identity.a, identity)
    frontier: list[tuple[str, DiskAutomorphism]] = [("", identity)]
    yield "", identity
    for _ in range(n_max):
        nxt: list[tuple[str, DiskAutomorphism]] = []
        for word, elem in frontier:
            for ch, gen in letters:
                try:
                    cand = elem.compose(gen)
                except NotDiskAutomorphism:
                    continue
                if any(_same_element(cand, s) for s in seen.near(cand.a)):
                    continue
                if len(seen) >= cap:
                    raise OrbitExplosion(
                        f"group exploration exceeded the cap of {cap} elements"
                    )
                seen.add(cand.a, cand)
                if abs(cand.a) < 1.0 - DISK_BOUNDARY_MARGIN:
                    nxt.append((word + ch, cand))
                yield word + ch, cand
        frontier = nxt
        if not frontier:
            return


def _enumerate_generic(group, base, n_max, col):
    # max_points bounds accepted points only: a nontrivial stabilizer
    # makes the element count exceed the point count.
    for word, elem in _generic_elements(group, n_max, DEFAULT_POINT_CAP):
        if word:
            col.offer(word, elem(base))


def _tail_bound(group, base, n_max, dedup_tol, col) -> float | None:
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
    base0 = abs(base) <= dedup_tol
    per_term = 2.0 if base0 else 4.0 * (1.0 + abs(base)) / (1.0 - abs(base))
    if group.kind == CYCLIC:
        tail = 2.0 * per_term * q ** (n_max + 1) / (1.0 - q)
    else:
        m0 = n_max // 2
        exponent = m0 + 1 if base0 else m0
        tail = 4.0 * per_term * q**exponent / (1.0 - q)
    return tail + col.dropped_weight


def cyclic_orbit_weight(a: float, n: int) -> float:
    """Weight 1 - a_n of the n-th cyclic orbit point of 0, computed in
    the cancellation-free form 2 q^|n| / (1 + q^|n|)."""
    a = float(a)
    if not -1.0 < a < 1.0 or a == 0.0:
        raise InputError(f"parameter {a!r} must lie in (-1,1), nonzero")
    q = (1.0 - abs(a)) / (1.0 + abs(a))
    p = q ** abs(n)
    return 2.0 * p / (1.0 + p)


def stabilizer_order_origin(
    group: GroupPresentation,
    max_word_length: int = 8,
    dedup_tol: float = DEFAULT_DEDUP_TOL,
    max_elements: int = 10**5,
) -> int:
    """Order of the subgroup fixing the origin.

    Exact for the cyclic kind (1: the iterates move 0 freely) and the
    z2z2 kind (2: the identity and the half-turn).  For generic
    presentations the count is over distinct enumerated elements of
    word length at most ``max_word_length`` fixing 0 within
    ``dedup_tol``, hence a lower bound on the true order.
    """
    if group.kind == CYCLIC:
        return 1
    if group.kind == Z2Z2:
        return 2
    count = 0
    for _word, elem in _generic_elements(group, max_word_length, max_elements):
        if abs(elem(0j)) <= dedup_tol:
            count += 1
    return count


_Z2Z2_LETTER = {
    "a": 0, "A": 0, "β": 0,  # half-turn
    "b": 1, "B": 1, "γ": 1,  # involution
}


def z2z2_normal_form(word: str) -> tuple[int, bool]:
    """Reduce a word in the two z2z2 generators to (m, has_half_turn).

    With h the half-turn, g the involution and t = h g, every word
    equals t^m or t^m h; both letters square to the identity and
    h t h = t^{-1}.  The word is processed left to right (leftmost
    letter acts last).  Accepts the orbit alphabet 'a'/'b' (case
    ignored) as well as the Greek letters for the two generators.
    """
    m = 0
    eps = 0
    for ch in word:
        try:
            letter = _Z2Z2_LETTER[ch]
        except KeyError:
            raise InputError(f"word letter {ch!r} is not a z2z2 generator")
        if letter == 0:
            eps ^= 1
        elif eps == 0:
            m -= 1
            eps = 1
        else:
            m += 1
            eps = 0
    return m, bool(eps)
