"""Reproducing kernels on the disk and their Gram matrices.

Three kernel variants are exposed:

* ``SzegoKernel``           -- K(z, w) = 1 / (1 - conj(w) z);
* ``ComposedInnerKernel``   -- K(z, w) = 1 / (1 - phi(z) conj(phi(w)))
  for phi an inner function vanishing at 0, given as a Blaschke product
  raised to an integer power; this is the kernel of the closed span of
  the powers of phi;
* ``OrbitGramKernel``       -- the orbit kernel [K(g(z), h(w))] indexed
  by truncated group orbits of the two arguments; it is built only as
  a matrix over the orbits of all the points.

Every kernel matrix is a Szegő matrix at other points: the composed
kernel's at the values phi(z_i), the orbit kernel's at the concatenated
truncated orbits.  ``_szego_points`` is the one map from a kernel spec
to those points, and ``szego_matrix`` the one builder, of Gram and
scalar Pick matrices alike; ``gram`` and ``pick`` build from the two.
The entries of ``szego_matrix`` equal the scalar ``szego`` bit for bit.
It computes only the upper triangle, a strip of rows at a time, so the
complex reciprocal runs on about n (n + 1) / 2 entries rather than n^2,
and writes the rest as the conjugate mirror, so the matrix is
conjugate-symmetric exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blaschke as bl
from .errors import DuplicatePoints, InputError, NumericalError, UnsupportedVariant
from .linalg import STRIP_ROWS, HermitianMatrix, PsdReport, _check_dimension, psd_check
from .mobius import _complex, _denominator_parts, _modulus, _product, disk_point, pseudo_hyperbolic
from .orbits import GroupPresentation, _orbit_array

# Orbit points beyond this radius are excluded from kernel blocks: the
# kernel diagonal 1/(1-|p|^2) past it overwhelms double precision and
# the excluded rows carry no usable positivity information.  Matches
# the Blaschke evaluation radius.
KERNEL_POINT_RADIUS = bl.EVAL_RADIUS_LIMIT

_DISTINCT_TOL = 1e-10

# Interior circle used for the analytic part of the boundary Gram
# integrals; any radius in (0, 1) gives the same mean, and at 1/2 the
# equispaced rule's aliasing terms at INTERIOR_NODES nodes are of order
# 0.5**INTERIOR_NODES = 2**-128, i.e. zero.
INTERIOR_MEAN_RADIUS = 0.5
INTERIOR_NODES = 128


@dataclass(frozen=True)
class SzegoKernel:
    pass


@dataclass(frozen=True)
class ComposedInnerKernel:
    inner: bl.BlaschkeProduct
    power: int = 1

    def __post_init__(self):
        if self.power < 1:
            raise InputError("composition power must be at least 1")
        if self.inner.origin_multiplicity < 1:
            raise InputError(
                "the inner function must vanish at the origin"
            )

    def value(self, z: complex) -> complex:
        """phi(z) = B(z)^power with the clamped interior evaluation."""
        v, _ = bl.evaluate(self.inner, z)
        return v**self.power


@dataclass(frozen=True)
class OrbitGramKernel:
    group: GroupPresentation
    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise InputError("orbit depth must be nonnegative")


KernelSpec = SzegoKernel | ComposedInnerKernel | OrbitGramKernel


@dataclass(frozen=True, eq=False)
class GramMatrix:
    entries: np.ndarray
    truncation_note: float | None = None


def szego(z: complex, w: complex) -> complex:
    return 1.0 / (1.0 - w.conjugate() * z)


def _szego_block(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[1 / (1 - conj(w_j) z_i)] for a column z and a row w.

    Each entry runs the operations of ``szego`` in the same order in
    real arithmetic, so it equals the scalar value bit for bit, signed
    zeros included: numpy's complex reciprocal differs from Python's
    division only by returning -0.0 where Python returns +0.0, which
    the trailing ``+ 0.0`` undoes.
    """
    d = _complex(*_denominator_parts(w.real, w.imag, z.real, z.imag))
    k = np.reciprocal(d, out=d)
    k += 0.0
    return k


def szego_matrix(zs, w=None, scale=1.0) -> np.ndarray:
    """The Gram matrix [1 / (1 - conj(z_j) z_i)] of disk points, each
    entry equal to the scalar ``szego`` bit for bit, or with weights
    ``w``, one per point, the scalar Pick matrix whose entries are the
    Gram entries times (scale - w_i conj(w_j)).

    It computes only its upper triangle, in strips of ``STRIP_ROWS``
    rows from the diagonal on, so each strip stays in cache while it is
    written out twice: weighted on and above the diagonal, whose entries
    are the conjugates of those computed, and conjugated below it.
    """
    z = np.asarray(zs, dtype=complex).reshape(-1, 1)
    n = z.shape[0]
    zr = z.reshape(1, -1)
    k = np.empty((n, n), dtype=complex)
    upper = ~np.tri(min(n, STRIP_ROWS), k=-1, dtype=bool)
    for r0 in range(0, n, STRIP_ROWS):
        r1 = min(r0 + STRIP_ROWS, n)
        s = r1 - r0
        block = _szego_block(z[r0:r1], zr[:, r0:])
        d = np.arange(s)
        block[d, d] = block[d, d].conj()
        if w is not None:
            # weights * block, in this operand order: numpy's SIMD
            # complex multiply is not bitwise commutative
            np.multiply(scale - np.outer(w[r0:r1], np.conj(w[r0:])), block, out=block)
        k[r0:r1, r1:] = block[:, s:]
        np.conjugate(block.T, out=k[r0:, r0:r1])
        np.copyto(k[r0:r1, r0:r1], block[:, :s], where=upper[:s, :s])
    return k


def check_distinct(points, error: type) -> list[complex]:
    """Validated disk points, pairwise more than ``_DISTINCT_TOL`` apart
    in the pseudo-hyperbolic metric.  The first pair i < j within it
    raises ``error``, naming the pair and the tolerance."""
    pts = [disk_point(p) for p in points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pseudo_hyperbolic(pts[i], pts[j]) <= _DISTINCT_TOL:
                raise error(f"points {i} and {j} coincide within {_DISTINCT_TOL}")
    return pts


def _kernel_points(points) -> list[complex]:
    """At least one point, each validated and distinct (``check_distinct``)."""
    pts = check_distinct(points, DuplicatePoints)
    if not pts:
        raise InputError("at least one point is required")
    return pts


def gram(spec: KernelSpec, points) -> GramMatrix:
    """Gram matrix [K(z_i, z_j)] over pairwise distinct points: the
    Szegő matrix at the points ``_szego_points`` gives for ``spec``.

    For the orbit variant the result is the block matrix over the
    truncated orbits of every point, in deterministic orbit order.  More
    than ``MAX_DIMENSION`` rows raise ``InputError`` before any entry is
    computed, as ``psd_check`` would refuse the matrix.
    """
    zs, _, note = _szego_points(spec, _kernel_points(points))
    _check_dimension(zs.size)
    return GramMatrix(szego_matrix(zs), note)


def _szego_points(
    spec: KernelSpec, points
) -> tuple[np.ndarray, list[int], float | None]:
    """Points whose Szegő matrix is the kernel matrix of ``spec`` at
    ``points``, as one array, the number of them each point owns, and the
    truncation note: the points themselves (note None), their values
    phi(z) with one evaluation each (note ``power`` times the largest
    evaluation error bound), or their truncated orbits cut at
    ``KERNEL_POINT_RADIUS``, concatenated in order (note the largest
    orbit tail bound, None if any orbit has none).  Each orbit is the
    array ``orbits._orbit_array`` builds, with no entries or words.  A
    point that would own no row raises ``NumericalError``, and a spec of
    no known variant ``UnsupportedVariant``."""
    if isinstance(spec, OrbitGramKernel):
        orbits, tails = [], []
        for p in points:
            orbit, tail = _orbit_array(spec.group, p, spec.depth)
            orbits.append(orbit[_modulus(orbit) <= KERNEL_POINT_RADIUS])
            tails.append(tail)
        for i, orbit in enumerate(orbits):
            if not orbit.size:
                raise NumericalError(
                    f"point {i} at {points[i]} has no orbit point to depth "
                    f"{spec.depth} within the kernel radius {KERNEL_POINT_RADIUS}"
                )
        note = None if None in tails else max(tails)
        return np.concatenate(orbits), [o.size for o in orbits], note
    if isinstance(spec, ComposedInnerKernel):
        values, errors = bl.evaluate_many(spec.inner, points)
        note = spec.power * max(errors.tolist(), default=0.0)
        zs = np.array([v**spec.power for v in values.tolist()], dtype=complex)
        return zs, [1] * len(points), note
    if not isinstance(spec, SzegoKernel):
        raise UnsupportedVariant(f"unknown kernel spec {spec!r}")
    return np.array(points, dtype=complex), [1] * len(points), None


def dominance_check(
    k_sigma: KernelSpec,
    b_gamma: bl.BlaschkeProduct,
    c: float,
    points,
) -> PsdReport:
    """Positivity of c^2 K(B(z_i), B(z_j)) - K_sigma(z_i, z_j).

    K is the unweighted disk kernel evaluated at the images under the
    product ``b_gamma``; the difference is positive semidefinite
    whenever every basis multiplier of the invariant space is bounded
    by ``c`` in modulus.
    """
    if isinstance(k_sigma, OrbitGramKernel):
        raise UnsupportedVariant("dominance is defined for scalar kernels only")
    pts = _kernel_points(points)
    bvals, _ = bl.evaluate_many(b_gamma, pts)
    d = c * c * szego_matrix(bvals) - szego_matrix(_szego_points(k_sigma, pts)[0])
    # mirrored, as c^2 conj(x) - conj(y) = conj(c^2 x - y)
    return psd_check(HermitianMatrix._adopt(d))


def boundary_gram_quadrature(
    b: bl.BlaschkeProduct,
    max_power: int,
    n_quad: int,
) -> GramMatrix:
    """Gram matrix of the even powers B^0, B^2, ..., B^(2 max_power)
    against normalized arclength on the unit circle.

    The product must vanish at the origin, and ``n_quad`` must be a
    power of two at least 1024.  Two facts make the entries computable
    at full accuracy even when the zeros of B pile up at the boundary,
    where the raw integrand oscillates faster than any fixed node count
    can sample:

    * a finite Blaschke product is exactly unimodular on the circle, so
      the diagonal integrands |B|^(4n) are constant 1 there and the
      off-diagonal integrands reduce to the analytic functions
      B^(2(n-m));
    * the circle average of an analytic function is radius independent,
      so the off-diagonal means may be taken over an interior circle,
      where the equispaced rule's aliasing terms carry the factor
      INTERIOR_MEAN_RADIUS**INTERIOR_NODES = 2**-128 and vanish at
      double precision (Trefethen and Weideman, SIAM Review 56, 2014):
      ``n_quad`` sets the boundary rule only.

    The diagonal is the plain equispaced boundary average of |B|^(4n);
    the worst deviation of |B| from 1 over the boundary nodes is
    reported as ``truncation_note``, certifying the unimodularity the
    off-diagonal reduction relies on.

    Both circles are sampled on the fold of order s that ``_fold`` reads
    from the zeros, B(z) = z^((s - 1) m0) C(z^s) with m0 zeros at the
    origin.  s = 2 when the zeros off the origin are closed under
    negation, as a multiset and exactly in floating point, and every
    square zeta^2 is a valid zero (above the origin tolerance, inside
    the disk): C has one zero zeta^2 per pair +-zeta, every integrand
    is a function of w = z^2, and each mean over n nodes z is the mean
    over n / s nodes w, at half the factors each.  Otherwise s = 1 and
    C = B.  The interior circle of radius r^s in w then takes
    INTERIOR_NODES / s nodes, and its aliasing factor stays
    (r^s)**(INTERIOR_NODES / s) = r**INTERIOR_NODES.

    C is evaluated on both circles by ``blaschke.product_values``: chunks
    of zeros whose numerators and denominators multiply separately, one
    complex division per chunk.  Its values, and so the entries and the
    note, can differ from a per-zero product of B in the last bits.
    """
    if b.origin_multiplicity < 1:
        raise InputError("the product must vanish at the origin")
    if n_quad < 1024 or (n_quad & (n_quad - 1)) != 0:
        raise InputError("n_quad must be a power of two, at least 1024")
    if max_power < 0:
        raise InputError("max_power must be nonnegative")
    moduli, inner_sq = _circle_values(b, n_quad)
    k = moduli.size
    note = float(np.max(np.abs(moduli - 1.0)))
    # means of B^(2d) for d = 0 .. max_power over the interior circle
    means = np.empty(max_power + 1, dtype=complex)
    power = np.ones(inner_sq.size, dtype=complex)
    means[0] = 1.0
    for d in range(1, max_power + 1):
        power = power * inner_sq
        means[d] = np.sum(power) / inner_sq.size
    g = np.empty((max_power + 1, max_power + 1), dtype=complex)
    mod_pow = np.ones(k)
    mod_sq = moduli**4
    for n in range(max_power + 1):
        if n > 0:
            mod_pow = mod_pow * mod_sq
        g[n, n] = complex(float(np.sum(mod_pow) / k))
        for m in range(n):
            v = means[n - m]
            g[n, m] = v
            g[m, n] = v.conjugate()
    return GramMatrix(g, truncation_note=note)


def _circle_values(b: bl.BlaschkeProduct, n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    """The samples ``boundary_gram_quadrature`` averages on the fold of
    order s: |B| at the n_quad / s nodes w_k = exp(2 pi i k s / n_quad)
    of the unit circle, |B(z_k)| = |C(w_k)|, and B^2 at INTERIOR_NODES / s
    nodes of the interior circle, B(r z)^2 = u^((s - 1) m0) C(u)^2 with
    u = r^s w_k at every (n_quad / INTERIOR_NODES)-th w_k.  C is
    evaluated once, at the nodes of both circles joined into one array,
    which gives each value the bits of a call on its circle alone."""
    s, c = _fold(b)
    k = n_quad // s
    angles = 2.0 * np.pi * np.arange(k) / k
    nodes = np.exp(1j * angles)
    inner = INTERIOR_MEAN_RADIUS**s * nodes[:: n_quad // INTERIOR_NODES]
    values = bl.product_values(c, np.concatenate((nodes, inner)))
    moduli = np.abs(values[:k])
    inner_sq = values[k:] ** 2
    for _ in range((s - 1) * b.origin_multiplicity):
        inner_sq *= inner
    return moduli, inner_sq


def _fold(b: bl.BlaschkeProduct) -> tuple[int, bl.BlaschkeProduct]:
    """The fold order s and the product C of ``boundary_gram_quadrature``,
    with B(z) = z^((s - 1) m0) C(z^s): s = 2 when ``_negation_squares``
    pairs the zeros, and C's zeros are their squares.  A square that
    ``BlaschkeProduct`` refuses (|zeta^2| up to the origin tolerance, or
    rounded onto the circle) leaves s = 1."""
    squares = _negation_squares(b.zeros)
    if squares is None:
        return 1, b
    try:
        return 2, bl.BlaschkeProduct(0, tuple(squares.tolist()), 0.0)
    except InputError:
        return 1, b


def _negation_squares(values, counts=None) -> np.ndarray | None:
    """The squares of the values above the imaginary axis, in their given
    order, if in each run of consecutive values, of the lengths
    ``counts`` (one run by default), the others are exactly their
    negations, as a multiset and in floating point; otherwise None.
    Each square is Python's p * p, by ``mobius._product``.  The
    values split by the sign of Re, or of Im where Re = 0, so a value at
    0 falls below and is never paired.  Sorting, like ``==``, takes -0.0
    and 0.0 as equal."""
    counts = counts or [len(values)]
    # an odd run never pairs: Szegő and composed rows, one per node,
    # skip the array test and its tens of microseconds
    if any(count % 2 for count in counts):
        return None
    v = np.asarray(values, dtype=complex)
    run = np.repeat(np.arange(len(counts)), counts)
    upper = (v.real > 0.0) | ((v.real == 0.0) & (v.imag > 0.0))
    a, b, ra, rb = v[upper], -v[~upper], run[upper], run[~upper]
    ia, ib = np.lexsort((a.imag, a.real, ra)), np.lexsort((b.imag, b.real, rb))
    if not (np.array_equal(ra[ia], rb[ib]) and np.array_equal(a[ia], b[ib])):
        return None
    return _complex(*_product(a.real, a.imag, a.real, a.imag))
