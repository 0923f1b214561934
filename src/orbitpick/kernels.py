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
from .linalg import STRIP_ROWS, HermitianMatrix, PsdReport, psd_check
from .mobius import _complex, _denominator_parts, disk_point, pseudo_hyperbolic
from .orbits import GroupPresentation, enumerate_orbit

# Orbit points beyond this radius are excluded from kernel blocks: the
# kernel diagonal 1/(1-|p|^2) past it overwhelms double precision and
# the excluded rows carry no usable positivity information.  Matches
# the Blaschke evaluation radius.
KERNEL_POINT_RADIUS = bl.EVAL_RADIUS_LIMIT

_DISTINCT_TOL = 1e-10
_COINCIDE = "points {i} and {j} coincide within {tol}"

# Interior circle used for the analytic part of the boundary Gram
# integrals; any radius in (0, 1) gives the same mean, and 1/2 keeps
# the equispaced rule's aliasing terms at 0.5**n_quad, i.e. zero.
INTERIOR_MEAN_RADIUS = 0.5


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


def check_distinct(points, error: type, message: str) -> list[complex]:
    """Validated disk points, pairwise more than ``_DISTINCT_TOL`` apart
    in the pseudo-hyperbolic metric.  The first pair i < j within it
    raises ``error(message.format(i=i, j=j, tol=_DISTINCT_TOL))``."""
    pts = [disk_point(p) for p in points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pseudo_hyperbolic(pts[i], pts[j]) <= _DISTINCT_TOL:
                raise error(message.format(i=i, j=j, tol=_DISTINCT_TOL))
    return pts


def gram(spec: KernelSpec, points) -> GramMatrix:
    """Gram matrix [K(z_i, z_j)] over pairwise distinct points: the
    Szegő matrix at the points ``_szego_points`` gives for ``spec``.

    For the orbit variant the result is the block matrix over the
    truncated orbits of every point, in deterministic orbit order.
    """
    pts = check_distinct(points, DuplicatePoints, _COINCIDE)
    if not pts:
        raise InputError("at least one point is required")
    zs, _, note = _szego_points(spec, pts)
    return GramMatrix(szego_matrix(zs), note)


def _orbit_points(
    group: GroupPresentation, depth: int, z: complex, tails: list
) -> list[complex]:
    """Orbit of ``z`` truncated to depth, restricted to the radius where
    kernel rows are numerically meaningful; the orbit's ``tail_bound``
    is appended to ``tails``."""
    # The benchmark tracer (bench/orbitbench/tracing.py) counts cut points
    # from the list this returns, so the tail bound leaves by ``tails``.
    orbit = enumerate_orbit(group, z, depth)
    tails.append(orbit.tail_bound)
    return [p for p in orbit.points if abs(p) <= KERNEL_POINT_RADIUS]


def _szego_points(
    spec: KernelSpec, points
) -> tuple[list[complex], list[int], float | None]:
    """Points whose Szegő matrix is the kernel matrix of ``spec`` at
    ``points``, the number of them each point owns, and the truncation
    note: the points themselves (note None), their values phi(z) with
    one evaluation each (note ``power`` times the largest evaluation
    error bound), or their truncated orbits, concatenated in order
    (note the largest orbit tail bound, None if any orbit has none).
    A point that would own no row raises ``NumericalError``, and a spec
    of no known variant ``UnsupportedVariant``."""
    if isinstance(spec, OrbitGramKernel):
        tails: list = []
        orbits = [_orbit_points(spec.group, spec.depth, p, tails) for p in points]
        for i, orbit in enumerate(orbits):
            if not orbit:
                raise NumericalError(
                    f"point {i} at {points[i]} has no orbit point to depth "
                    f"{spec.depth} within the kernel radius {KERNEL_POINT_RADIUS}"
                )
        note = None if None in tails else max(tails)
        return [q for orbit in orbits for q in orbit], [len(o) for o in orbits], note
    if isinstance(spec, ComposedInnerKernel):
        values, errors = bl.evaluate_many(spec.inner, points)
        note = spec.power * max(errors.tolist(), default=0.0)
        return [v**spec.power for v in values.tolist()], [1] * len(points), note
    if not isinstance(spec, SzegoKernel):
        raise UnsupportedVariant(f"unknown kernel spec {spec!r}")
    return list(points), [1] * len(points), None


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
    pts = check_distinct(points, DuplicatePoints, _COINCIDE)
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
      INTERIOR_MEAN_RADIUS**n_quad and vanish at double precision.

    The diagonal is the plain equispaced boundary average of |B|^(4n);
    the worst deviation of |B| from 1 over the boundary nodes is
    reported as ``truncation_note``, certifying the unimodularity the
    off-diagonal reduction relies on.
    """
    if b.origin_multiplicity < 1:
        raise InputError("the product must vanish at the origin")
    if n_quad < 1024 or (n_quad & (n_quad - 1)) != 0:
        raise InputError("n_quad must be a power of two, at least 1024")
    if max_power < 0:
        raise InputError("max_power must be nonnegative")
    angles = 2.0 * np.pi * np.arange(n_quad) / n_quad
    nodes = np.exp(1j * angles)
    moduli = np.abs(bl.product_values(b, nodes))
    note = float(np.max(np.abs(moduli - 1.0)))
    inner_sq = bl.product_values(b, INTERIOR_MEAN_RADIUS * nodes) ** 2
    # means of B^(2d) for d = 0 .. max_power over the interior circle
    means = np.empty(max_power + 1, dtype=complex)
    power = np.ones(n_quad, dtype=complex)
    means[0] = 1.0
    for d in range(1, max_power + 1):
        power = power * inner_sq
        means[d] = np.sum(power) / n_quad
    g = np.empty((max_power + 1, max_power + 1), dtype=complex)
    mod_pow = np.ones(n_quad)
    mod_sq = moduli**4
    for n in range(max_power + 1):
        if n > 0:
            mod_pow = mod_pow * mod_sq
        g[n, n] = complex(float(np.sum(mod_pow) / n_quad))
        for m in range(n):
            v = means[n - m]
            g[n, m] = v
            g[m, n] = v.conjugate()
    return GramMatrix(g, truncation_note=note)
