"""Truncated orbit Blaschke products with rigorous truncation error.

A finite Blaschke product with zeros z^m0 at the origin and zeta_k
elsewhere is evaluated in the standard normalized factorization

    B(z) = z^m0 * prod_k (|zeta_k|/zeta_k) (zeta_k - z)/(1 - conj(zeta_k) z).

When the product is a truncation of a convergent infinite product, the
one-factor estimate |1 - (|z0|/z0)(z0-z)/(1-conj(z0)z)| <=
(1+|z|)(1-|z0|)/(1-|z|) turns the omitted Blaschke weight into a
pointwise error bound for the evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InconclusiveCharacter,
    InputError,
    NoTailBound,
    TooCloseToBoundary,
)
from .mobius import DiskAutomorphism
from .orbits import Orbit

# Zeros with modulus at or below this threshold are counted as zeros at
# the origin: the normalizing phase |zeta|/zeta degrades as zeta -> 0.
_ORIGIN_TOL = 1e-12

EVAL_RADIUS_LIMIT = 0.999

# Character extraction probes: eight points well inside the disk.
CHARACTER_PROBES = tuple(0.37 * cmath.exp(2j * cmath.pi * k / 8) for k in range(8))


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with a truncation-tail certificate.

    ``tail_weight`` bounds the Blaschke weight sum(1 - |zeta|) over the
    omitted true zeros (0 for an exact finite product).  When a product
    is built from an orbit that carries no convergence certificate the
    tail is recorded as 0 with ``tail_certified = False``: evaluation
    error bounds are then not meaningful.
    """

    origin_multiplicity: int
    zeros: tuple[complex, ...]
    tail_weight: float
    tail_certified: bool = True

    def __post_init__(self):
        if self.origin_multiplicity < 0:
            raise InputError("origin multiplicity must be nonnegative")
        if not (math.isfinite(self.tail_weight) and self.tail_weight >= 0.0):
            raise InputError("tail weight must be finite and nonnegative")
        for z in self.zeros:
            m = abs(z)
            if m <= _ORIGIN_TOL:
                raise InputError("zeros at the origin go in origin_multiplicity")
            if m >= 1.0:
                raise InputError("zeros must lie inside the open disk")

    @property
    def degree(self) -> int:
        return self.origin_multiplicity + len(self.zeros)


def from_orbit(
    orbit: Orbit, stabilizer_order: int, strict: bool = True
) -> BlaschkeProduct:
    """Blaschke product vanishing on the orbit, raised to the stabilizer
    order.

    Entries at the origin contribute to ``origin_multiplicity``; every
    other orbit point becomes a zero repeated ``stabilizer_order`` times
    consecutively, preserving the breadth-first zero order.  The tail
    weight is the orbit tail bound times the stabilizer order; if the
    orbit has no tail bound, ``strict=True`` raises ``NoTailBound`` and
    ``strict=False`` returns an uncertified product.
    """
    m = int(stabilizer_order)
    if m < 1:
        raise InputError("stabilizer order must be at least 1")
    origin = 0
    zeros: list[complex] = []
    for entry in orbit.entries:
        if abs(entry.point) <= _ORIGIN_TOL:
            origin += m
        else:
            zeros.extend([entry.point] * m)
    if orbit.tail_bound is None:
        if strict:
            raise NoTailBound(
                "orbit carries no convergence certificate; disable strict "
                "mode to build an uncertified product"
            )
        return BlaschkeProduct(origin, tuple(zeros), 0.0, tail_certified=False)
    return BlaschkeProduct(origin, tuple(zeros), m * orbit.tail_bound)


def product_value(b: BlaschkeProduct, z: complex) -> complex:
    """Raw product value with no boundary guard and no clamping.

    Factors are accumulated in stored zero order; used internally where
    the evaluation point may be near or on the unit circle (boundary
    quadrature of exact finite products).
    """
    v = complex(1.0)
    for _ in range(b.origin_multiplicity):
        v *= z
    for zeta in b.zeros:
        v *= (abs(zeta) / zeta) * (zeta - z) / (1.0 - zeta.conjugate() * z)
    return v


def product_values(b: BlaschkeProduct, zs: np.ndarray) -> np.ndarray:
    """Vectorized ``product_value`` over an array of points."""
    zs = np.asarray(zs, dtype=complex)
    v = np.ones_like(zs)
    for _ in range(b.origin_multiplicity):
        v = v * zs
    for zeta in b.zeros:
        v = v * ((abs(zeta) / zeta) * (zeta - zs) / (1.0 - zeta.conjugate() * zs))
    return v


def evaluate(b: BlaschkeProduct, z: complex) -> tuple[complex, float]:
    """Value and truncation error bound at an interior point.

    The value is the finite product in stored zero order, clamped onto
    the closed unit disk; the error bound is
    tail_weight * (1+|z|)/(1-|z|).  Raises ``TooCloseToBoundary`` for
    |z| > 0.999, where the bound degenerates.
    """
    r = abs(z)
    if r > EVAL_RADIUS_LIMIT + 1e-12:  # headroom for rounding of |z| itself
        raise TooCloseToBoundary(
            f"|z| = {r:.17g} exceeds the evaluation radius {EVAL_RADIUS_LIMIT}"
        )
    v = product_value(b, z)
    m = abs(v)
    if m > 1.0:
        v /= m
    err = b.tail_weight * (1.0 + r) / (1.0 - r)
    return v, err


@dataclass(frozen=True)
class CharacterReport:
    """Unimodular multiplier picked up under composition with one
    automorphism, with the spread of the probe ratios around it."""

    value: complex
    consistency_residual: float


def character_of(
    b: BlaschkeProduct,
    g: DiskAutomorphism,
    tol: float = 1e-6,
) -> CharacterReport:
    """Estimate the constant sigma with B(g(z)) = sigma * B(z).

    The ratio B(g(z))/B(z) is formed at the probe points, the angular
    median is projected to the unit circle, and the maximal deviation
    of the ratios from that value is reported.  Probes where the
    product value is not safely above its own truncation error bound
    make the extraction unreliable and raise ``InconclusiveCharacter``,
    as does a residual above ``tol``.
    """
    ratios = []
    for z in CHARACTER_PROBES:
        gz = g(z)
        try:
            num, num_err = evaluate(b, gz)
            den, den_err = evaluate(b, z)
        except TooCloseToBoundary as exc:
            raise InconclusiveCharacter(
                f"automorphism sends probe {z:.3f} too close to the boundary"
            ) from exc
        if abs(den) <= 10.0 * den_err or abs(num) <= 10.0 * num_err:
            raise InconclusiveCharacter(
                f"probe {z:.3f} lands too near a zero for the requested accuracy"
            )
        ratios.append(num / den)
    ref = ratios[0] / abs(ratios[0])
    angles = sorted(cmath.phase(r * ref.conjugate()) for r in ratios)
    k = len(angles)
    median = (
        angles[k // 2] if k % 2 else 0.5 * (angles[k // 2 - 1] + angles[k // 2])
    )
    value = ref * cmath.exp(1j * median)
    residual = max(abs(r - value) for r in ratios)
    if residual > tol:
        raise InconclusiveCharacter(
            f"probe ratios spread {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    return CharacterReport(value, residual)
