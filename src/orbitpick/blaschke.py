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
from functools import cached_property

import numpy as np

from .errors import (
    InconclusiveCharacter,
    InputError,
    NoTailBound,
    TooCloseToBoundary,
)
from .linalg import _checked_tolerance
from .mobius import DiskAutomorphism, _automorphism_parts, _complex, _modulus, _product, _quotient
from .orbits import Orbit

# Zeros with modulus at or below this threshold are counted as zeros at
# the origin: the normalizing phase |zeta|/zeta degrades as zeta -> 0.
_ORIGIN_TOL = 1e-12

EVAL_RADIUS_LIMIT = 0.999

# Below this many points ``evaluate_many`` multiplies each point's
# factors in Python complex; from it on, one numpy pass over the points
# per factor takes less time (the two cross at 250-300 points for 58
# and for 116 zeros).
_FEW_POINTS = 256
# Factors (rows of few points) or points (the numpy pass) per block, so
# that each temporary array stays at 256 KB.
_BLOCK = 1 << 15

# ``product_values`` divides once per chunk of at most ``_CHUNK`` zeros,
# closed early once the chunk's weight prod(1 - |zeta|) drops below
# ``_CHUNK_FLOOR``; it accepts |z| up to 1 + ``_CIRCLE_SLACK``, the
# rounding of a computed point of the unit circle.
_CHUNK = 64
_CHUNK_FLOOR = 1e-150
_CIRCLE_SLACK = 1e-15

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
            if not m < 1.0:  # a NaN modulus fails every comparison
                raise InputError("zeros must lie inside the open disk")

    @property
    def degree(self) -> int:
        return self.origin_multiplicity + len(self.zeros)

    @cached_property
    def _zero_parts(self) -> np.ndarray:
        """Rows re p, im p, re zeta, im zeta over the zeros zeta and their
        phases p = abs(zeta) / zeta, taken once by Python's division."""
        zeros = np.array(self.zeros, dtype=complex)
        phases = np.array([abs(z) / z for z in self.zeros], dtype=complex)
        return np.stack([phases.real, phases.imag, zeros.real, zeros.imag])


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


def product_values(b: BlaschkeProduct, zs: np.ndarray) -> np.ndarray:
    """Raw product values over an array of points with |z| <= 1, in
    numpy complex arithmetic, with no clamping.

    For the boundary quadrature of exact finite products, whose points
    lie on circles of radius 1 and less.  Each chunk of zeros multiplies
    its numerators zeta_k - z into one array and its denominators
    1 - conj(zeta_k) z into another, then divides once; the phases
    |zeta_k|/zeta_k multiply in once at the end.  A chunk closes after
    ``_CHUNK`` zeros, or earlier once its weight prod(1 - |zeta_k|)
    falls below ``_CHUNK_FLOOR``.  For |z| <= 1, |1 - conj(zeta) z| >=
    1 - |zeta|, so each denominator product stays above about 1e-166
    and both products stay below 2**_CHUNK: no division overflows or
    divides by an underflowed product.  The values can differ from a
    per-zero loop and from ``evaluate_many`` in the last bits.  Raises
    ``InputError`` for a point beyond the unit circle (by more than the
    rounding of |z|) or not finite.
    """
    zs = np.asarray(zs, dtype=complex)
    if not (_modulus(zs) <= 1.0 + _CIRCLE_SLACK).all():
        raise InputError("product_values takes points with |z| <= 1")
    v = np.ones_like(zs)
    for _ in range(b.origin_multiplicity):
        v *= zs
    num, den, factor = np.empty_like(zs), np.empty_like(zs), np.empty_like(zs)
    for chunk in _chunks(b.zeros):
        num.fill(1.0)
        den.fill(1.0)
        for zeta in chunk:
            num *= np.subtract(zeta, zs, out=factor)
            np.multiply(zs, zeta.conjugate(), out=factor)
            den *= np.subtract(1.0, factor, out=factor)
        v *= np.divide(num, den, out=num)
    v *= math.prod([abs(zeta) / zeta for zeta in b.zeros], start=complex(1.0))
    return v


def _chunks(zeros: tuple[complex, ...]):
    """Consecutive chunks of ``zeros`` for ``product_values``: each closes
    after ``_CHUNK`` zeros or at the zero that takes its weight
    prod(1 - |zeta|) below ``_CHUNK_FLOOR``."""
    start, weight = 0, 1.0
    for k, zeta in enumerate(zeros):
        weight *= 1.0 - abs(zeta)
        if k + 1 - start == _CHUNK or weight < _CHUNK_FLOOR:
            yield zeros[start : k + 1]
            start, weight = k + 1, 1.0
    if start < len(zeros):
        yield zeros[start:]


def evaluate(b: BlaschkeProduct, z: complex) -> tuple[complex, float]:
    """Value and truncation error bound at one interior point: the
    one-point call of ``evaluate_many``, which leaves its memory of
    few-point calls alone."""
    values, errors = _evaluate(b, np.array([z], dtype=complex))
    return complex(values[0]), float(errors[0])


def evaluate_many(b: BlaschkeProduct, zs) -> tuple[np.ndarray, np.ndarray]:
    """Values and truncation error bounds at interior points, in the
    flat order of ``zs``.

    The value is the finite product z^m0 * prod_k p_k (zeta_k - z) /
    (1.0 - conj(zeta_k) z), p_k = |zeta_k|/zeta_k, with its factors
    multiplied in stored zero order and the result clamped onto the
    closed unit disk; the error bound is tail_weight * (1+|z|)/(1-|z|).
    Raises ``TooCloseToBoundary`` at the first point with |z| > 0.999,
    where the bound degenerates.

    Each value equals the one of Python's complex arithmetic bit for
    bit, signed zeros included: each factor is the map of
    ``mobius._automorphism_parts`` with a = zeta_k and lam = p_k, the
    factors multiply by ``mobius._product`` and moduli are
    ``mobius._modulus``, Python's abs.

    A product keeps its last call with fewer than ``_FEW_POINTS``
    points and answers the same points again from it: the verdict, the
    norm and the construction of a composed-kernel problem each push the
    same nodes through the product.  Every call returns fresh arrays.
    """
    z = np.asarray(zs, dtype=complex).reshape(-1)
    if z.size >= _FEW_POINTS:
        return _evaluate(b, z)
    key = z.tobytes()
    last = b.__dict__.get("_last_few")
    if last is None or last[0] != key:
        last = b.__dict__["_last_few"] = (key, *_evaluate(b, z))
    return last[1].copy(), last[2].copy()


def _evaluate(b: BlaschkeProduct, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``evaluate_many`` without the memory.  Fewer than ``_FEW_POINTS``
    points each multiply a row of factors in Python complex; more take
    one numpy pass over the points per factor.  Blocks of ``_BLOCK``
    factors or points bound the temporaries."""
    r, inside = _moduli(z)
    if inside < z.size:
        raise _too_close(r[inside])
    parts = b._zero_parts
    if z.size < _FEW_POINTS:
        rows = max(1, _BLOCK // max(parts.shape[1], 1))
        values = []
        for s in range(0, z.size, rows):
            block = z[s : s + rows, None]
            factors = _complex(*_automorphism_parts(*parts, block.real, block.imag))
            for w, row in zip(block[:, 0].tolist(), factors.tolist()):
                values.append(math.prod([w] * b.origin_multiplicity + row, start=complex(1.0)))
        v = np.array(values, dtype=complex)
        vr, vi = v.real, v.imag
    else:
        vr, vi = np.ones(z.size), np.zeros(z.size)
        for s in range(0, z.size, _BLOCK):
            xr, xi = z.real[s : s + _BLOCK], z.imag[s : s + _BLOCK]
            yr, yi = vr[s : s + _BLOCK], vi[s : s + _BLOCK]  # views, updated in place
            for _ in range(b.origin_multiplicity):
                yr[:], yi[:] = _product(yr, yi, xr, xi)
            for phase_zeta in parts.T.tolist():
                yr[:], yi[:] = _product(yr, yi, *_automorphism_parts(*phase_zeta, xr, xi))
    m = np.hypot(vr, vi)
    out = m > 1.0
    if out.any():
        vr[out], vi[out] = _quotient(vr[out], vi[out], m[out], 0.0)
    return _complex(vr, vi), b.tail_weight * (1.0 + r) / (1.0 - r)


def _moduli(z: np.ndarray) -> tuple[np.ndarray, int]:
    """|z| at each point, equal to Python's abs, and the index of the
    first point beyond the evaluation radius (len(z) if there is none)."""
    r = _modulus(z)
    far = r > EVAL_RADIUS_LIMIT + 1e-12  # headroom for rounding of |z| itself
    return r, int(np.argmax(far)) if far.any() else r.size


def _too_close(r: float) -> TooCloseToBoundary:
    return TooCloseToBoundary(
        f"|z| = {float(r):.17g} exceeds the evaluation radius {EVAL_RADIUS_LIMIT}"
    )


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
    as does a residual above ``tol``, which must be positive and finite.
    """
    _checked_tolerance(tol)
    images = np.array([g(z) for z in CHARACTER_PROBES])
    # B(g(z)) and B(z) in one call for the probes before the first whose
    # image is too close to the boundary; those are judged first, in order
    radii, inside = _moduli(images)
    pairs = np.stack([images, np.array(CHARACTER_PROBES)], axis=1)[:inside]
    values, errors = (a.reshape(-1, 2).tolist() for a in evaluate_many(b, pairs))
    ratios = []
    for z, (num, den), (num_err, den_err) in zip(CHARACTER_PROBES, values, errors):
        if abs(den) <= 10.0 * den_err or abs(num) <= 10.0 * num_err:
            raise InconclusiveCharacter(
                f"probe {z:.3f} lands too near a zero for the requested accuracy"
            )
        ratios.append(num / den)
    if inside < len(images):
        raise InconclusiveCharacter(
            f"automorphism sends probe {CHARACTER_PROBES[inside]:.3f} too close "
            "to the boundary"
        ) from _too_close(radii[inside])
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
