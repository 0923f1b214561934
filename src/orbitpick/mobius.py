"""Disk automorphisms in canonical (a, lambda) form.

Every automorphism of the open unit disk can be written uniquely as

    phi(z) = lam * (a - z) / (1 - conj(a) * z),   |a| < 1, |lam| = 1,

and the parameters are recovered from any concrete map through
a = phi^{-1}(0) and lam = phi'(0) / (|a|^2 - 1).  In this convention the
identity map is (a=0, lam=-1) and the half-turn z -> -z is (a=0, lam=1).
Every operation renormalizes its result as it builds it: a parameter
that rounded onto the unit circle is pulled back inside and lam is
divided by its modulus, so |lam| cannot drift off the unit circle in
long composition chains.

``automorphism_images`` and ``iterate_images`` evaluate many maps at
once in numpy, and the private ``_compose_grid`` composes many maps
with each of a few letters, each value equal to the scalar call bit for
bit.  They run the scalar methods' complex operations in real
arithmetic in Python's order, which this module states once for the
library: ``_product``, ``_modulus`` (Python's abs), ``_quotient``,
1 - conj(a) z (``_denominator_parts``) and the map itself
(``_automorphism_parts``).  A term abs(x) ** 2 stays Python's float
power, libm's pow, which can differ from x * x in the last bit, and
complex results are filled part by part, which keeps signed zeros.

The public constructor validates its parameters.  The library's own
results (``compose``, ``canonicalize``, ``iterate_cyclic``) are built
without repeating those checks, because the renormalization has just
established them: finite parameters, |a| < 1 and |lam| = 1 to rounding.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotDiskAutomorphism, NotInDisk

# Open-disk points are rejected closer to the boundary than this margin;
# nearer points are not resolvable at double precision for the orbit
# computations built on top of this module.
DISK_BOUNDARY_MARGIN = 1e-14

_UNIT_CIRCLE_TOL = 1e-12
_PARAM_CLAMP = math.nextafter(1.0, 0.0)  # largest float strictly below 1

# Below this many rows the scalar compositions of _compose_grid take less
# time than its numpy pass (about 150 us at 64 rows either way).
_FEW_ROWS = 64

# Fixed deterministic probe grid used for map-equality checks.
PROBE_GRID = tuple(
    r * cmath.exp(2j * cmath.pi * k / 8) for r in (0.1, 0.6) for k in range(8)
)


def disk_point(value) -> complex:
    """Validate a point of the open unit disk and return it as ``complex``.

    Raises ``NotInDisk`` for non-finite values and for points with
    |z| >= 1 - 1e-14.
    """
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NotInDisk(f"non-finite point {value!r}")
    if abs(z) >= 1.0 - DISK_BOUNDARY_MARGIN:
        raise NotInDisk(f"|z| = {abs(z):.17g} is not inside the open unit disk")
    return z


def pseudo_hyperbolic(z: complex, w: complex) -> float:
    """Automorphism-invariant distance |z - w| / |1 - conj(w) z|."""
    return abs(z - w) / abs(1.0 - w.conjugate() * z)


@dataclass(frozen=True)
class DiskAutomorphism:
    """The map phi(z) = lam (a - z) / (1 - conj(a) z).

    ``a`` is the preimage of 0 and ``lam`` a unimodular factor.  Values
    are immutable; every operation returns a fresh canonical instance.
    """

    a: complex
    lam: complex

    def __post_init__(self):
        a = complex(self.a)
        lam = complex(self.lam)
        if not all(
            math.isfinite(v) for v in (a.real, a.imag, lam.real, lam.imag)
        ):
            raise NotDiskAutomorphism("non-finite parameters")
        if abs(a) >= 1.0:
            raise NotDiskAutomorphism(f"pole parameter |a| = {abs(a):.17g} >= 1")
        if abs(abs(lam) - 1.0) > _UNIT_CIRCLE_TOL:
            raise NotDiskAutomorphism(f"|lam| = {abs(lam):.17g} is not unimodular")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lam", lam)

    @classmethod
    def _trusted(cls, a: complex, lam: complex) -> "DiskAutomorphism":
        """An instance built without checks, for complex parameters
        already known to be finite with |a| < 1 and |lam| = 1 to within
        the constructor's tolerance."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["a"] = a
        fields["lam"] = lam
        return self

    @classmethod
    def identity(cls) -> "DiskAutomorphism":
        return cls(0j, complex(-1.0))

    def __call__(self, z: complex) -> complex:
        return self.lam * (self.a - z) / (1.0 - self.a.conjugate() * z)

    def derivative(self, z: complex) -> complex:
        den = 1.0 - self.a.conjugate() * z
        return self.lam * (abs(self.a) ** 2 - 1.0) / (den * den)

    def inverse(self) -> "DiskAutomorphism":
        # phi^{-1} has preimage-of-0 equal to phi(0) = lam*a and
        # unimodular factor conj(lam).
        return DiskAutomorphism(self.lam * self.a, self.lam.conjugate())

    def compose(self, other: "DiskAutomorphism") -> "DiskAutomorphism":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        # a = other^{-1}(self.a), in the operations of other.inverse()(self.a);
        # other^{-1} has the parameters (ia, conj(other.lam)).
        ia = other.lam * other.a
        if not abs(ia) < 1.0:
            other.inverse()  # raises the constructor's error for ia
        a = _clamp_inside(
            other.lam.conjugate() * (ia - self.a) / (1.0 - ia.conjugate() * self.a)
        )
        num = self.derivative(other(0j)) * other.derivative(0j)
        lam = num / (abs(a) ** 2 - 1.0)
        return _normalized(a, lam)

    def is_identity(self) -> bool:
        return abs(self.a) <= 1e-12 and abs(self.lam + 1.0) <= 1e-12


def _clamp_inside(a: complex) -> complex:
    """Pull a parameter that rounded onto the unit circle back inside;
    anything farther out is a genuine error."""
    m = abs(a)
    if m >= 1.0:
        if m > 1.0 + 1e-12:
            raise NotDiskAutomorphism(f"pole parameter |a| = {m:.17g} >= 1")
        a = a * (_PARAM_CLAMP / m)
        # The rescaled product can round back onto the circle, where
        # |a|^2 - 1 = 0 would divide; each step takes an ulp off.
        while abs(a) >= 1.0:
            a = a * _PARAM_CLAMP
    return a


def _normalized(a: complex, lam: complex) -> DiskAutomorphism:
    """Build an automorphism from complex parameters, pulling ``a``
    inside and renormalizing |lam| to 1."""
    r = abs(lam)
    if not (math.isfinite(r) and r > 0.0):
        raise NotDiskAutomorphism("degenerate unimodular factor")
    if abs(a) < 1.0 and r >= sys.float_info.min:
        return DiskAutomorphism._trusted(a, lam / r)
    # ``a`` is not finite or needs the clamp, or r is subnormal and too
    # coarse for lam / r to be unimodular: the constructor decides.
    return DiskAutomorphism(_clamp_inside(a), lam / r)


def canonicalize(p, q, r, s) -> DiskAutomorphism:
    """Canonical form of the fractional-linear map z -> (pz+q)/(rz+s).

    The map must send the unit disk onto itself; this is checked by
    requiring |f(0)| < 1, boundary modulus 1 at eight sample points on
    the circle, and agreement of the canonical form with f to 1e-12 on
    the fixed probe grid.  Raises ``NotDiskAutomorphism`` otherwise.
    """
    coeffs = [complex(v) for v in (p, q, r, s)]
    if not all(
        math.isfinite(c.real) and math.isfinite(c.imag) for c in coeffs
    ):
        raise NotDiskAutomorphism("non-finite coefficients")
    cp, cq, cr, cs = coeffs
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        raise NotDiskAutomorphism("zero map")

    def f(z: complex) -> complex:
        den = cr * z + cs
        if abs(den) < 1e-300:
            raise NotDiskAutomorphism("pole at a probe point")
        return (cp * z + cq) / den

    if abs(f(0j)) >= 1.0:
        raise NotDiskAutomorphism("map does not send 0 into the disk")
    for k in range(8):
        b = cmath.exp(2j * cmath.pi * k / 8)
        if abs(abs(f(b)) - 1.0) > 1e-8:
            raise NotDiskAutomorphism(
                f"boundary modulus {abs(f(b)):.17g} at sample {k} is not 1"
            )
    if abs(cp) < 1e-14 * scale:
        raise NotDiskAutomorphism("degenerate map: leading coefficient vanishes")
    a = -cq / cp
    if abs(a) >= 1.0:
        raise NotDiskAutomorphism("preimage of 0 lies outside the disk")
    d0 = (cp * cs - cq * cr) / (cs * cs)
    phi = _normalized(a, d0 / (abs(a) ** 2 - 1.0))
    for z in PROBE_GRID:
        if abs(phi(z) - f(z)) > 1e-12:
            raise NotDiskAutomorphism(
                "canonical form does not reproduce the map on the probe grid"
            )
    return phi


def iterate_cyclic(a: float, n: int) -> DiskAutomorphism:
    """n-th iterate of z -> (z - a)/(1 - a z), a in (-1, 1).

    The iterate is again of the same form with translation parameter
    a_n = tanh(n * atanh(a)); the tanh form is algebraically identical
    to the quotient of binomial powers and does not overflow for large
    n.  For |n| large enough that a_n is not representable below 1 the
    parameter is clamped to the largest float strictly inside the disk.
    """
    a = float(a)
    if not -1.0 < a < 1.0:
        raise NotDiskAutomorphism(f"translation parameter {a!r} not in (-1, 1)")
    return DiskAutomorphism._trusted(complex(_iterate_parameter(a, n)), complex(-1.0))


def _iterate_parameter(a: float, n: int, atanh_a: float | None = None) -> float:
    if abs(n) <= 1:
        return n * a  # avoid the last-bit wobble of tanh(atanh(a))
    an = math.tanh(n * (math.atanh(a) if atanh_a is None else atanh_a))
    if abs(an) >= 1.0:
        an = math.copysign(_PARAM_CLAMP, an)
    return an


def iterate_images(a: float, ns, z) -> np.ndarray:
    """[iterate_cyclic(a, n)(z)] over an integer array ``ns`` and a
    point or array of points ``z``, each value equal bit for bit.

    The parameter of a negative power is the negated parameter of the
    positive one, as ``math.tanh`` and ``math.copysign`` are odd to the
    last bit, so each tanh is taken once, and atanh(a) once per call.
    """
    ns = np.asarray(ns)
    top = int(np.max(np.abs(ns), initial=0))
    h = math.atanh(a)
    table = np.array([_iterate_parameter(a, n, h) for n in range(top + 1)])
    params = table[np.abs(ns)]
    np.negative(params, out=params, where=ns < 0)
    return automorphism_images(params, complex(-1.0), z)


def automorphism_images(a, lam, z) -> np.ndarray:
    """[DiskAutomorphism(a, lam)(z)] over broadcast arrays of parameters
    and points, each value equal to the scalar call bit for bit."""
    a = np.asarray(a, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    z = np.asarray(z, dtype=complex)
    return _complex(*_automorphism_parts(lam.real, lam.imag, a.real, a.imag, z.real, z.imag))


def _compose_grid(a, lam, letters, start: int = 0, stop: int | None = None):
    """(a, lam, ok) of DiskAutomorphism(a[i], lam[i]).compose(letters[j])
    over the rows k = i * len(letters) + j with start <= k < stop (by
    default every row), each value equal to the scalar call bit for bit;
    ``ok`` is False where that call raises ``NotDiskAutomorphism``.

    A row the numpy pass of ``_compose_pass`` cannot take is composed by
    the scalar ``compose``, and so is every row of a call with fewer
    than ``_FEW_ROWS`` rows, where the scalar calls cost less than the
    fixed cost of the pass.
    """
    a = np.asarray(a, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    width = len(letters)
    if stop is None:
        stop = a.size * width
    if stop - start < _FEW_ROWS:
        ar, ai, lr, li = np.empty((4, stop - start))
        ok = np.zeros(stop - start, dtype=bool)
    else:
        # the pass composes whole rows of a; the requested ones are cut out
        lo, hi = start // width, -(-stop // width)
        cut = slice(start - lo * width, stop - lo * width)
        ar, ai, lr, li, ok = (
            v.ravel()[cut] for v in _compose_pass(a[lo:hi], lam[lo:hi], letters)
        )
    for k in np.flatnonzero(~ok).tolist():
        i, j = divmod(start + k, width)
        try:
            phi = DiskAutomorphism._trusted(complex(a[i]), complex(lam[i])).compose(letters[j])
        except NotDiskAutomorphism:
            continue
        ar[k], ai[k] = phi.a.real, phi.a.imag
        lr[k], li[k] = phi.lam.real, phi.lam.imag
        ok[k] = True
    return _complex(ar, ai), _complex(lr, li), ok


def _compose_pass(a, lam, letters):
    """(re a, im a, re lam, im lam, ok), each indexed [i, j], of the map
    with parameters a[i] and lam[i] after letters[j], with ``ok`` False
    where this pass does not apply: a value that is not finite, a
    parameter in need of the clamp, a subnormal |lam| or a letter whose
    inverse is not inside the disk.

    The complex operations of ``compose`` run in real arithmetic in
    Python's order, with each letter's constants taken from its scalar
    methods.
    """
    ia, cl, g0, gd = np.array(
        [(g.lam * g.a, g.lam.conjugate(), g(0j), g.derivative(0j)) for g in letters],
        dtype=complex,
    ).T
    sr, si = a.real[:, None], a.imag[:, None]
    lr, li = lam.real[:, None], lam.imag[:, None]
    with np.errstate(all="ignore"):
        # conj(lam_g) * (ia - a_s) / (1.0 - conj(ia) * a_s), ia = lam_g * a_g
        ar, ai = _automorphism_parts(cl.real, cl.imag, ia.real, ia.imag, sr, si)
        # the derivative at g(0) of the row's map: lam_s * (abs(a_s) ** 2
        # - 1.0) / (den * den), den = 1.0 - conj(a_s) * g(0)
        s = np.array([m ** 2 for m in _modulus(a).tolist()])[:, None] - 1.0
        er, ei = _denominator_parts(sr, si, g0.real, g0.imag)
        dr, di = _quotient(*_product(lr, li, s, 0.0), *_product(er, ei, er, ei))
        del er, ei
        # times g'(0), over abs(a) ** 2 - 1.0, then divided by its modulus
        mod = np.hypot(ar, ai)
        # capped at 2 so that no square overflows; those rows are redone
        square = np.array([m ** 2 for m in np.minimum(mod, 2.0).ravel().tolist()])
        lr, li = _quotient(*_product(dr, di, gd.real, gd.imag),
                           square.reshape(mod.shape) - 1.0, 0.0)
        del dr, di, square
        r = np.hypot(lr, li)
        lr, li = _quotient(lr, li, r, 0.0)
    inverts = np.array([abs(g.lam * g.a) < 1.0 for g in letters])
    ok = (mod < 1.0) & np.isfinite(r) & (r >= sys.float_info.min) & inverts
    return ar, ai, lr, li, ok


def _product(ar, ai, br, bi):
    """The parts of (ar + ai j) * (br + bi j), in Python's operations."""
    return ar * br - ai * bi, ar * bi + ai * br


def _modulus(z) -> np.ndarray:
    """|z| over a complex array, bit for bit Python's abs, unlike np.abs."""
    return np.hypot(z.real, z.imag)


def _denominator_parts(ar, ai, zr, zi):
    """The real and imaginary parts of 1.0 - conj(a) * z over broadcast
    arrays, in the operations of Python's complex type."""
    pr, pi = _product(ar, -ai, zr, zi)
    return 1.0 - pr, 0.0 - pi


def _automorphism_parts(lr, li, ar, ai, zr, zi):
    """The real and imaginary parts of DiskAutomorphism(a, lam)(z) over
    broadcast arrays, in the operations of Python's complex type."""
    return _quotient(*_product(lr, li, ar - zr, ai - zi),
                     *_denominator_parts(ar, ai, zr, zi))


def _complex(re, im) -> np.ndarray:
    # filled part by part: re + 1j * im would turn -0.0 into +0.0
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _quotient(ar, ai, br, bi):
    """The real and imaginary parts of (ar + ai j) / (br + bi j) over
    broadcast arrays, by the scaled division of CPython's complex type,
    which divides through by the larger part of the denominator."""
    # |br| >= |bi|: divide through by br.  Computed for every entry, the
    # others are replaced below.
    with np.errstate(all="ignore"):
        ratio = bi / br
        denom = br + bi * ratio
        re = np.asarray((ar + ai * ratio) / denom)  # an array even for scalar parts
        im = np.asarray((ai - ar * ratio) / denom)
    # |bi| > |br|: divide through by bi
    tall = np.abs(br) < np.abs(bi)
    if tall.any():
        tall = np.broadcast_to(tall, re.shape)
        ar, ai, br, bi = (np.broadcast_to(v, re.shape)[tall] for v in (ar, ai, br, bi))
        ratio = br / bi
        denom = br * ratio + bi
        re[tall] = (ar * ratio + ai) / denom
        im[tall] = (ai * ratio - ar) / denom
    return re, im
