import cmath
import math

import mpmath
import numpy as np
from hypothesis import strategies as st
from mpmath import libmp


def random_disk_point(rng, rmax):
    r = rmax * np.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(theta), r * np.sin(theta))


def random_nodes(rng, count, rmax=0.6, min_separation=0.15):
    """Random interior nodes with a pseudo-hyperbolic separation floor."""
    from orbitpick.mobius import pseudo_hyperbolic

    nodes = []
    while len(nodes) < count:
        z = random_disk_point(rng, rmax)
        if all(pseudo_hyperbolic(z, w) > min_separation for w in nodes):
            nodes.append(z)
    return tuple(nodes)


def large_target_draw(seed, scale=1e152):
    """Szegő data whose targets square near the double range: n in
    [2, 8) nodes 0.8 (rng.random(2) - 0.5), then n targets scale *
    (rng.random(2) - 0.5), from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    nodes = tuple(complex(*(0.8 * (rng.random(2) - 0.5))) for _ in range(n))
    return nodes, tuple(scale * complex(*(rng.random(2) - 0.5)) for _ in range(n))


class FiniteBlaschke:
    """Unimodular constant times a product of disk factors; sup norm 1."""

    def __init__(self, zeros, phase):
        self.zeros = tuple(zeros)
        self.phase = phase

    def __call__(self, z):
        v = self.phase
        for c in self.zeros:
            v *= (z - c) / (1.0 - c.conjugate() * z)
        return v


def random_finite_blaschke(rng, max_degree=3, zero_radius=0.7):
    degree = int(rng.integers(1, max_degree + 1))
    zeros = [random_disk_point(rng, zero_radius) for _ in range(degree)]
    phase = cmath.exp(2j * np.pi * rng.uniform())
    return FiniteBlaschke(zeros, phase)


def product_value(b, z):
    """The product of ``blaschke.evaluate_many`` at one point, one zero
    at a time in Python complex: the reference its values must equal."""
    v = complex(1.0)
    for _ in range(b.origin_multiplicity):
        v *= z
    for zeta in b.zeros:
        v *= (abs(zeta) / zeta) * (zeta - z) / (1.0 - zeta.conjugate() * z)
    return v


def mp_product(b, zs):
    """Product values at 40 digits, the zeros and the double points taken
    as exact and mpmath points at their own precision; numerators and
    denominators multiply separately, then one division.  Written on
    mpmath's low-level functions, about 1.5 times as fast as mpc objects."""
    prec = libmp.dps_to_prec(40)
    one = (libmp.fone, libmp.fzero)

    def mpc(z):
        if isinstance(z, mpmath.mpc):
            return z._mpc_
        return libmp.from_float(float(z.real)), libmp.from_float(float(z.imag))

    zeros = [(mpc(zeta), mpc(zeta.conjugate())) for zeta in b.zeros]
    phase = one
    for zeta, _conj in zeros:
        modulus = (libmp.mpc_abs(zeta, prec), libmp.fzero)
        phase = libmp.mpc_mul(phase, libmp.mpc_div(modulus, zeta, prec), prec)
    values = []
    for z in zs:
        p = mpc(z)
        num = den = one
        for zeta, conj in zeros:
            num = libmp.mpc_mul(num, libmp.mpc_sub(zeta, p, prec), prec)
            den = libmp.mpc_mul(den, libmp.mpc_sub(one, libmp.mpc_mul(conj, p, prec), prec), prec)
        for _ in range(b.origin_multiplicity):
            num = libmp.mpc_mul(num, p, prec)
        values.append(mpmath.mpc(*libmp.mpc_div(libmp.mpc_mul(num, phase, prec), den, prec)))
    return values


def reference_evaluate(b, z):
    """``blaschke.evaluate`` by the scalar loop: ``product_value``
    clamped onto the closed disk, and the truncation error bound."""
    from orbitpick.blaschke import EVAL_RADIUS_LIMIT
    from orbitpick.errors import TooCloseToBoundary

    r = abs(z)
    if r > EVAL_RADIUS_LIMIT + 1e-12:
        raise TooCloseToBoundary(
            f"|z| = {r:.17g} exceeds the evaluation radius {EVAL_RADIUS_LIMIT}"
        )
    v = product_value(b, z)
    m = abs(v)
    if m > 1.0:
        v /= m
    return v, b.tail_weight * (1.0 + r) / (1.0 - r)


_SIGNED_ZEROS = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]


@st.composite
def disk_points(draw):
    """Points of the open disk: the four signed zeros, interior points,
    and points within 1e-13 of the unit circle."""
    kind = draw(st.sampled_from(["zero", "interior", "rim"]))
    if kind == "zero":
        return draw(st.sampled_from(_SIGNED_ZEROS))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    if kind == "rim":
        return (1.0 - draw(st.floats(1.1e-14, 1e-13))) * cmath.exp(1j * angle)
    return draw(st.floats(0.0, 0.99)) * cmath.exp(1j * angle)


@st.composite
def blaschke_products(draw):
    """Products with 0-3 zeros at the origin and no other zeros, the
    zeros of a cyclic or z2z2 orbit, or zeros drawn from ``disk_points``
    (rim points included)."""
    from orbitpick.blaschke import BlaschkeProduct, from_orbit
    from orbitpick.orbits import cyclic_group, enumerate_orbit, z2z2_group

    kind = draw(st.sampled_from(["none", "cyclic", "z2z2", "drawn"]))
    if kind == "drawn":
        zeros = draw(st.lists(disk_points().filter(lambda z: abs(z) > 1e-12), max_size=6))
    elif kind == "none":
        zeros = ()
    else:
        group = (cyclic_group if kind == "cyclic" else z2z2_group)(draw(st.floats(0.2, 0.8)))
        orbit = enumerate_orbit(group, 0j, draw(st.integers(0, 8 if kind == "cyclic" else 3)))
        zeros = from_orbit(orbit, draw(st.integers(1, 2))).zeros
    tail = draw(st.sampled_from([0.0, 1e-12, 0.25]))
    return BlaschkeProduct(draw(st.integers(0, 3)), tuple(zeros), tail)


@st.composite
def evaluable_points(draw):
    """Points ``blaschke.evaluate`` accepts: ``disk_points`` with the rim
    ones pulled in to its radius, and points with 0.99 <= |z| <= 0.999."""
    if draw(st.booleans()):
        z = draw(disk_points())
        return z if abs(z) <= 0.999 else 0.999 * z / abs(z)
    return draw(st.floats(0.99, 0.999)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
