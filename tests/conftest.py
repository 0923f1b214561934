import cmath
import math

import numpy as np
from hypothesis import strategies as st


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


def interpolant_values(schur, zs):
    """Vectorized Schur-recursion evaluation over an array of points."""
    zs = np.asarray(zs, dtype=complex)
    v = np.zeros_like(zs)
    for zk, rho in zip(reversed(schur.nodes), reversed(schur.schur_parameters)):
        u = v * (zs - zk) / (1.0 - zk.conjugate() * zs)
        v = (u + rho) / (1.0 + rho.conjugate() * u)
    return v


def composed_values(f, zs):
    from orbitpick.blaschke import product_values

    inner = product_values(f.inner, np.asarray(zs, dtype=complex))
    return interpolant_values(f.schur, inner**f.power)


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
