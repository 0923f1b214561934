"""Exact-answer oracle, independent of the library's code paths.

Every interpolation instance is built as c * g(zeta), with g a finite
Blaschke product of degree less than the number of nodes and zeta = z
(Szego kernel) or zeta = phi(z) (composed kernel).  Such data have
extremal norm exactly c, so the verdict is feasible iff c <= 1.  Orbit
products are rebuilt here from the closed form of the cyclic iterates,
t^m(0) = -tanh(m atanh a), never from the library's enumeration.
"""

from __future__ import annotations

import math

import numpy as np

DISK_MARGIN = 1e-14  # the library drops orbit points with |p| >= 1 - 1e-14
KERNEL_RADIUS = 0.999  # orbit points beyond this are cut from kernel blocks
GRID_POINTS = 4096
GRID_RADIUS = 0.999
RESIDUAL_LIMIT = 1e-8
SUP_LIMIT = 1.0 + 1e-8


def _iterate_param(a: float, m: int) -> float:
    """Translation parameter of t^m, t(z) = (z - a)/(1 - a z)."""
    if abs(m) <= 1:
        return m * a
    return math.tanh(m * math.atanh(a))


def orbit_powers(kind: str, depth: int) -> list[int]:
    """Powers m with t^m(0) in the depth-truncated orbit of 0, origin first.

    cyclic: |m| <= depth.  z2z2: the reduced words of length L reach
    t^(L//2) and t^-(L//2) (L even) or t^(L//2) and t^-(L//2 + 1) (L odd).
    """
    if kind == "cyclic":
        lo, hi = -depth, depth
    elif kind == "z2z2":
        lo, hi = -((depth + 1) // 2), depth // 2
    else:
        raise ValueError(f"no closed form for group kind {kind!r}")
    return [0] + [m for k in range(1, max(hi, -lo) + 1) for m in (k, -k) if lo <= m <= hi]


def orbit_zeros(kind: str, a: float, depth: int | None) -> np.ndarray:
    """Nonzero orbit points of 0 (the zeros of the orbit product besides
    the simple zero at the origin).  ``depth=None`` gives every point that
    is representable in double precision: the untruncated product."""
    if depth is None:
        pts = []
        m = 1
        while True:
            p = _iterate_param(a, m)
            if abs(p) >= 1.0:
                break
            pts.extend((-p, p))
            m += 1
        zeros = np.array(pts)
    else:
        zeros = np.array([-_iterate_param(a, m) for m in orbit_powers(kind, depth)[1:]])
    return zeros[np.abs(zeros) < 1.0 - DISK_MARGIN].astype(complex)


def product(zeros: np.ndarray, origin: int, zs) -> np.ndarray:
    """Normalized Blaschke product z^origin prod (|p|/p)(p - z)/(1 - conj(p) z)."""
    zs = np.asarray(zs, dtype=complex)
    v = zs**origin if origin else np.ones_like(zs)
    for p in np.asarray(zeros, dtype=complex):
        v = v * ((abs(p) / p) * (p - zs) / (1.0 - p.conjugate() * zs))
    return v


def schur_values(nodes, params, zs) -> np.ndarray:
    """Vectorized evaluation of a Schur-recursion interpolant with the
    innermost free function 0 (the library's convention)."""
    zs = np.asarray(zs, dtype=complex)
    v = np.zeros_like(zs)
    for zk, rho in zip(reversed(list(nodes)), reversed(list(params))):
        zk = complex(zk)
        rho = complex(rho)
        u = v * (zs - zk) / (1.0 - zk.conjugate() * zs)
        v = (u + rho) / (1.0 + rho.conjugate() * u)
    return v


def grid() -> np.ndarray:
    return GRID_RADIUS * np.exp(2j * np.pi * np.arange(GRID_POINTS) / GRID_POINTS)


def check_construction(nodes, params, inner, points, values):
    """Residual at ``points`` against ``values`` and sup over the 0.999
    grid of z -> s(inner(z)), s the Schur interpolant (nodes, params).

    ``inner`` maps an array of points to the disk argument of s (the
    identity for the Szego kernel).  Returns (ok, residual, sup).
    """
    at_nodes = schur_values(nodes, params, inner(np.asarray(points)))
    residual = float(np.max(np.abs(at_nodes - np.asarray(values))))
    sup = float(np.max(np.abs(schur_values(nodes, params, inner(grid())))))
    return residual <= RESIDUAL_LIMIT and sup <= SUP_LIMIT, residual, sup


def random_disk_points(rng, count, rmax, min_sep, box=False):
    """Points in the disk of radius rmax (or the square [-rmax, rmax]^2)
    with a pseudo-hyperbolic separation floor."""
    pts: list[complex] = []
    while len(pts) < count:
        if box:
            z = complex(*rng.uniform(-rmax, rmax, 2))
        else:
            r = rmax * math.sqrt(rng.uniform())
            z = r * complex(math.cos(t := rng.uniform(0, 2 * math.pi)), math.sin(t))
        if all(abs(z - w) / abs(1.0 - w.conjugate() * z) > min_sep for w in pts):
            pts.append(z)
    return pts


def random_blaschke(rng, degree, zero_radius=0.7):
    """Zeros and unimodular phase of a finite Blaschke product."""
    zeros = random_disk_points(rng, degree, zero_radius, 0.0)
    phase = complex(np.exp(2j * np.pi * rng.uniform()))
    return zeros, phase


def blaschke_values(zeros, phase, zs) -> np.ndarray:
    zs = np.asarray(zs, dtype=complex)
    v = np.full_like(zs, phase)
    for c in zeros:
        v = v * (zs - c) / (1.0 - c.conjugate() * zs)
    return v


def draw_scale(rng, feasible: bool) -> float:
    """Target scale c, kept away from the feasibility boundary c = 1
    where the verdict turns on the tolerance, not on the data."""
    return float(rng.uniform(0.3, 0.9) if feasible else rng.uniform(1.2, 2.5))


def orbit_images(kind: str, a: float, depth: int, z: complex) -> np.ndarray:
    """Every point t^m(z) or t^m(-z) the depth-truncated orbit of z holds.

    cyclic: t^m(z) for |m| <= depth.  z2z2: t^m(z) for the even word
    lengths, |m| <= depth // 2, and t^m(-z) for the odd ones,
    -((depth - 1) // 2 + 1) <= m <= (depth - 1) // 2.  No deduplication:
    for a point off every fixed point the images are distinct.
    """
    if kind == "cyclic":
        terms = [(m, z) for m in range(-depth, depth + 1)]
    else:
        odd = (depth - 1) // 2
        terms = [(m, z) for m in range(-(depth // 2), depth // 2 + 1)]
        if depth >= 1:
            terms += [(m, -z) for m in range(-(odd + 1), odd + 1)]
    out = []
    for m, w in terms:
        am = _iterate_param(a, m)
        out.append((w - am) / (1.0 - am * w))
    return np.array(out, dtype=complex)


def expected_verdict(zeta, targets, c: float):
    """Verdict of the scalar Szego problem at nodes zeta with targets
    c * g(zeta), or None where double precision cannot decide it.

    c <= 1 is feasible.  For c > 1 the exact Pick matrix is indefinite,
    but its negative eigenvalue can be far smaller than the positivity
    tolerance (1e-10 times one plus the largest diagonal entry, the
    library's documented default) when the nodes are packed; the verdict
    is then set by the tolerance, not by the data, and none is expected
    unless the eigenvalue clears the tolerance a hundredfold.
    """
    if c <= 1.0:
        return True
    z = np.asarray(zeta, dtype=complex)
    w = np.asarray(targets, dtype=complex)
    pick = (1.0 - np.outer(w, w.conj())) / (1.0 - np.outer(z, z.conj()))
    tol = 1e-10 * (1.0 + max(float(np.max(pick.diagonal().real)), 0.0))
    return False if np.linalg.eigvalsh(pick)[0] < -100.0 * tol else None


def kernel_orbit_size(kind: str, a: float, depth: int, z: complex) -> int:
    """Rows the orbit kernel keeps for node z: orbit points within 0.999."""
    return int(np.sum(np.abs(orbit_images(kind, a, depth, z)) <= KERNEL_RADIUS))
