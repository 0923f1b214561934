"""Numerical checks of the paper's identities, shared by ``verify`` and the
acceptance suite at different sizes.  Each returns ``(detail, ok)``: the
worst deviation seen (a count for the oracle) and whether it is in bounds.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import blaschke as bl
from . import kernels as kn
from . import linalg as la
from . import mobius as mb
from . import orbits as orb
from . import pick as pk


def automorphism_laws():
    f = mb.iterate_cyclic(0.5, 1)
    g = mb.canonicalize(2.0, 1.0j, -1.0j, 2.0)
    h = mb.DiskAutomorphism(0j, 1.0 + 0j)
    worst = 0.0
    for z in mb.PROBE_GRID:
        worst = max(worst, abs(f.compose(g).compose(h)(z) - f.compose(g.compose(h))(z)))
        worst = max(worst, abs(g.compose(g.inverse())(z) - z))
    return worst, worst <= 1e-12


def closed_form_iteration(probes, steps: int):
    """Closed-form g^n and g^-n against n-fold composition, n <= steps."""
    worst = 0.0
    for a in (0.3, 0.5, 0.7):
        g = mb.iterate_cyclic(a, 1)
        ginv = g.inverse()
        fwd = bwd = mb.DiskAutomorphism.identity()
        for n in range(1, steps + 1):
            fwd = fwd.compose(g)
            bwd = bwd.compose(ginv)
            cf, cb = mb.iterate_cyclic(a, n), mb.iterate_cyclic(a, -n)
            for z in probes:
                worst = max(worst, abs(cf(z) - fwd(z)), abs(cb(z) - bwd(z)))
    return worst, worst <= 1e-10


def geometric_weight_bound(max_n: int):
    """Orbit weights against 2 q^n for n <= max_n; the detail is the
    largest violation, negative while the bound holds."""
    worst = -1.0
    ok = True
    for a in (0.3, 0.5, 0.7):
        q = (1 - a) / (1 + a)
        for n in range(1, max_n + 1):
            slack = 2 * q**n - orb.cyclic_orbit_weight(a, n)
            worst = max(worst, -slack)
            ok = ok and slack >= 0.0
    return worst, ok


def orbit_sums():
    orbit = orb.enumerate_orbit(orb.cyclic_group(0.5), 0j, 2)
    err = max(abs(orbit.partial_sum - 2.4), abs(orbit.tail_bound - 2.0 / 9.0))
    return err, err <= 1e-12


def character_identity():
    orbit = orb.enumerate_orbit(orb.cyclic_group(0.5), 0j, 120)
    rep = bl.character_of(bl.from_orbit(orbit, 1), mb.iterate_cyclic(0.5, 1))
    err = abs(rep.value + 1.0)
    return err, err <= 1e-6


def boundary_gram_identity(depth: int):
    """Boundary orthonormality of the even powers of z and of the orbit
    product of a = 0.5 truncated at ``depth``."""
    g1 = kn.boundary_gram_quadrature(bl.BlaschkeProduct(1, (), 0.0), 3, 4096)
    e1 = float(np.max(np.abs(g1.entries - np.eye(4))))
    orbit = orb.enumerate_orbit(orb.cyclic_group(0.5), 0j, depth)
    g2 = kn.boundary_gram_quadrature(bl.from_orbit(orbit, 1), 5, 8192)
    e2 = float(np.max(np.abs(g2.entries - np.eye(6))))
    return max(e1, e2), e1 <= 1e-8 and e2 <= 1e-6


def szego_gram_example():
    g = kn.gram(kn.SzegoKernel(), [0j, -0.5 + 0j, 0.5 + 0j])
    expect = np.array([[1, 1, 1], [1, 4 / 3, 0.8], [1, 0.8, 4 / 3]])
    err = float(np.max(np.abs(g.entries - expect)))
    return err, err <= 1e-12 and la.psd_check(g.entries).is_psd


def pick_verdicts():
    good, bad = (
        pk.feasibility(pk.PickProblem((0j, 0.5 + 0j), (0j, w), kn.SzegoKernel())).psd
        for w in (0.5 + 0j, 0.9 + 0j)
    )
    return bad.min_eigenvalue, good.is_psd and not bad.is_psd


def extremal_norm():
    """Two-point norm against the distance formula: 0.9 / 0.5 = 1.8."""
    err = abs(pk.pick_norm((0j, 0.5 + 0j), (0j, 0.9 + 0j), kn.SzegoKernel()) - 1.8)
    return err, err <= 1e-8


def schur_roundtrip(rng, grid_n: int):
    """Target residual and grid norm above 1 of ten seeded disk
    interpolants of degree-2 Blaschke data scaled by 0.9."""
    worst = 0.0
    grid = 0.999 * np.exp(2j * np.pi * np.arange(grid_n) / grid_n)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        nodes = []
        while len(nodes) < n:
            z = complex(*(1.2 * (rng.random(2) - 0.5)))
            if abs(z) < 0.6 and all(abs(z - w) > 0.2 for w in nodes):
                nodes.append(z)
        zeros = [complex(*(1.2 * (rng.random(2) - 0.5))) * 0.5 for _ in range(2)]
        phase = np.exp(2j * np.pi * rng.uniform())
        targets = []
        for z in nodes:
            v = phase * 0.9
            for c in zeros:
                v *= (z - c) / (1.0 - c.conjugate() * z)
            targets.append(v)
        s = pk.interpolate_disk(tuple(nodes), targets)
        for z, w in zip(nodes, targets):
            worst = max(worst, abs(pk.evaluate_interpolant(s, z) - w))
        sup = max(abs(pk.evaluate_interpolant(s, complex(z))) for z in grid)
        worst = max(worst, sup - 1.0)
    return worst, worst <= 1e-8


def psd_oracle(rng, count: int):
    """Cholesky verdicts against principal minors on ``count`` random
    Hermitian 3x3 matrices not near singular; the detail counts misses."""
    bad = 0
    checked = 0
    while checked < count:
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = 0.5 * (a + a.conj().T)
        if abs(la.min_eig(a)) < 1e-8:
            continue
        bad += la.psd_check(a).is_psd != la.brute_force_psd_3x3(a)
        checked += 1
    return float(bad), bad == 0


def amenable_averages():
    """Cesàro averages of z (to 0) and z^2 (to 1) at 0.3 over |k| <= 10,000."""
    group = orb.cyclic_group(0.5)
    odd = abs(pk.amenable_average(group, 0.3 + 0j, 1, 10_000))
    even = abs(pk.amenable_average(group, 0.3 + 0j, 2, 10_000) - 1.0)
    return max(odd, even), odd <= 0.01 and even <= 0.01


def composition_equivalence():
    orbit = orb.enumerate_orbit(orb.cyclic_group(0.5), 0j, 60)
    spec = kn.ComposedInnerKernel(bl.from_orbit(orbit, 1), 2)
    nodes = (0.1 + 0.2j, -0.25 + 0.1j)
    targets = (0.2 + 0j, 0.4 - 0.1j)
    direct = pk.assemble_pick(pk.PickProblem(nodes, targets, spec)).entries
    zeta = tuple(spec.value(z) for z in nodes)
    pushed = pk.assemble_pick(pk.PickProblem(zeta, targets, kn.SzegoKernel())).entries
    same = bool(np.array_equal(direct, pushed))
    return 0.0 if same else 1.0, same


def battery(seed: int, grid_n: int):
    """The ``verify`` checks as (name, check) pairs in report order; the
    randomized ones draw from one ``default_rng(seed)`` in that order."""
    rng = np.random.default_rng(seed)
    return [
        ("automorphism-group-laws", automorphism_laws),
        ("closed-form-iteration", partial(closed_form_iteration, mb.PROBE_GRID, 10)),
        ("geometric-weight-bound", partial(geometric_weight_bound, 100)),
        ("orbit-blaschke-sum", orbit_sums),
        ("character-identity", character_identity),
        ("boundary-gram-identity", partial(boundary_gram_identity, 40)),
        ("szego-gram-example", szego_gram_example),
        ("pick-verdicts", pick_verdicts),
        ("extremal-norm", extremal_norm),
        ("schur-roundtrip", partial(schur_roundtrip, rng, grid_n)),
        ("psd-oracle-agreement", partial(psd_oracle, rng, 200)),
        ("amenable-averages", amenable_averages),
        ("composition-equivalence", composition_equivalence),
    ]
