"""End-to-end acceptance suite.

Each test prints one pass/fail line (visible with ``pytest -s`` or in
the failure report) and asserts the advertised tolerance.  Criteria 1,
2, 4, 5, 9 and 10 run the ``orbitpick.checks`` behind ``verify``.
"""

import numpy as np

from conftest import random_finite_blaschke, random_nodes
from orbitpick import checks
from orbitpick.blaschke import evaluate, from_orbit
from orbitpick.kernels import (
    ComposedInnerKernel,
    OrbitGramKernel,
    SzegoKernel,
    dominance_check,
    gram,
    szego,
)
from orbitpick.linalg import psd_check
from orbitpick.mobius import iterate_cyclic
from orbitpick.orbits import cyclic_group, enumerate_orbit, z2z2_group
from orbitpick.pick import (
    PickProblem,
    assemble_pick,
    composed_values,
    interpolate_composed,
    pick_norm,
)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def disk_grid(count, radius):
    """Deterministic golden-angle spiral filling the disk of the given
    radius."""
    golden = 2.0 * np.pi * (1.0 - 1.0 / ((1.0 + np.sqrt(5.0)) / 2.0))
    return [
        complex(
            radius * np.sqrt((k + 0.5) / count) * np.cos(golden * k),
            radius * np.sqrt((k + 0.5) / count) * np.sin(golden * k),
        )
        for k in range(count)
    ]


def orbit_products(a=0.5, depth=200):
    orbit = enumerate_orbit(cyclic_group(a), 0j, depth)
    return from_orbit(orbit, 1), from_orbit(orbit, 2)


def test_criterion_1_closed_form_iteration():
    worst, ok = checks.closed_form_iteration(disk_grid(50, 0.85), 30)
    report(1, ok, f"closed form vs composition, max dev {worst:.3e}")


def test_criterion_2_geometric_weight_bound():
    violation, ok = checks.geometric_weight_bound(200)
    report(2, ok, f"geometric bound slack >= 0, min slack {-violation:.3e}")


def test_criterion_3_character_identity():
    b, _ = orbit_products(0.5, 200)
    g = iterate_cyclic(0.5, 1)
    probes = disk_grid(20, 0.6)
    dev_char = max(
        abs(evaluate(b, g(z))[0] + evaluate(b, z)[0]) for z in probes
    )
    dev_odd = max(
        abs(evaluate(b, -z)[0] + evaluate(b, z)[0]) for z in probes
    )
    ok = dev_char <= 1e-6 and dev_odd <= 1e-12
    report(3, ok, f"composition dev {dev_char:.3e}, oddness dev {dev_odd:.3e}")


def test_criterion_4_orthonormal_basis():
    dev, ok = checks.boundary_gram_identity(50)
    report(4, ok, f"boundary Gram vs identity, max dev {dev:.3e}")


def test_criterion_5_two_point_extremal_norm():
    # independent oracle first: brute-force the least feasible scale
    # through explicit automorphism compositions (Schwarz-Pick)
    z1, w1 = 0j, 0j
    z2, w2 = 0.5 + 0j, 0.9 + 0j

    def feasible(c):
        lhs = (w2 / c - w1 / c) / (1.0 - (w1 / c).conjugate() * (w2 / c))
        rhs = (z2 - z1) / (1.0 - z1.conjugate() * z2)
        return abs(lhs) <= abs(rhs)

    cs = np.arange(0.9, 3.6, 1e-4)
    coarse = next(c for c in cs if feasible(c))
    lo, hi = coarse - 1e-4, coarse
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    assert abs(oracle - 1.8) <= 1e-9

    _, ok = checks.extremal_norm()
    value = pick_norm((z1, z2), (w1, w2), SzegoKernel())
    ok = ok and abs(value - oracle) <= 1e-8
    report(5, ok, f"pick_norm {value:.12f} vs oracle {oracle:.12f}")


def test_criterion_6_roundtrip_interpolation():
    rng = np.random.default_rng(60411)
    b, _ = orbit_products(0.5, 200)
    spec = ComposedInnerKernel(b, 2)
    grid = 0.999 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    worst_eig = 0.0
    worst_res = 0.0
    worst_sup = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        nodes = random_nodes(rng, n)
        g = random_finite_blaschke(rng)
        targets = tuple(g(spec.value(z)) for z in nodes)
        rep = psd_check(assemble_pick(PickProblem(nodes, targets, spec)))
        worst_eig = min(worst_eig, rep.min_eigenvalue)
        f = interpolate_composed(nodes, targets, b, 2)
        values = composed_values(f, np.array(nodes))
        worst_res = max(
            worst_res, max(abs(v - w) for v, w in zip(values, targets))
        )
        on_grid = composed_values(f, grid)
        worst_sup = max(worst_sup, float(np.max(np.abs(on_grid))))
    ok = worst_eig >= -1e-9 and worst_res <= 1e-8 and worst_sup <= 1.0 + 1e-8
    report(
        6,
        ok,
        f"min eig {worst_eig:.2e}, residual {worst_res:.2e}, "
        f"grid norm - 1 = {worst_sup - 1.0:.2e} over 100 instances",
    )


def test_criterion_7_condition_equivalence():
    rng = np.random.default_rng(71113)
    b, _ = orbit_products(0.5, 200)
    spec = ComposedInnerKernel(b, 2)
    group = z2z2_group(0.5)
    agree = 0
    feasible_count = 0
    for k in range(100):
        while True:
            n = int(rng.integers(2, 4))
            nodes = random_nodes(rng, n)
            if k % 2 == 0:
                g = random_finite_blaschke(rng)
                s = rng.uniform(0.3, 0.95)
                targets = tuple(s * g(spec.value(z)) for z in nodes)
            else:
                targets = tuple(
                    complex(*(2.2 * (rng.random(2) - 0.5))) for _ in range(n)
                )
            problem = PickProblem(nodes, targets, spec)
            mat = assemble_pick(problem)
            rep = psd_check(mat)
            scale = 1.0 + max(float(np.max(mat.entries.diagonal().real)), 0.0)
            if abs(rep.min_eigenvalue) >= 1e-6 * scale:
                break
        orbit_rep = psd_check(
            assemble_pick(PickProblem(nodes, targets, OrbitGramKernel(group, 200)))
        )
        feasible_count += rep.is_psd
        agree += rep.is_psd == orbit_rep.is_psd
    ok = agree == 100
    report(
        7,
        ok,
        f"composed vs depth-200 orbit verdicts agree {agree}/100 "
        f"({feasible_count} feasible)",
    )


def test_criterion_8_kernel_dominance():
    rng = np.random.default_rng(81119)
    b, b2 = orbit_products(0.5, 200)
    spec = ComposedInnerKernel(b, 2)
    worst_entry = 0.0
    all_psd = True
    any_c0_psd = False
    for _ in range(10):
        pts = random_nodes(rng, int(rng.integers(2, 7)), rmax=0.7, min_separation=0.1)
        vals = [evaluate(b2, z)[0] for z in pts]
        k = gram(spec, pts).entries
        dev = max(
            abs(szego(vals[i], vals[j]) - k[i, j])
            for i in range(len(pts))
            for j in range(len(pts))
        )
        worst_entry = max(worst_entry, dev)
        all_psd = all_psd and dominance_check(spec, b2, 1.0, pts).is_psd
        any_c0_psd = any_c0_psd or dominance_check(spec, b2, 0.0, pts).is_psd
    ok = worst_entry <= 1e-10 and all_psd and not any_c0_psd
    report(
        8,
        ok,
        f"dominance matrix max entry {worst_entry:.2e} at C=1; C=0 fails PSD",
    )


def test_criterion_9_amenable_averaging():
    dev, ok = checks.amenable_averages()
    report(9, ok, f"odd-power average and even-power deviation at most {dev:.2e}")


def test_criterion_10_psd_oracle_agreement():
    bad, ok = checks.psd_oracle(np.random.default_rng(101121), 1000)
    report(10, ok, f"Cholesky vs principal-minor verdicts {1000 - int(bad)}/1000")
