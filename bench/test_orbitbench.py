"""Tests of the benchmark itself: oracle, tail rule, failure counting,
seeded inputs and trace accounting.  Run with ``python -m pytest bench``
(``src`` must be importable, as in the repository's test command)."""

import importlib.util
import os
import sys

import mpmath
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from orbitbench import oracle, report, tracing, workloads  # noqa: E402
from orbitpick import pick  # noqa: E402


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- the oracle against 50-digit arithmetic -----------------------------------


def _mp_norm(zeta, targets):
    """Extremal norm of the Szego problem: c^2 is the largest eigenvalue
    of K^{-1} (W K W^*), computed at the working precision."""
    n = len(zeta)
    k = mpmath.matrix(n, n)
    wkw = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            k[i, j] = 1 / (1 - zeta[i] * mpmath.conj(zeta[j]))
            wkw[i, j] = targets[i] * mpmath.conj(targets[j]) * k[i, j]
    eigs, _ = mpmath.eig(mpmath.inverse(k) * wkw)
    return mpmath.sqrt(max(mpmath.re(e) for e in eigs))


def _mp_orbit_product(kind, a, depth, z):
    a = mpmath.mpf(a)
    v = z
    for m in oracle.orbit_powers(kind, depth)[1:]:
        p = -mpmath.tanh(m * mpmath.atanh(a)) if abs(m) > 1 else -m * a
        if abs(p) >= 1 - mpmath.mpf(oracle.DISK_MARGIN):
            continue
        v *= (abs(p) / p) * (p - z) / (1 - p * z)
    return v


@pytest.mark.parametrize("index", [0, 3, 4])  # Szego, n = 3, 5, 6
def test_szego_instances_have_norm_c(index):
    prob = workloads.SmallDense().generate(7, 0, index)
    with mpmath.workdps(50):
        norm = _mp_norm([mpmath.mpc(z) for z in prob["nodes"]],
                        [mpmath.mpc(w) for w in prob["targets"]])
        # the double targets carry one rounding: the norm is c to ~1e-13
        assert abs(norm - prob["c"]) < 1e-9 * prob["c"]


@pytest.mark.parametrize("index", [1, 2])  # composed, cyclic n = 4 and z2z2 n = 5
def test_composed_instances_have_norm_c(index):
    """Rebuild the intended data at 50 digits: phi from the closed-form
    orbit, targets c g(phi(z)) with the generated g.  The norm is c."""
    gen = workloads.SmallDense()
    prob = gen.generate(3, 0, index)
    kind, n = gen.classes[index]
    with mpmath.workdps(50):
        zeta = [_mp_orbit_product(kind, prob["a"], prob["depth"], mpmath.mpc(z)) ** prob["power"]
                for z in prob["nodes"]]
        # the double pushed-forward nodes agree with the 50-digit ones
        dbl = oracle.product(oracle.orbit_zeros(kind, prob["a"], prob["depth"]), 1,
                             np.array(prob["nodes"])) ** prob["power"]
        for x, y in zip(zeta, dbl):
            assert abs(complex(x) - y) <= 1e-13 * abs(y) + 1e-300
        zeros, phase = prob["g"]
        phase = mpmath.mpc(phase) / abs(mpmath.mpc(phase))  # unimodular at 50 digits
        exact = []
        for zj in zeta:
            v = prob["c"] * phase
            for r in zeros:
                r = mpmath.mpc(r)
                v *= (zj - r) / (1 - mpmath.conj(r) * zj)
            exact.append(v)
        for x, y in zip(exact, prob["targets"]):
            assert abs(complex(x) - y) < 1e-15
        # packed nodes make K nearly singular, which costs 50-digit
        # arithmetic about 30 digits; the rest is far below double precision
        assert abs(_mp_norm(zeta, exact) - prob["c"]) < 1e-15 * prob["c"]


def test_orbit_zeros_match_50_digit_iterates():
    for kind in ("cyclic", "z2z2"):
        zeros = oracle.orbit_zeros(kind, 0.3, 40)
        powers = oracle.orbit_powers(kind, 40)[1:]
        with mpmath.workdps(50):
            ref = [-mpmath.tanh(m * mpmath.atanh(mpmath.mpf(0.3))) for m in powers]
        assert len(zeros) == len(ref)
        assert max(abs(complex(r) - z) for r, z in zip(ref, zeros)) < 1e-15


# -- the tail rule --------------------------------------------------------------


def test_tail_has_ten_samples_beyond():
    xs = list(range(1, 101))
    value, pct, beyond = report.tail(xs)
    assert value == 90 and pct == 90.0 and beyond == 10
    assert sum(x > value for x in xs) == 10
    value, pct, _ = report.tail(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)
    assert report.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# -- failure counting -----------------------------------------------------------


def test_injected_wrong_verdict_raises_fail_ratio(monkeypatch):
    run = _load_run()
    wl = workloads.SmallDense()
    wl.classes = wl.classes[:1]  # n = 3 only: fast
    clean = run.tally(run.run_loop(wl, 5, cycles=4))
    assert clean["failed"] == clean["wrong"] == 0
    real = pick.feasibility

    def flipped(problem, tol=None):
        rep = real(problem, tol)
        psd = type(rep.psd)(rep.psd.min_eigenvalue, not rep.psd.is_psd, rep.psd.tolerance_used)
        return type(rep)(psd=psd, matrix=rep.matrix)

    monkeypatch.setattr(pick, "feasibility", flipped)
    bad = run.tally(run.run_loop(wl, 5, cycles=4))
    assert bad["attempted"] == clean["attempted"]
    assert bad["wrong"] >= 4 and bad["failed"] / bad["attempted"] > 0.3


def test_injected_bad_interpolant_is_a_failure():
    wl = workloads.SmallDense()
    prob = next(p for p in (wl.generate(1, k, 0) for k in range(20)) if p["c"] <= 1)
    out = wl.solve(prob)
    good = out.answers["construct"]
    params = list(good.schur_parameters)
    params[0] *= 0.9
    out.answers["construct"] = pick.SchurInterpolant(good.nodes, tuple(params))
    wl.check(prob, out)
    assert out.wrong == 1 and "residual" in out.notes[0]


# -- seeded inputs --------------------------------------------------------------


@pytest.mark.parametrize("factory", [workloads.SmallDense, workloads.OrbitBlock,
                                     workloads.GenericBfs])
def test_seed_gives_the_same_inputs(factory):
    wl = factory()
    for i in range(len(wl.classes)):
        first, again = wl.generate(9, 2, i), wl.generate(9, 2, i)
        assert repr(first) == repr(again)
        assert repr(first) != repr(wl.generate(10, 2, i))


def test_cli_seed_gives_the_same_files(tmp_path):
    wl = workloads.Cli(str(tmp_path), str(tmp_path), dict(os.environ))
    for i in range(len(wl.classes)):
        assert repr(wl.generate(4, 1, i)) == repr(wl.generate(4, 1, i))


# -- tracing ---------------------------------------------------------------------


def test_layer_self_times_add_up_to_the_traced_wall():
    run = _load_run()
    wl = workloads.GenericBfs()
    wl.classes = ((2, 3, 0), (2, 3, 4))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = run.run_loop(wl, 1, cycles=1, tracer=tracer)
    finally:
        tracer.uninstall()
    self_s, wall = tracer.self_times()
    assert wall == pytest.approx(sum(w for _, _, w in results), rel=1e-12)
    assert sum(self_s.values()) == pytest.approx(wall, rel=1e-9)
    assert self_s["orbits"] > 0 and self_s["mobius"] > 0
    assert tracer.counts["mobius.DiskAutomorphism.compose"] > 0
    assert tracer.counts["orbits.distance_calls"] > 0
    # originals are back
    from orbitpick import mobius, orbits
    assert orbits.pseudo_hyperbolic is mobius.pseudo_hyperbolic
    assert not hasattr(mobius.DiskAutomorphism.compose, "__wrapped__")
