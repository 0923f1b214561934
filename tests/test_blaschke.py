import cmath
import dataclasses
import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    blaschke_products,
    disk_points,
    evaluable_points,
    mp_product,
    product_value,
    reference_evaluate,
)
from orbitpick import blaschke
from orbitpick.blaschke import (
    BlaschkeProduct,
    character_of,
    evaluate,
    evaluate_many,
    from_orbit,
    product_values,
)
from orbitpick.errors import (
    InconclusiveCharacter,
    InputError,
    NoTailBound,
    TooCloseToBoundary,
)
from orbitpick.mobius import DiskAutomorphism, iterate_cyclic
from orbitpick.orbits import cyclic_group, enumerate_orbit, generic_group, z2z2_group


def cyclic_product(a=0.5, depth=2, m=1):
    orbit = enumerate_orbit(cyclic_group(a), 0j, depth)
    return from_orbit(orbit, m)


def test_from_orbit_cyclic_example():
    b = cyclic_product(0.5, 2)
    assert b.origin_multiplicity == 1
    assert sorted(z.real for z in b.zeros) == pytest.approx(
        [-0.8, -0.5, 0.5, 0.8], abs=1e-12
    )
    assert b.tail_weight == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_from_orbit_doubles_zeros_for_stabilizer_two():
    orbit = enumerate_orbit(z2z2_group(0.5), 0j, 4)
    b2 = from_orbit(orbit, 2)
    assert b2.origin_multiplicity == 2
    assert len(b2.zeros) == 2 * (len(orbit.entries) - 1)
    assert b2.zeros[0] == b2.zeros[1]  # consecutive repetition


def test_from_orbit_origin_alone():
    orbit = enumerate_orbit(cyclic_group(0.5), 0j, 0)
    b = from_orbit(orbit, 1)
    assert b.origin_multiplicity == 1 and not b.zeros
    v, err = evaluate(b, 0.37 + 0.11j)
    assert v == 0.37 + 0.11j


def test_from_orbit_without_certificate():
    orbit = enumerate_orbit(generic_group([iterate_cyclic(0.5, 1)]), 0j, 2)
    with pytest.raises(NoTailBound):
        from_orbit(orbit, 1)
    b = from_orbit(orbit, 1, strict=False)
    assert not b.tail_certified and b.tail_weight == 0.0


def test_from_orbit_refuses_a_stabilizer_order_below_one():
    orbit = enumerate_orbit(cyclic_group(0.5), 0j, 2)
    with pytest.raises(InputError) as info:
        from_orbit(orbit, 0)
    assert str(info.value) == "stabilizer order must be at least 1"


def test_eval_vanishes_at_origin_zero():
    b = cyclic_product()
    v, _ = evaluate(b, 0j)
    assert v == 0j


def test_eval_single_factor():
    b = BlaschkeProduct(0, (0.5 + 0j,), 0.0)
    v, err = evaluate(b, 0j)
    assert v == 0.5 + 0j
    assert err == 0.0


def test_eval_is_contractive():
    rng = np.random.default_rng(3)
    b = cyclic_product(0.5, 8)
    for _ in range(50):
        z = complex(*(0.99 * (rng.random(2) - 0.5)))
        v, _ = evaluate(b, z)
        assert abs(v) <= 1.0


def test_eval_rejects_near_boundary():
    b = cyclic_product()
    with pytest.raises(TooCloseToBoundary):
        evaluate(b, 0.9995 + 0j)


def test_symmetric_truncations_are_odd():
    # the zeros come in exact +/- pairs, so oddness holds to rounding,
    # far inside the 1e-12 requirement
    b = cyclic_product(0.5, 12)
    for z in (0.3 + 0j, 0.1 - 0.25j, 0.51j, -0.62 + 0.07j):
        plus = product_value(b, z)
        minus = product_value(b, -z)
        assert abs(minus + plus) <= 1e-13


def test_truncation_identity_converges():
    # |B_N(g(z)) + B_N(z)| over interior probes decays with the depth
    g = iterate_cyclic(0.5, 1)
    probes = [0.55 * cmath.exp(2j * cmath.pi * k / 20) for k in range(20)]
    prev = None
    for depth in (5, 10, 20, 40):
        b = cyclic_product(0.5, depth)
        dev = max(
            abs(evaluate(b, g(z))[0] + evaluate(b, z)[0]) for z in probes
        )
        if prev is not None:
            assert dev <= prev
        prev = dev
    assert prev <= 1e-6


def test_error_bound_dominates_deeper_truncations():
    rng = np.random.default_rng(11)
    shallow = cyclic_product(0.5, 6)
    points = [complex(*(0.8 * (rng.random(2) - 0.5))) for _ in range(20)]
    for deeper in (8, 12, 20, 40):
        b2 = cyclic_product(0.5, deeper)
        for z in points:
            v1, err = evaluate(shallow, z)
            v2, _ = evaluate(b2, z)
            assert abs(v1 - v2) <= err


def test_vectorized_product_matches_scalar():
    b = cyclic_product(0.5, 6)
    zs = np.array([0.1 + 0.2j, -0.4j, 0.77, 0.99 * 1j])
    vals = product_values(b, zs)
    for z, v in zip(zs, vals):
        assert abs(v - product_value(b, complex(z))) <= 1e-15


def _per_zero_loop(b, zs):
    """The product one zero at a time, one complex division each: the
    form ``product_values`` replaced, kept as the accuracy baseline."""
    v = np.ones_like(zs)
    for _ in range(b.origin_multiplicity):
        v = v * zs
    for zeta in b.zeros:
        v = v * ((abs(zeta) / zeta) * (zeta - zs) / (1.0 - zeta.conjugate() * zs))
    return v


def _quadrature_circles(k):
    circle = np.exp(2j * np.pi * np.arange(k) / k)
    return np.concatenate([circle, 0.5 * circle])


_RNG = np.random.default_rng(30)
_ZERO_SETS = {
    "rim 1e-9": (1.0 - 1e-9) * np.exp(2j * np.pi * _RNG.random(300)),
    # weights 1e-13 close each chunk after 12 zeros, at the floor
    "rim 1e-13": (1.0 - 1e-13) * np.exp(2j * np.pi * _RNG.random(300)),
    "real cluster": 1.0 - np.geomspace(1e-2, 1e-12, 200) + 0j,
    "random": np.sqrt(_RNG.uniform(1e-6, 1.0, 800)) * np.exp(2j * np.pi * _RNG.random(800)),
}


@pytest.mark.parametrize("name", _ZERO_SETS)
def test_product_values_is_as_accurate_as_the_per_zero_loop(name):
    b = BlaschkeProduct(1, tuple(complex(z) for z in _ZERO_SETS[name]), 0.0)
    zs = _quadrature_circles(64)
    ref = mp_product(b, zs)

    def error(values):
        return max(float(abs(mpmath.mpc(complex(v)) - r) / abs(r)) for v, r in zip(values, ref))

    assert error(product_values(b, zs)) <= 2.0 * error(_per_zero_loop(b, zs))


def test_product_values_closes_chunks_at_the_weight_floor():
    zeros = tuple(complex(z) for z in _ZERO_SETS["rim 1e-13"])
    assert [len(chunk) for chunk in blaschke._chunks(zeros)] == [12] * 25
    assert [len(chunk) for chunk in blaschke._chunks((0.5,) * 130)] == [64, 64, 2]


def test_product_values_with_many_zeros_at_the_rim():
    # 2,000 zeros at 1 - 1e-12: a per-zero weight of 1e-12 closes each
    # chunk after 13 zeros, so no denominator product underflows; the
    # suite turns any floating-point warning into an error
    zeros = (1.0 - 1e-12) * np.exp(2j * np.pi * np.random.default_rng(7).random(2000))
    b = BlaschkeProduct(1, tuple(complex(z) for z in zeros), 0.0)
    circle = np.exp(2j * np.pi * np.arange(4096) / 4096)
    values = product_values(b, circle)
    assert np.isfinite(values).all()
    assert np.max(np.abs(np.abs(values) - 1.0)) <= 1e-9
    assert np.isfinite(product_values(b, 0.5 * circle)).all()


def test_product_values_vanishes_at_a_zero():
    b = BlaschkeProduct(0, (0.5, 0.3 + 0.1j, -0.7j), 0.0)
    values = product_values(b, np.array([0.2j, 0.5, 1.0, -0.7j]))
    assert values[1] == 0 and values[3] == 0
    assert np.all(values[[0, 2]] != 0) and np.isfinite(values).all()


@pytest.mark.parametrize("z", [1.0 + 1e-9, 1.5j, -2.0, complex("nan"), complex("inf")])
def test_product_values_refuses_points_beyond_the_circle(z):
    b = cyclic_product(0.5, 2)
    with pytest.raises(InputError):
        product_values(b, np.array([0.5, z]))


def _reprs(pairs):
    return [(repr(v), repr(err)) for v, err in pairs]


def _evaluated(b, zs):
    return _reprs(zip(*(a.tolist() for a in evaluate_many(b, zs))))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    b=blaschke_products(),
    zs=st.lists(evaluable_points(), max_size=8),
    few=st.sampled_from([1, 10**9]),  # the numpy pass, or rows in Python complex
    block=st.sampled_from([1, 3, 1 << 15]),
)
def test_evaluate_many_is_the_scalar_loop_bit_for_bit(b, zs, few, block):
    with mock.patch.object(blaschke, "_FEW_POINTS", few), \
            mock.patch.object(blaschke, "_BLOCK", block):
        got = _evaluated(b, zs)
    want = [reference_evaluate(b, z) for z in zs]
    assert got == _reprs(want)
    for z, pair in zip(zs, want):
        assert _reprs([evaluate(b, z)]) == _reprs([pair])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(b=blaschke_products(), zs=st.lists(disk_points(), min_size=1, max_size=6))
def test_evaluate_many_refuses_the_first_point_the_scalar_loop_refuses(b, zs):
    refused = None
    for z in zs:
        try:
            reference_evaluate(b, z)
        except TooCloseToBoundary as exc:
            refused = str(exc)
            break
    if refused is None:
        evaluate_many(b, zs)
    else:
        with pytest.raises(TooCloseToBoundary, match=f"^{re.escape(refused)}$"):
            evaluate_many(b, zs)


# |v| = 1.0000000000000002 before the clamp onto the closed disk
_CLAMPED = (
    BlaschkeProduct(0, (-0.7066825070539818 - 0.7075308009011896j,
                        0.7986036655177537 - 0.6018572799439978j,
                        0.1606882763597658 - 0.9870052065924007j), 0.0),
    0.15499339867497178 + 0.9869032608960117j,
)
# 1.0 - conj(zeta) * z has a larger imaginary than real part, the
# second branch of the quotient
_TALL = (BlaschkeProduct(1, (0.975 + 0j,), 0.0), 0.975 * cmath.exp(0.25j * math.pi))


@pytest.mark.parametrize("few", [1, 10**9])
@pytest.mark.parametrize("b,z", [_CLAMPED, _TALL])
def test_evaluate_many_on_pinned_points(b, z, few):
    b = dataclasses.replace(b)  # a product with no call remembered
    zs = [z, -z, z.conjugate()]
    with mock.patch.object(blaschke, "_FEW_POINTS", few):
        assert _evaluated(b, zs) == _reprs(reference_evaluate(b, w) for w in zs)


def test_evaluate_many_answers_a_repeated_call_from_memory(monkeypatch):
    b = cyclic_product(0.5, 8)
    zs = [0.1 + 0.2j, -0.3j]
    calls = []
    factors = blaschke._automorphism_parts
    monkeypatch.setattr(
        blaschke, "_automorphism_parts", lambda *a: calls.append(a) or factors(*a)
    )
    values, _ = evaluate_many(b, zs)
    values[0] = 5.0  # each call returns arrays of its own
    assert _evaluated(b, np.array(zs)) == _reprs(reference_evaluate(b, z) for z in zs)
    assert len(calls) == 1
    evaluate_many(b, zs[:1])
    evaluate_many(b, zs)
    assert len(calls) == 3
    assert repr(evaluate(b, zs[0])) == repr(reference_evaluate(b, zs[0]))
    evaluate_many(b, zs)  # one point was computed afresh, the memory kept
    assert len(calls) == 4


def test_pinned_points_show_what_they_pin():
    b, z = _CLAMPED
    assert abs(product_value(b, z)) > 1.0
    b, z = _TALL
    den = 1.0 - b.zeros[0].conjugate() * z
    assert abs(den.imag) > abs(den.real)


def test_numpy_abs_is_not_pythons_abs_at_a_grid_point():
    # why moduli are np.hypot: numpy's complex abs misses Python's by an
    # ulp at this point of the 4096-point grid of ``interpolate``
    grid = 0.999 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    z = complex(grid[4])
    assert np.abs(grid)[4] != abs(z)
    assert np.hypot(grid.real, grid.imag)[4] == abs(z)


def test_character_of_generator_is_minus_one():
    b = cyclic_product(0.5, 200)
    rep = character_of(b, iterate_cyclic(0.5, 1))
    assert abs(rep.value + 1.0) <= 1e-6
    assert rep.consistency_residual <= 1e-6


def test_character_of_half_turn_is_minus_one():
    b = cyclic_product(0.5, 200)
    half_turn = DiskAutomorphism(0j, 1.0 + 0j)
    rep = character_of(b, half_turn)
    assert abs(rep.value + 1.0) <= 1e-6


def test_character_of_identity_is_one():
    b = cyclic_product(0.5, 30)
    rep = character_of(b, DiskAutomorphism.identity())
    assert rep.value == 1.0 + 0j
    assert rep.consistency_residual <= 1e-15


def test_character_of_squared_product_is_trivial():
    orbit = enumerate_orbit(z2z2_group(0.5), 0j, 150)
    b2 = from_orbit(orbit, 2)
    half_turn = DiskAutomorphism(0j, 1.0 + 0j)
    rep = character_of(b2, half_turn)
    assert abs(rep.value - 1.0) <= 1e-6
    translation = iterate_cyclic(0.5, 1)
    rep2 = character_of(b2, translation)
    assert abs(rep2.value - 1.0) <= 1e-6


def test_character_inconclusive_when_probe_hits_zero():
    # probe radius sits exactly on a zero of the product
    b = BlaschkeProduct(1, (0.37 + 0j,), 0.5)
    with pytest.raises(InconclusiveCharacter):
        character_of(b, iterate_cyclic(0.37, 1))


def test_character_of_judges_the_probes_in_order():
    # the images of probes 0 and 1 lie inside radius 0.999, that of
    # probe 2 (0.37j) beyond it
    g = DiskAutomorphism(0.999 + 0j, 1.0 + 0j)
    with pytest.raises(InconclusiveCharacter, match=r"^automorphism sends probe "
                       r"0\.000\+0\.370j too close to the boundary$") as info:
        character_of(BlaschkeProduct(1, (), 0.0), g)
    assert isinstance(info.value.__cause__, TooCloseToBoundary)
    vanishing_at_probe_0 = BlaschkeProduct(1, (0.37 + 0j,), 0.0)
    with pytest.raises(InconclusiveCharacter, match=r"^probe 0\.370\+0\.000j lands too near"):
        character_of(vanishing_at_probe_0, g)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("inf"), float("nan")])
def test_character_of_rejects_bad_tolerance(tol):
    with pytest.raises(InputError, match="tolerance must be positive and finite"):
        character_of(cyclic_product(depth=60), iterate_cyclic(0.5, 1), tol=tol)


def test_invariants_rejected():
    with pytest.raises(InputError):
        BlaschkeProduct(-1, (), 0.0)
    with pytest.raises(InputError):
        BlaschkeProduct(0, (0j,), 0.0)
    with pytest.raises(InputError):
        BlaschkeProduct(0, (1.0 + 0j,), 0.0)
    with pytest.raises(InputError):
        BlaschkeProduct(0, (), -1.0)


@pytest.mark.parametrize("zero", [
    complex("nan"), complex(0.5, math.nan), complex(math.nan, 0.5),
    complex("inf"), complex(0.5, -math.inf), complex(math.inf, math.nan),
])
def test_non_finite_zeros_rejected(zero):
    # abs(nan) fails both the origin and the disk comparison, so the
    # disk test is written to fail on NaN
    with pytest.raises(InputError, match="zeros must lie inside the open disk"):
        BlaschkeProduct(1, (0.5, zero), 0.0)
