import cmath

import numpy as np
import pytest

from orbitpick.blaschke import (
    BlaschkeProduct,
    character_of,
    evaluate,
    from_orbit,
    product_value,
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
