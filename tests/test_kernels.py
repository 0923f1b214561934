import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitpick.blaschke import BlaschkeProduct, evaluate, from_orbit
from orbitpick.errors import DuplicatePoints, InputError, UnsupportedVariant
from orbitpick.kernels import (
    ComposedInnerKernel,
    OrbitGramKernel,
    SzegoKernel,
    boundary_gram_quadrature,
    dominance_check,
    gram,
    kernel_eval,
    orbit_block,
    szego,
    szego_matrix,
)
from orbitpick.linalg import STRIP_ROWS, min_eig
from orbitpick.mobius import iterate_cyclic
from orbitpick.orbits import cyclic_group, enumerate_orbit, generic_group, z2z2_group


def squared_orbit_products(a=0.5, depth=40):
    """(B, B^2) for the orbit of 0: the base product and its square."""
    orbit = enumerate_orbit(cyclic_group(a), 0j, depth)
    return from_orbit(orbit, 1), from_orbit(orbit, 2)


def test_szego_values():
    k = SzegoKernel()
    assert kernel_eval(k, 0.5 + 0j, 0.5 + 0j) == pytest.approx(4.0 / 3.0)
    assert kernel_eval(k, 0j, 0.3 + 0.4j) == 1.0
    z, w = 0.2 + 0.3j, -0.4 + 0.1j
    assert kernel_eval(k, z, w) == kernel_eval(k, w, z).conjugate()


def test_composed_kernel_at_zero_of_inner():
    b, _ = squared_orbit_products()
    k = ComposedInnerKernel(b, 2)
    assert kernel_eval(k, 0.5 + 0j, 0.5 + 0j) == pytest.approx(1.0)  # B(0.5) = 0
    assert kernel_eval(k, 0j, 0.1 + 0j) == pytest.approx(1.0)


def test_composed_kernel_consistency_with_szego():
    b, _ = squared_orbit_products()
    k = ComposedInnerKernel(b, 2)
    for z, w in [(0.1 + 0.2j, 0.3 - 0.1j), (0.25j, -0.4 + 0j)]:
        phi_z = k.value(z)
        phi_w = k.value(w)
        expect = 1.0 / (1.0 - phi_w.conjugate() * phi_z)
        assert kernel_eval(k, z, w) == expect


def test_composed_kernel_requires_vanishing_inner():
    b = BlaschkeProduct(0, (0.5 + 0j,), 0.0)
    with pytest.raises(InputError):
        ComposedInnerKernel(b, 2)


def test_kernel_eval_rejects_orbit_variant():
    spec = OrbitGramKernel(cyclic_group(0.5), 3)
    with pytest.raises(UnsupportedVariant):
        kernel_eval(spec, 0j, 0.1 + 0j)


def test_gram_szego_example():
    g = gram(SzegoKernel(), [0j, -0.5 + 0j, 0.5 + 0j])
    expect = np.array([[1, 1, 1], [1, 4 / 3, 0.8], [1, 0.8, 4 / 3]])
    assert np.max(np.abs(g.entries - expect)) <= 1e-12
    assert min_eig(g.entries) >= -1e-10 * (1 + 4 / 3)


def test_gram_single_point():
    g = gram(SzegoKernel(), [0.3 + 0.1j])
    assert g.entries.shape == (1, 1)
    assert g.entries[0, 0].real > 0 and g.entries[0, 0].imag == 0


def test_gram_composed_power_example():
    # inner map z, power 2 realizes phi(z) = z^2
    b = BlaschkeProduct(1, (), 0.0)
    g = gram(ComposedInnerKernel(b, 2), [0j, 0.5 + 0j])
    expect = np.array([[1, 1], [1, 1 / (1 - 1 / 16)]])
    assert np.max(np.abs(g.entries - expect)) <= 1e-12


def test_gram_truncation_note_per_variant():
    pts = [0.1 + 0.2j, -0.3 + 0j]
    assert gram(SzegoKernel(), pts).truncation_note is None
    b = from_orbit(enumerate_orbit(cyclic_group(0.5), 0j, 20), 1)
    errors = [evaluate(b, p)[1] for p in pts]
    assert gram(ComposedInnerKernel(b, 3), pts).truncation_note == 3 * max(errors)
    group = z2z2_group(0.5)
    tails = [enumerate_orbit(group, p, 7).tail_bound for p in pts]
    assert gram(OrbitGramKernel(group, 7), pts).truncation_note == max(tails)
    generic = generic_group([iterate_cyclic(0.5, 1)])
    assert gram(OrbitGramKernel(generic, 3), pts).truncation_note is None


def test_gram_rejects_duplicates():
    with pytest.raises(DuplicatePoints):
        gram(SzegoKernel(), [0.1 + 0j, 0.1 + 0j])


def test_distinctness_errors_keep_their_class_and_message():
    from orbitpick.errors import DuplicateNodes
    from orbitpick.pick import pick_norm

    message = r"^points 1 and 2 coincide within 1e-10$"
    with pytest.raises(DuplicatePoints, match=message) as exc:
        gram(SzegoKernel(), [0.3j, 0.1 + 0j, 0.1 + 0j])
    assert type(exc.value) is DuplicatePoints
    with pytest.raises(DuplicateNodes, match=r"^nodes 0 and 1 coincide$"):
        pick_norm([0.1 + 0j, 0.1 + 1e-12j], [0j, 0.5 + 0j], SzegoKernel())


def test_gram_is_hermitian_and_psd():
    rng = np.random.default_rng(17)
    pts = [complex(*(0.8 * (rng.random(2) - 0.5))) for _ in range(6)]
    b, _ = squared_orbit_products()
    for spec in (SzegoKernel(), ComposedInnerKernel(b, 2)):
        g = gram(spec, pts).entries
        assert np.max(np.abs(g - g.conj().T)) <= 1e-12
        assert np.all(np.abs(g.diagonal().imag) == 0.0)
        assert min_eig(g) >= -1e-10 * (1 + np.max(g.diagonal().real))


def test_orbit_block_depth_zero():
    block = orbit_block(cyclic_group(0.5), 0, 0.2 + 0j, -0.1 + 0.3j)
    assert block.shape == (1, 1)
    # numpy and CPython complex division differ in the final bit
    assert abs(block[0, 0] - kernel_eval(SzegoKernel(), 0.2 + 0j, -0.1 + 0.3j)) <= 1e-15


def test_orbit_block_cyclic_is_szego_gram():
    block = orbit_block(cyclic_group(0.5), 1, 0j, 0j)
    expect = gram(SzegoKernel(), [0j, -0.5 + 0j, 0.5 + 0j]).entries
    assert np.max(np.abs(block - expect)) <= 1e-12
    assert min_eig(block) >= -1e-10


def test_orbit_block_z2z2_collapses_to_cyclic():
    zc = orbit_block(cyclic_group(0.5), 1, 0j, 0j)
    zz = orbit_block(z2z2_group(0.5), 2, 0j, 0j)
    assert zz.shape == zc.shape
    assert sorted(np.round(zz.flatten(), 10)) == sorted(np.round(zc.flatten(), 10))


def test_orbit_block_nesting():
    group = z2z2_group(0.5)
    small = orbit_block(group, 3, 0.2 + 0.1j, 0.2 + 0.1j)
    big = orbit_block(group, 4, 0.2 + 0.1j, 0.2 + 0.1j)
    k = small.shape[0]
    assert np.array_equal(big[:k, :k], small)


def test_dominance_trivial_character_is_zero_matrix():
    b, b2 = squared_orbit_products()
    rng = np.random.default_rng(23)
    pts = [complex(*(0.7 * (rng.random(2) - 0.5))) for _ in range(5)]
    rep = dominance_check(ComposedInnerKernel(b, 2), b2, 1.0, pts)
    assert rep.is_psd
    # reassemble to inspect the entries themselves
    from orbitpick.blaschke import evaluate
    from orbitpick.kernels import szego

    for z in pts:
        for w in pts:
            lhs = szego(evaluate(b2, z)[0], evaluate(b2, w)[0])
            rhs = kernel_eval(ComposedInnerKernel(b, 2), z, w)
            assert abs(lhs - rhs) <= 1e-10


def test_dominance_single_point_large_constant():
    b, b2 = squared_orbit_products()
    rep = dominance_check(ComposedInnerKernel(b, 2), b2, 5.0, [0.2 + 0.1j])
    assert rep.is_psd and rep.min_eigenvalue > 0


def test_dominance_fails_at_zero_constant():
    b, b2 = squared_orbit_products()
    rep = dominance_check(
        ComposedInnerKernel(b, 2), b2, 0.0, [0.1 + 0j, 0.3 + 0.2j, -0.2 + 0.4j]
    )
    assert not rep.is_psd
    assert rep.min_eigenvalue < 0


def test_boundary_gram_monomial():
    b = BlaschkeProduct(1, (), 0.0)  # b(z) = z
    g = boundary_gram_quadrature(b, 3, 4096)
    assert np.max(np.abs(g.entries - np.eye(4))) <= 1e-8


def test_boundary_gram_trivial_size():
    b = BlaschkeProduct(1, (), 0.0)
    g = boundary_gram_quadrature(b, 0, 1024)
    assert g.entries.shape == (1, 1)
    assert abs(g.entries[0, 0] - 1.0) <= 1e-9


def test_boundary_gram_orbit_product():
    orbit = enumerate_orbit(cyclic_group(0.5), 0j, 50)
    b = from_orbit(orbit, 1)
    g = boundary_gram_quadrature(b, 5, 8192)
    assert np.max(np.abs(g.entries - np.eye(6))) <= 1e-6


def test_boundary_gram_input_validation():
    b = BlaschkeProduct(1, (), 0.0)
    with pytest.raises(InputError):
        boundary_gram_quadrature(b, 2, 1000)  # below 1024
    with pytest.raises(InputError):
        boundary_gram_quadrature(b, 2, 1536)  # not a power of two
    with pytest.raises(InputError):
        boundary_gram_quadrature(BlaschkeProduct(0, (0.5 + 0j,), 0.0), 2, 1024)


# -- szego_matrix against the scalar kernel -------------------------------------


def _scalar_gram(points):
    """Gram matrix by the scalar kernel: the upper triangle computed,
    the rest its conjugate mirror."""
    n = len(points)
    g = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            v = szego(points[i], points[j])
            g[i, j] = v
            g[j, i] = v.conjugate()
    return g


def _scalar_matrix(zs, ws):
    g = np.empty((len(zs), len(ws)), dtype=complex)
    for i, z in enumerate(zs):
        for j, w in enumerate(ws):
            g[i, j] = szego(z, w)
    return g


_ZERO = st.sampled_from([0.0, -0.0])
_COORD = st.floats(-0.999, 0.999)
_NEAR_CIRCLE = st.builds(
    cmath.rect, st.floats(1.0 - 1e-3, 1.0 - 1e-14), st.floats(-math.pi, math.pi)
)
_DISK_POINTS = st.one_of(
    st.just(0j),
    st.builds(complex, _COORD, _ZERO),  # real axis, either signed zero
    st.builds(complex, _ZERO, _COORD),  # imaginary axis
    st.builds(cmath.rect, st.floats(0.0, 0.999), st.floats(-math.pi, math.pi)),
    _NEAR_CIRCLE,
)


def _strip_points(n):
    """n points across the disk, near the circle and on both axes with
    either signed zero, to test the Gram matrix's strips with."""
    rng = np.random.default_rng(n)
    pts = []
    for i in range(n):
        x = float(rng.uniform(-0.9, 0.9))
        zero = -0.0 if i % 2 else 0.0
        if i % 5 == 0:
            pts.append(complex(x, zero))
        elif i % 7 == 1:
            pts.append(complex(zero, x))
        else:
            r = 1.0 - 10.0 ** -rng.uniform(3, 14) if i % 3 else rng.uniform(0.0, 0.999)
            pts.append(cmath.rect(r, rng.uniform(-math.pi, math.pi)))
    return pts


_STRIP = STRIP_ROWS


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    zs=st.lists(_DISK_POINTS, min_size=1, max_size=8),
    ws=st.lists(_DISK_POINTS, min_size=1, max_size=8),
)
@example(zs=[0j], ws=[0j])
@example(zs=[0.5 + 0j], ws=[complex(-0.0, 0.25)])
@example(zs=_strip_points(1), ws=[0.5j])
@example(zs=_strip_points(_STRIP - 1), ws=[0.5j])
@example(zs=_strip_points(_STRIP), ws=[0.5j])
@example(zs=_strip_points(_STRIP + 1), ws=[0.5j])
@example(zs=_strip_points(3 * _STRIP + 5), ws=[0.5j])
def test_szego_matrix_is_the_scalar_kernel_bit_for_bit(zs, ws):
    assert szego_matrix(zs).tobytes() == _scalar_gram(zs).tobytes()
    assert szego_matrix(zs, ws).tobytes() == _scalar_matrix(zs, ws).tobytes()


def test_szego_matrix_covers_both_branches_of_complex_division():
    # Python divides by d = 1 - conj(w) z along |Re d| >= |Im d| or the
    # other branch of Smith's algorithm; both must agree bit for bit
    pts = [cmath.rect(0.99, t) for t in np.linspace(-3.0, 3.0, 13)]
    pts += [0.3j, -0.7 + 0j, 0.2 - 0.1j]
    d = [1.0 - w.conjugate() * z for z in pts for w in pts]
    assert any(abs(x.imag) > abs(x.real) for x in d)
    assert any(abs(x.imag) < abs(x.real) for x in d)
    assert szego_matrix(pts).tobytes() == _scalar_gram(pts).tobytes()
    assert szego_matrix(pts, pts).tobytes() == _scalar_matrix(pts, pts).tobytes()

