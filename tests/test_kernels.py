import cmath
import math
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import blaschke_products, mp_product
from orbitpick import kernels, orbits
from orbitpick.blaschke import (
    BlaschkeProduct,
    evaluate,
    evaluate_many,
    from_orbit,
    product_values,
)
from orbitpick.errors import (
    DuplicatePoints,
    InputError,
    OrbitExplosion,
    UnsupportedVariant,
)
from orbitpick.kernels import (
    KERNEL_POINT_RADIUS,
    ComposedInnerKernel,
    OrbitGramKernel,
    SzegoKernel,
    boundary_gram_quadrature,
    dominance_check,
    gram,
    szego,
    szego_matrix,
)
from orbitpick.linalg import STRIP_ROWS, HermitianMatrix, min_eig, psd_check
from orbitpick.mobius import DiskAutomorphism, iterate_cyclic
from orbitpick.orbits import cyclic_group, enumerate_orbit, generic_group, z2z2_group


def squared_orbit_products(a=0.5, depth=40):
    """(B, B^2) for the orbit of 0: the base product and its square."""
    orbit = enumerate_orbit(cyclic_group(a), 0j, depth)
    return from_orbit(orbit, 1), from_orbit(orbit, 2)


def test_szego_values():
    assert szego(0.5 + 0j, 0.5 + 0j) == pytest.approx(4.0 / 3.0)
    assert szego(0j, 0.3 + 0.4j) == 1.0
    z, w = 0.2 + 0.3j, -0.4 + 0.1j
    assert szego(z, w) == szego(w, z).conjugate()
    k = gram(SzegoKernel(), [z, w]).entries
    assert k[0, 1] == szego(z, w) and k[1, 0] == szego(w, z)


def test_composed_kernel_at_zero_of_inner():
    b, _ = squared_orbit_products()
    k = ComposedInnerKernel(b, 2)
    assert gram(k, [0.5 + 0j]).entries[0, 0] == pytest.approx(1.0)  # B(0.5) = 0
    assert gram(k, [0j, 0.1 + 0j]).entries[0, 1] == pytest.approx(1.0)


def test_composed_kernel_consistency_with_szego():
    b, _ = squared_orbit_products()
    k = ComposedInnerKernel(b, 2)
    for z, w in [(0.1 + 0.2j, 0.3 - 0.1j), (0.25j, -0.4 + 0j)]:
        phi_z = k.value(z)
        phi_w = k.value(w)
        expect = 1.0 / (1.0 - phi_w.conjugate() * phi_z)
        assert gram(k, [z, w]).entries[0, 1] == expect


def test_composed_kernel_requires_vanishing_inner():
    b = BlaschkeProduct(0, (0.5 + 0j,), 0.0)
    with pytest.raises(InputError):
        ComposedInnerKernel(b, 2)


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


def orbit_gram(group, depth, z):
    return gram(OrbitGramKernel(group, depth), [z]).entries


def test_orbit_gram_depth_zero():
    z, w = 0.2 + 0j, -0.1 + 0.3j
    block = gram(OrbitGramKernel(cyclic_group(0.5), 0), [z, w]).entries
    assert block.shape == (2, 2)
    assert block[0, 1] == szego(z, w)
    assert np.array_equal(orbit_gram(cyclic_group(0.5), 0, z), gram(SzegoKernel(), [z]).entries)


def test_orbit_gram_cyclic_is_szego_gram():
    block = orbit_gram(cyclic_group(0.5), 1, 0j)
    expect = gram(SzegoKernel(), [0j, -0.5 + 0j, 0.5 + 0j]).entries
    assert np.max(np.abs(block - expect)) <= 1e-12
    assert min_eig(block) >= -1e-10


def test_orbit_gram_z2z2_collapses_to_cyclic():
    zc = orbit_gram(cyclic_group(0.5), 1, 0j)
    zz = orbit_gram(z2z2_group(0.5), 2, 0j)
    assert zz.shape == zc.shape
    assert sorted(np.round(zz.flatten(), 10)) == sorted(np.round(zc.flatten(), 10))


def test_orbit_gram_nesting():
    group = z2z2_group(0.5)
    small = orbit_gram(group, 3, 0.2 + 0.1j)
    big = orbit_gram(group, 4, 0.2 + 0.1j)
    k = small.shape[0]
    assert np.array_equal(big[:k, :k], small)


# -- orbit-kernel rows ------------------------------------------------------------


_GENERIC = generic_group([iterate_cyclic(0.4, 1), DiskAutomorphism(0.3 - 0.1j, 0.6 + 0.8j)])
_ROW_CASES = {
    "cyclic": (cyclic_group(0.3), 12, (0.1 + 0.2j, -0.4 + 0.1j)),
    # the half-turn fixes 0, so the dedup rejects candidates
    "z2z2 base 0": (z2z2_group(0.5), 9, (0j, 0.2 - 0.3j)),
    "generic": (_GENERIC, 3, (0j, 0.1 + 0.1j)),
    # points past 1 - 1e-14 are dropped, and more past 0.999 are cut
    "boundary drops": (cyclic_group(0.5), 40, (0.1 + 0.2j, -0.2j)),
}


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("name", _ROW_CASES)
def test_orbit_rows_are_the_enumerated_orbits_cut_at_the_kernel_radius(name):
    group, depth, nodes = _ROW_CASES[name]
    rows, counts, note = kernels._szego_points(OrbitGramKernel(group, depth), nodes)
    want, want_counts, tails = [], [], []
    for z in nodes:
        orbit = enumerate_orbit(group, z, depth)
        points, tail = orbits._orbit_array(group, z, depth)
        assert points.tobytes() == np.array(orbit.points).tobytes()
        assert tail == orbit.tail_bound
        cut = [p for p in orbit.points if abs(p) <= KERNEL_POINT_RADIUS]
        want += cut
        want_counts.append(len(cut))
        tails.append(orbit.tail_bound)
        if name == "z2z2 base 0" and z == 0:
            assert len(orbit.entries) + orbit.dropped < 2 * depth + 1
        if name == "boundary drops":
            assert orbit.dropped > 0 and len(cut) < len(orbit.entries)
    assert rows.tobytes() == np.array(want).tobytes()
    assert counts == want_counts
    assert note == (None if None in tails else max(tails))
    assert gram(OrbitGramKernel(group, depth), nodes).truncation_note == note


@pytest.mark.baseline_dispatch
def test_orbit_rows_raise_past_the_point_cap(monkeypatch):
    monkeypatch.setattr(orbits, "DEFAULT_POINT_CAP", 20)
    with pytest.raises(OrbitExplosion, match="^orbit exceeded the cap of 20 accepted points$"):
        kernels._szego_points(OrbitGramKernel(cyclic_group(0.5), 10), [0.1 + 0.2j])
    # 19 accepted points are within the cap
    assert len(enumerate_orbit(cyclic_group(0.5), 0.1 + 0.2j, 9).entries) == 19
    kernels._szego_points(OrbitGramKernel(cyclic_group(0.5), 9), [0.1 + 0.2j])


def test_gram_refuses_more_rows_than_the_supported_dimension(monkeypatch):
    # psd_check's guard, taken before any entry is computed: 2,223 orbit
    # rows would be a 79 MB matrix
    def boom(*args):
        raise AssertionError("a refused Gram matrix was built")

    monkeypatch.setattr(kernels, "szego_matrix", boom)
    nodes = (0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.25j, 0.05 + 0.4j, -0.2 - 0.3j, -0.1 + 0.4j)
    with pytest.raises(InputError, match="^matrix dimension 2223 exceeds the supported 2000$"):
        gram(OrbitGramKernel(cyclic_group(0.02), 200), nodes)


def test_dominance_trivial_character_is_zero_matrix():
    b, b2 = squared_orbit_products()
    rng = np.random.default_rng(23)
    pts = [complex(*(0.7 * (rng.random(2) - 0.5))) for _ in range(5)]
    rep = dominance_check(ComposedInnerKernel(b, 2), b2, 1.0, pts)
    assert rep.is_psd
    # reassemble to inspect the entries themselves
    k = gram(ComposedInnerKernel(b, 2), pts).entries
    for i, z in enumerate(pts):
        for j, w in enumerate(pts):
            lhs = szego(evaluate(b2, z)[0], evaluate(b2, w)[0])
            assert abs(lhs - k[i, j]) <= 1e-10


def test_dominance_rejects_orbit_variant():
    _, b2 = squared_orbit_products()
    with pytest.raises(UnsupportedVariant):
        dominance_check(OrbitGramKernel(cyclic_group(0.5), 3), b2, 1.0, [0j, 0.1 + 0j])


@pytest.mark.parametrize("check", [
    lambda: gram(SzegoKernel(), []),
    lambda: dominance_check(SzegoKernel(), BlaschkeProduct(1, (), 0.0), 1.0, []),
])
def test_kernel_matrices_need_a_point(check):
    # gram and dominance_check validate their points alike, so both
    # refuse an empty list before any matrix is built
    with pytest.raises(InputError) as info:
        check()
    assert str(info.value) == "at least one point is required"


@pytest.mark.parametrize("build, message", [
    (lambda: ComposedInnerKernel(BlaschkeProduct(1, (), 0.0), 0),
     "composition power must be at least 1"),
    (lambda: OrbitGramKernel(cyclic_group(0.5), -1), "orbit depth must be nonnegative"),
    (lambda: boundary_gram_quadrature(BlaschkeProduct(1, (), 0.0), -1, 4096),
     "max_power must be nonnegative"),
])
def test_kernels_refuse_a_bad_power_or_depth(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


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


def test_dominance_check_adopts_its_difference_matrix(monkeypatch):
    # c^2 K(B) - K_sigma of two mirrored Gram matrices is mirrored, so
    # it is held without a copy, with the verdicts of its Hermitian part
    b, b2 = squared_orbit_products()
    rng = np.random.default_rng(41)
    cases = []
    for i in range(16):
        pts = [complex(*(0.9 * (rng.random(2) - 0.5))) for _ in range(1 + i % 6)]
        spec = ComposedInnerKernel(b, 2) if i % 2 else SzegoKernel()
        cases.append((spec, [0.0, 0.5, 1.0, 1.5][i % 4], pts))

    def report(rep):
        return rep.is_psd, rep.tolerance_used.hex(), rep.min_eigenvalue.hex()

    expected = []
    for spec, c, pts in cases:
        d = c * c * szego_matrix(evaluate_many(b2, pts)[0]) - gram(spec, pts).entries
        expected.append(report(psd_check(HermitianMatrix(d))))

    def copying_constructor(self, entries):
        raise AssertionError("dominance_check copied its difference matrix")

    monkeypatch.setattr(HermitianMatrix, "__init__", copying_constructor)
    got = [report(dominance_check(spec, b2, c, pts)) for spec, c, pts in cases]
    assert got == expected
    assert {v[0] for v in got} == {True, False}


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


# -- the fold of the boundary quadrature ----------------------------------------


def _unfolded_quadrature(b, max_power, n_quad):
    """``boundary_gram_quadrature`` with s = 1 for every product: B at
    all n_quad nodes of the unit circle and at INTERIOR_NODES of them
    scaled to radius 1/2.  The Gram matrix and the note."""
    nodes = np.exp(1j * (2.0 * np.pi * np.arange(n_quad) / n_quad))
    moduli = np.abs(product_values(b, nodes))
    inner_sq = product_values(b, 0.5 * nodes[:: n_quad // kernels.INTERIOR_NODES]) ** 2
    means, power = [1.0], np.ones(inner_sq.size, dtype=complex)
    for _ in range(max_power):
        power = power * inner_sq
        means.append(np.sum(power) / inner_sq.size)
    g = np.empty((max_power + 1, max_power + 1), dtype=complex)
    mod_pow = np.ones(n_quad)
    for n in range(max_power + 1):
        if n > 0:
            mod_pow = mod_pow * moduli**4
        g[n, n] = complex(float(np.sum(mod_pow) / n_quad))
        for m in range(n):
            g[n, m], g[m, n] = means[n - m], means[n - m].conjugate()
    return g, float(np.max(np.abs(moduli - 1.0)))


def _orbit_product(kind, a, depth):
    group = (cyclic_group if kind == "cyclic" else z2z2_group)(a)
    return from_orbit(enumerate_orbit(group, 0j, depth), 1)


def _symmetric_rim(eps):
    half = (1.0 - eps) * np.exp(2j * np.pi * np.random.default_rng(31).random(150))
    return BlaschkeProduct(1, tuple(complex(z) for z in np.concatenate([half, -half])), 0.0)


# the orbit products of 0 of the orbit-block benchmark classes, at their
# nominal a and depth, and 300 zeros at the rim closed under negation
_SYMMETRIC = {
    **{f"{kind} {a}": partial(_orbit_product, kind, a, depth) for kind, a, depth in (
        ("cyclic", 0.10, 120), ("z2z2", 0.10, 160), ("cyclic", 0.05, 160),
        ("z2z2", 0.05, 200), ("cyclic", 0.02, 200))},
    "rim 1e-9": partial(_symmetric_rim, 1e-9),
    "rim 1e-13": partial(_symmetric_rim, 1e-13),
}


def _sample_errors(b, n_quad=1024, step=16):
    """Worst relative errors of the quadrature's samples, folded and
    plain, at every ``step``-th node z_k, k < n_quad / 2: |B| on the unit
    circle and B^2 on the circle of radius 1/2, whose samples sit at every
    (n_quad / INTERIOR_NODES)-th node, so ``step`` must be a multiple of
    that.  Each is measured against the 40-digit product of the original
    zeros at its own nodes: the plain rule's are the doubles z_k, the
    fold's the square roots of its doubles w_k = exp(4 pi i k / n_quad)."""
    moduli, inner_sq = kernels._circle_values(b, n_quad)
    assert moduli.size == n_quad // 2 and inner_sq.size == kernels.INTERIOR_NODES // 2
    k = np.arange(0, n_quad // 2, step)
    z = np.exp(1j * (2.0 * np.pi * np.arange(n_quad) / n_quad))[k]
    w = np.exp(1j * (2.0 * np.pi * np.arange(n_quad // 2) / (n_quad // 2)))[k]

    def error(circle, inner, at):
        with mpmath.workdps(40):
            at = [mpmath.mpc(p) for p in at]
            on, off = mp_product(b, at), mp_product(b, [p / 2 for p in at])
            return max(
                *(float(abs(abs(r) - float(m)) / abs(r)) for m, r in zip(circle, on)),
                *(float(abs(r * r - complex(v)) / abs(r * r)) for v, r in zip(inner, off)),
            )

    with mpmath.workdps(40):
        roots = [mpmath.sqrt(mpmath.mpc(p)) for p in w]
    folded = error(moduli[k], inner_sq[k // (n_quad // kernels.INTERIOR_NODES)], roots)
    plain = error(np.abs(product_values(b, z)), product_values(b, 0.5 * z) ** 2, z)
    return folded, plain


@pytest.mark.parametrize("name", _SYMMETRIC)
def test_the_folded_samples_are_as_accurate_as_the_plain_ones(name):
    folded, plain = _sample_errors(_SYMMETRIC[name]())
    assert folded <= 2.0 * plain


@pytest.mark.parametrize("name", _SYMMETRIC)
def test_the_folded_gram_matrix_is_the_identity(name):
    b = _SYMMETRIC[name]()
    g = boundary_gram_quadrature(b, 3, 4096)
    assert np.max(np.abs(g.entries - np.eye(4))) <= 1e-13
    assert g.truncation_note <= 2.0 * _unfolded_quadrature(b, 3, 4096)[1]


def _square_on_the_circle():
    # |zeta| < 1, but zeta * zeta rounds to modulus 1
    zeta = 0.9970009933142884 - 0.07738875454691198j
    assert abs(zeta) < 1.0 <= abs(zeta * zeta)
    return BlaschkeProduct(1, (zeta, -zeta), 0.0)


def _pair_off_by_one_ulp():
    zeros = list(_orbit_product("cyclic", 0.5, 20).zeros)
    zeros[-1] = complex(np.nextafter(zeros[-1].real, 1.0), zeros[-1].imag)
    return BlaschkeProduct(1, tuple(zeros), 0.0)


_UNFOLDED = {
    "one unpaired zero": lambda: BlaschkeProduct(
        1, _orbit_product("cyclic", 0.5, 20).zeros + (0.3j,), 0.0),
    "a pair off by one ulp": _pair_off_by_one_ulp,
    "generic orbit": lambda: from_orbit(enumerate_orbit(generic_group([
        iterate_cyclic(0.4, 1), DiskAutomorphism(0.3 - 0.1j, 0.6 + 0.8j)]), 0j, 3), 1, strict=False),
    # squares 1e-14, below the origin tolerance 1e-12 of BlaschkeProduct
    "pair at 1e-7": lambda: BlaschkeProduct(2, (0.5, -0.5, 1e-7, -1e-7), 0.0),
    "square on the circle": _square_on_the_circle,
}


@pytest.mark.parametrize("name", _UNFOLDED)
def test_products_not_closed_under_negation_keep_the_plain_quadrature(name):
    b = _UNFOLDED[name]()
    assert kernels._fold(b) == (1, b)
    g = boundary_gram_quadrature(b, 3, 1024)
    plain, note = _unfolded_quadrature(b, 3, 1024)
    assert g.entries.tobytes() == plain.tobytes()
    assert g.truncation_note == note


def _two_pass_samples(b, n_quad):
    """``kernels._circle_values`` with one ``product_values`` call per
    circle."""
    s, c = kernels._fold(b)
    k = n_quad // s
    nodes = np.exp(1j * (2.0 * np.pi * np.arange(k) / k))
    inner = kernels.INTERIOR_MEAN_RADIUS**s * nodes[:: n_quad // kernels.INTERIOR_NODES]
    inner_sq = product_values(c, inner) ** 2
    for _ in range((s - 1) * b.origin_multiplicity):
        inner_sq *= inner
    return np.abs(product_values(c, nodes)), inner_sq


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("n_quad", [1024, 4096])
@pytest.mark.parametrize("name", [*_SYMMETRIC, *_UNFOLDED])
def test_one_pass_circle_samples_equal_two_passes(name, n_quad):
    b = {**_SYMMETRIC, **_UNFOLDED}[name]()
    moduli, inner_sq = kernels._circle_values(b, n_quad)
    want_moduli, want_inner_sq = _two_pass_samples(b, n_quad)
    assert moduli.tobytes() == want_moduli.tobytes()
    assert inner_sq.tobytes() == want_inner_sq.tobytes()


def _n_quad_interior_means(b, max_power, n_quad):
    """The means of B^(2d), d = 1 .. max_power, by the n_quad-node rule
    for the interior circle: all n_quad / s nodes of the fold, as many
    as the boundary circle has, with the library's operations."""
    s, c = kernels._fold(b)
    k = n_quad // s
    inner = kernels.INTERIOR_MEAN_RADIUS**s * np.exp(1j * (2.0 * np.pi * np.arange(k) / k))
    inner_sq = product_values(c, inner) ** 2
    for _ in range((s - 1) * b.origin_multiplicity):
        inner_sq *= inner
    means, power = [], np.ones(k, dtype=complex)
    for _ in range(max_power):
        power = power * inner_sq
        means.append(np.sum(power) / k)
    return np.array(means)


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("name", [*_SYMMETRIC, *_UNFOLDED])
def test_the_interior_means_match_the_n_quad_rule_and_mpmath(name):
    # the off-diagonal entries are the means of B^2, B^4 and B^6 over
    # INTERIOR_NODES / s nodes; their exact value is 0, up to aliasing
    # terms below 0.5**128 and the rounding of the nodes.  With delta the
    # worst error of the samples B(r z)^2 against 40 digits and vmax
    # their largest modulus, each mean over n nodes is within
    # 3 delta + 2 (3 + n) eps vmax of its 40-digit value at the same
    # doubles (|v^d - V^d| <= d delta, the powers and the sum rounding)
    b = {**_SYMMETRIC, **_UNFOLDED}[name]()
    s = kernels._fold(b)[0]
    g = {n: boundary_gram_quadrature(b, 3, n).entries for n in (1024, 4096)}
    off = ~np.eye(4, dtype=bool)
    # n_quad sets the boundary rule only: the interior nodes are the same
    assert g[1024][off].tobytes() == g[4096][off].tobytes()
    means = g[4096][1:, 0]
    _, inner_sq = kernels._circle_values(b, 4096)
    m = inner_sq.size
    assert m == kernels.INTERIOR_NODES // s
    w = np.exp(1j * (2.0 * np.pi * np.arange(4096 // s) / (4096 // s)))[:: 4096 // kernels.INTERIOR_NODES]
    with mpmath.workdps(40):
        at = [mpmath.sqrt(mpmath.mpc(p)) if s == 2 else mpmath.mpc(p) for p in w]
        exact = [v * v for v in mp_product(b, [p / 2 for p in at])]
        delta = max(float(abs(v - complex(x))) for v, x in zip(exact, inner_sq))
        vmax = max(float(abs(v)) for v in exact)
        reference = [complex(sum(v**d for v in exact) / m) for d in (1, 2, 3)]
    eps = np.finfo(float).eps

    def bound(n):
        return 3.0 * delta + 2.0 * (3 + n) * eps * vmax

    assert np.max(np.abs(means - reference)) <= bound(m)
    n_quad_means = _n_quad_interior_means(b, 3, 4096)
    assert np.max(np.abs(means - n_quad_means)) <= 2.0 * 0.5**128 + bound(m) + bound(4096 // s)


def test_the_fold_pairs_zeros_as_a_multiset():
    # +-0.5 twice, +-0.25i and -0.0 + 0.3i against 0.0 - 0.3i: Re = 0
    # is split by Im, whatever the sign of the zero
    zeros = (0.5, -0.5, 0.5, 0.25j, -0.5, -0.25j, complex(-0.0, 0.3), complex(0.0, -0.3))
    s, c = kernels._fold(BlaschkeProduct(3, zeros, 0.0))
    assert s == 2 and c.origin_multiplicity == 0
    assert sorted(c.zeros, key=lambda z: (z.real, z.imag)) == [-(0.3 * 0.3), -0.0625, 0.25, 0.25]
    assert kernels._fold(BlaschkeProduct(1, zeros[:-1], 0.0))[0] == 1
    assert kernels._fold(BlaschkeProduct(1, (0.5, -0.5, 0.5), 0.0))[0] == 1


def test_the_fold_pairs_rows_within_each_run():
    # closed under negation as a whole, but not within the runs [2, 2]
    values = (0.5, -0.3, 0.3, -0.5)
    assert kernels._negation_squares(values).tolist() == [0.5 * 0.5, 0.3 * 0.3]
    assert kernels._negation_squares(values, [2, 2]) is None
    assert kernels._negation_squares((0.5, 0.3, -0.3, -0.5), [2, 2]) is None
    assert kernels._negation_squares((0.5, -0.5, -0.3, 0.3), [2, 2]).tolist() == [0.25, 0.3 * 0.3]
    # rows at 0, of either sign, fall below and never pair; nor do odd runs
    assert kernels._negation_squares((0j, complex(-0.0, -0.0))) is None
    assert kernels._negation_squares((0.5, -0.5, 0.5), [3]) is None


def _python_negation_half(values):
    """The pairing test as a loop over Python tuples: split by
    (Re, Im) > (0, 0), then compare the sorted (Re, Im) above with the
    sorted (-Re, -Im) below."""
    upper, lower = [], []
    for v in values:
        (upper if (v.real, v.imag) > (0.0, 0.0) else lower).append(v)
    if sorted((v.real, v.imag) for v in upper) != sorted((-v.real, -v.imag) for v in lower):
        return None
    return upper


_PAIRING_PARTS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.25, -0.25, math.nextafter(0.5, 1.0)])
_PAIRING_VALUES = st.lists(st.builds(complex, _PAIRING_PARTS, _PAIRING_PARTS), max_size=4)
# runs of arbitrary values, and runs closed under negation in any order
_PAIRING_RUNS = st.one_of(
    _PAIRING_VALUES, _PAIRING_VALUES.flatmap(lambda vs: st.permutations(vs + [-v for v in vs])))


def _python_squares(values):
    """Python's p * p of each value, or None, as the bits of its parts."""
    return None if values is None else [((v * v).real.hex(), (v * v).imag.hex()) for v in values]


def _squares(got):
    return None if got is None else [(v.real.hex(), v.imag.hex()) for v in got.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(_PAIRING_RUNS, min_size=1, max_size=4))
def test_the_fold_pairing_is_the_tuple_loop_run_by_run(runs):
    # signed zeros, values at 0, one-ulp neighbours and repeats: the
    # array test pairs exactly where the loop pairs every run, and its
    # squares are Python's p * p bit for bit, signed zeros included
    values = [v for run in runs for v in run]
    halves = [_python_negation_half(run) for run in runs]
    want = None if None in halves else [v for half in halves for v in half]
    got = kernels._negation_squares(values, [len(run) for run in runs])
    assert _squares(got) == _python_squares(want)
    whole = kernels._negation_squares(values)
    assert _squares(whole) == _python_squares(_python_negation_half(values))


@settings(max_examples=40, deadline=None)
@given(blaschke_products())
def test_the_fold_changes_the_gram_matrix_only_by_rounding(b):
    if b.origin_multiplicity < 1:
        b = BlaschkeProduct(1, b.zeros, 0.0)
    g = boundary_gram_quadrature(b, 2, 1024)
    plain, _ = _unfolded_quadrature(b, 2, 1024)
    if kernels._fold(b)[0] == 1:
        assert g.entries.tobytes() == plain.tobytes()
    else:
        assert np.max(np.abs(g.entries - plain)) <= 1e-13


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
_WEIGHT = st.one_of(
    st.builds(complex, _ZERO, _ZERO),
    st.builds(complex, st.floats(-2.0, 2.0), _ZERO),
    st.builds(complex, _ZERO, st.floats(-2.0, 2.0)),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
# 1 in a verdict, 0 and c^2 in pick_norm's overflow guard and check
_SCALE = st.sampled_from([1.0, 0.0, 1.3 * 1.3])


@st.composite
def _weighted_points(draw):
    """Disk points, without weights or with one weight each and a scale."""
    zs = draw(st.lists(_DISK_POINTS, min_size=1, max_size=8))
    if not draw(st.booleans()):
        return zs, None, 1.0
    return zs, draw(st.lists(_WEIGHT, min_size=len(zs), max_size=len(zs))), draw(_SCALE)


def _strip_weights(n):
    """n weights, two in three on an axis with either signed zero."""
    rng = np.random.default_rng(n + 1)
    ws = []
    for i in range(n):
        x, y = rng.uniform(-2.0, 2.0, 2).tolist()
        zero = -0.0 if i % 2 else 0.0
        ws.append([complex(x, zero), complex(zero, y), complex(x, y)][i % 3])
    return ws


def _scalar_pick(points, w, scale):
    """(scale - w w^H) o G of the scalar Gram matrix G on and above the
    diagonal, and its conjugate mirror below; G itself without w."""
    g = _scalar_gram(points)
    if w is None:
        return g
    w = np.array(w, dtype=complex)
    p = (scale - np.outer(w, w.conj())) * g
    lower = np.tril_indices(len(points), -1)
    p[lower] = p.T[lower].conj()
    return p


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_weighted_points())
@example(case=([0j], None, 1.0))
@example(case=([0j], [complex(-0.0, 0.0)], 0.0))
@example(case=([0.5 + 0j, complex(-0.0, 0.25)], None, 1.0))
@example(case=([0.5 + 0j, complex(-0.0, 0.25)], [0.3 + 0j, complex(-0.0, -0.5)], 1.0))
@example(case=(_strip_points(1), None, 1.0))
@example(case=(_strip_points(_STRIP - 1), None, 1.0))
@example(case=(_strip_points(_STRIP), None, 1.0))
@example(case=(_strip_points(_STRIP + 1), None, 1.0))
@example(case=(_strip_points(3 * _STRIP + 5), None, 1.0))
@example(case=(_strip_points(_STRIP - 1), _strip_weights(_STRIP - 1), 1.0))
@example(case=(_strip_points(_STRIP), _strip_weights(_STRIP), 0.0))
@example(case=(_strip_points(_STRIP + 1), _strip_weights(_STRIP + 1), 1.3 * 1.3))
@example(case=(_strip_points(3 * _STRIP + 5), _strip_weights(3 * _STRIP + 5), 1.0))
def test_szego_matrix_is_the_scalar_kernel_bit_for_bit(case):
    zs, w, scale = case
    assert szego_matrix(zs, w, scale).tobytes() == _scalar_pick(zs, w, scale).tobytes()


def test_szego_matrix_covers_both_branches_of_complex_division():
    # Python divides by d = 1 - conj(w) z along |Re d| >= |Im d| or the
    # other branch of Smith's algorithm; both must agree bit for bit on
    # the entries i < j the Gram matrix computes
    pts = [cmath.rect(0.99, t) for t in np.linspace(-3.0, 3.0, 13)]
    pts += [0.3j, -0.7 + 0j, 0.2 - 0.1j]
    d = [1.0 - w.conjugate() * z for i, z in enumerate(pts) for w in pts[i + 1 :]]
    assert any(abs(x.imag) > abs(x.real) for x in d)
    assert any(abs(x.imag) < abs(x.real) for x in d)
    assert szego_matrix(pts).tobytes() == _scalar_gram(pts).tobytes()
