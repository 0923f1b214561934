import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from conftest import random_finite_blaschke, random_nodes
from orbitpick.blaschke import from_orbit
from orbitpick.errors import (
    AliasedNodes,
    DuplicateNodes,
    Infeasible,
    InputError,
    NumericalError,
)
from orbitpick.kernels import (
    ComposedInnerKernel,
    OrbitGramKernel,
    SzegoKernel,
    _szego_points,
    gram,
)
from orbitpick.linalg import HermitianMatrix
from orbitpick.mobius import pseudo_hyperbolic
from orbitpick.orbits import cyclic_group, enumerate_orbit, z2z2_group
from orbitpick.pick import (
    PickProblem,
    amenable_average,
    assemble_pick,
    evaluate_composed,
    evaluate_interpolant,
    feasibility,
    interpolate_composed,
    interpolate_disk,
    pick_norm,
)


def orbit_product(a=0.5, depth=60):
    return from_orbit(enumerate_orbit(cyclic_group(a), 0j, depth), 1)


def test_assemble_pick_feasible_example():
    p = PickProblem((0j, 0.5 + 0j), (0j, 0.5 + 0j), SzegoKernel())
    a = assemble_pick(p).entries
    assert np.max(np.abs(a - np.ones((2, 2)))) <= 1e-12
    assert feasibility(p).psd.is_psd


def test_assemble_pick_infeasible_example():
    p = PickProblem((0j, 0.5 + 0j), (0j, 0.9 + 0j), SzegoKernel())
    a = assemble_pick(p).entries
    expect = np.array([[1.0, 1.0], [1.0, 0.19 * 4.0 / 3.0]])
    assert np.max(np.abs(a - expect)) <= 1e-12
    rep = feasibility(p)
    assert not rep.psd.is_psd


def test_assemble_pick_matrix_targets_kron():
    w = [0.1 + 0.2j, -0.3 + 0.1j]
    scalar = assemble_pick(
        PickProblem((0j, 0.4 + 0j), tuple(w), SzegoKernel())
    ).entries
    mats = tuple(x * np.eye(2) for x in w)
    block = assemble_pick(
        PickProblem((0j, 0.4 + 0j), mats, SzegoKernel())
    ).entries
    assert np.max(np.abs(block - np.kron(scalar, np.eye(2)))) <= 1e-12


def test_assemble_pick_rejects_duplicates():
    with pytest.raises(DuplicateNodes):
        assemble_pick(PickProblem((0.1 + 0j, 0.1 + 0j), (0j, 0j), SzegoKernel()))


def test_assemble_pick_aliased_nodes():
    b = orbit_product()
    spec = ComposedInnerKernel(b, 2)
    # +z and -z collapse under the even composed map
    with pytest.raises(AliasedNodes):
        assemble_pick(
            PickProblem((0.3 + 0j, -0.3 + 0j), (0.1 + 0j, 0.2 + 0j), spec)
        )
    # equal targets are fine
    mat = assemble_pick(
        PickProblem((0.3 + 0j, -0.3 + 0j), (0.1 + 0j, 0.1 + 0j), spec)
    )
    assert mat.n == 2


def test_composition_equivalence_bitwise():
    b = orbit_product()
    nodes = (0.1 + 0.2j, -0.25 + 0.1j, 0.3 - 0.3j)
    targets = (0.2 + 0j, 0.4 - 0.1j, -0.3 + 0.2j)
    spec = ComposedInnerKernel(b, 2)
    direct = assemble_pick(PickProblem(nodes, targets, spec)).entries
    zeta = tuple(spec.value(z) for z in nodes)
    pushed = assemble_pick(PickProblem(zeta, targets, SzegoKernel())).entries
    assert np.array_equal(direct, pushed)


def _full_szego_matrix(zs):
    """The Gram matrix [1 / (1 - conj(z_j) z_i)] built as one full block
    and mirrored from its strict upper triangle, as before the strip
    builder."""
    z = np.asarray(zs, dtype=complex).reshape(-1, 1)
    w = z.reshape(1, -1)
    d = np.empty((z.shape[0], w.shape[1]), dtype=complex)
    d.real = 1.0 - (w.real * z.real + w.imag * z.imag)
    d.imag = 0.0 - (w.real * z.imag - w.imag * z.real)
    k = np.reciprocal(d, out=d)
    k += 0.0
    m = np.conjugate(k.T, order="C")
    np.copyto(m, k, where=~np.tri(k.shape[0], dtype=bool))
    return m


def _full_pick(problem):
    """The Pick matrix by whole-matrix expressions, for comparison."""
    zs, counts, _ = _szego_points(problem.kernel, problem.nodes)
    kmat = _full_szego_matrix(zs)
    rows = np.repeat(np.arange(len(counts)), counts)
    if not problem.matrix_valued:
        w = np.array(problem.targets)[rows]
        return (1 - np.outer(w, w.conj())) * kmat
    t = problem.targets
    k = t[0].shape[0]
    weights = np.array([[np.eye(k) - ti @ tj.conj().T for tj in t] for ti in t])
    out = weights[rows][:, rows] * kmat[:, :, None, None]
    return out.transpose(0, 2, 1, 3).reshape(k * len(rows), k * len(rows))


def _solvable_verdict(a, tol):
    shifted = 0.5 * (a + a.conj().T) + tol * np.eye(a.shape[0])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _orbit_targets(group, nodes, kind):
    """Targets at the nodes: 0.5 B(z)^2 for B the orbit product of 0,
    the values of an invariant function of norm 0.5 (feasible), their
    moduli (real, so the Pick matrix is exactly Hermitian), or arbitrary
    values of modulus up to 0.6 that no invariant function of norm 1
    takes (infeasible)."""
    phi = ComposedInnerKernel(from_orbit(enumerate_orbit(group, 0j, 400), 1), 2)
    invariant = [0.5 * phi.value(z) for z in nodes]
    if kind == "invariant":
        return invariant
    if kind == "real":
        return [abs(w) for w in invariant]
    return [0.6 - 0.3j, -0.6j, 0.45 + 0.3j][: len(nodes)]


@pytest.mark.parametrize("group, depth, nodes", [
    (cyclic_group(0.05), 160, (0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.25j)),
    (z2z2_group(0.08), 160, (0.15 - 0.1j, -0.2 + 0.3j)),
], ids=["cyclic", "z2z2"])
@pytest.mark.parametrize("kind", ["invariant", "real", "arbitrary"])
@pytest.mark.parametrize("matrix", [False, True], ids=["scalar", "2x2"])
def test_assemble_pick_is_the_whole_matrix_formula_bit_for_bit(group, depth, nodes, kind, matrix):
    targets = _orbit_targets(group, nodes, kind)
    if matrix:
        targets = [np.array([[w, 0.0], [0.1 * w, -0.5 * w]]) for w in targets]
    problem = PickProblem(nodes, tuple(targets), OrbitGramKernel(group, depth))
    report = feasibility(problem)
    expected = _full_pick(problem)
    assert report.matrix.n > 300
    assert report.matrix.entries.tobytes() == expected.tobytes()
    assert report.psd.is_psd == (kind != "arbitrary")
    assert report.psd.is_psd == _solvable_verdict(expected, report.psd.tolerance_used)


def test_feasibility_holds_at_most_three_and_a_half_matrices(monkeypatch):
    # the kernel matrix is weighted in place and handed over without a
    # copy, so the peak is the Pick matrix, the Cholesky input and the
    # factor, plus strips
    nodes = (0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.25j, 0.05 + 0.4j)
    targets = (0.1, 0.2j, 0.05 + 0.05j, -0.1)
    problem = PickProblem(nodes, targets, OrbitGramKernel(cyclic_group(0.05), 120))
    n = feasibility(problem).matrix.n

    def copying_constructor(self, entries):
        raise AssertionError("the verdict path copied its own Pick matrix")

    monkeypatch.setattr(HermitianMatrix, "__init__", copying_constructor)
    tracemalloc.start()
    try:
        feasibility(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 596
    assert peak <= 3.5 * 16 * n * n


def test_orbit_pick_depth_zero_equals_szego():
    nodes = (0.1 + 0.2j, -0.3 + 0j)
    targets = (0.5 + 0j, 0.2 - 0.1j)
    direct = assemble_pick(PickProblem(nodes, targets, SzegoKernel())).entries
    orbit = assemble_pick(
        PickProblem(nodes, targets, OrbitGramKernel(cyclic_group(0.5), 0))
    ).entries
    assert np.max(np.abs(direct - orbit)) <= 1e-14


def test_orbit_pick_zero_target_is_szego_gram():
    p = PickProblem((0j,), (0j,), OrbitGramKernel(cyclic_group(0.5), 1))
    mat = assemble_pick(p).entries
    expect = np.array([[1, 1, 1], [1, 4 / 3, 0.8], [1, 0.8, 4 / 3]])
    assert np.max(np.abs(mat - expect)) <= 1e-12
    from orbitpick.linalg import min_eig

    assert min_eig(mat) >= -1e-10


def test_orbit_pick_feasible_composed_instance():
    # targets generated by an actual invariant function stay feasible
    # in the orbit condition at any depth
    b = orbit_product()
    spec = ComposedInnerKernel(b, 2)
    nodes = (0.2 + 0.1j, -0.35 + 0.05j)
    targets = tuple(0.9 * spec.value(z) for z in nodes)
    p = PickProblem(nodes, targets, spec)
    assert feasibility(p).psd.is_psd
    orbit_mat = assemble_pick(
        PickProblem(nodes, targets, OrbitGramKernel(z2z2_group(0.5), 200))
    )
    from orbitpick.linalg import psd_check

    rep = psd_check(orbit_mat)
    assert rep.min_eigenvalue >= -1e-9


def test_feasibility_dispatches_orbit_kernel():
    p = PickProblem(
        (0.2 + 0j,), (0.1 + 0j,), OrbitGramKernel(cyclic_group(0.5), 2)
    )
    rep = feasibility(p)
    assert rep.psd.is_psd
    assert rep.matrix.n > 1


def test_pick_norm_two_point_example():
    value = pick_norm((0j, 0.5 + 0j), (0j, 0.9 + 0j), SzegoKernel())
    assert abs(value - 1.8) <= 1e-8


def test_pick_norm_schwarz_pick_oracle():
    # independent two-point oracle: least c with rho(w1/c, w2/c) <= rho(z1, z2)
    z1, z2 = 0.1 + 0.2j, -0.3 + 0.25j
    w1, w2 = 0.4 + 0.1j, -0.2 + 0.5j

    def feasible(c):
        return pseudo_hyperbolic(w1 / c, w2 / c) <= pseudo_hyperbolic(z1, z2)

    lo, hi = max(abs(w1), abs(w2)), 50.0
    assert feasible(hi) and not feasible(lo * (1 + 1e-12))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    value = pick_norm((z1, z2), (w1, w2), SzegoKernel())
    assert abs(value - oracle) <= 1e-7


def test_pick_norm_constant_targets():
    w = 0.3 - 0.4j
    value = pick_norm((0.1 + 0j, -0.2 + 0.3j, 0.4j), (w, w, w), SzegoKernel())
    assert abs(value - abs(w)) <= 1e-8


def test_pick_norm_zero_targets():
    assert pick_norm((0.1 + 0j, 0.5j), (0j, 0j), SzegoKernel()) == 0.0


def test_pick_norm_aliased_nodes_rejected():
    b = orbit_product()
    spec = ComposedInnerKernel(b, 2)
    with pytest.raises(AliasedNodes):
        pick_norm((0.3 + 0j, -0.3 + 0j), (0.1 + 0j, 0.2 + 0j), spec)
    same = pick_norm((0.3 + 0j, -0.3 + 0j), (0.1 + 0j, 0.1 + 0j), spec)
    assert abs(same - 0.1) <= 1e-8  # constant function is optimal here


def test_pick_norm_attains_known_extremal_scale():
    # targets sampled from c * (degree-2 inner function) at three nodes:
    # the only interpolant of norm c is that function, so the extremal
    # norm equals c exactly
    def phi(z):
        return (z - 0.3) / (1 - 0.3 * z) * (z + 0.4j) / (1 - 0.4j * z) * 1j

    c = 1.37
    nodes = (0.1 + 0.2j, -0.35 + 0.05j, 0.15 - 0.4j)
    targets = tuple(c * phi(z) for z in nodes)
    value = pick_norm(nodes, targets, SzegoKernel())
    assert abs(value - c) <= 1e-8


def test_pick_norm_scaling():
    rng = np.random.default_rng(31)
    nodes = random_nodes(rng, 3)
    targets = tuple(
        complex(*(0.5 * (rng.random(2) - 0.5))) for _ in range(3)
    )
    base = pick_norm(nodes, targets, SzegoKernel())
    for c in (0.5, 2.0, 7.5):
        scaled = pick_norm(nodes, tuple(c * w for w in targets), SzegoKernel())
        assert abs(scaled - c * base) <= 1e-8
    tiny = pick_norm(nodes, tuple(1e-9 * w for w in targets), SzegoKernel())
    assert abs(tiny - 1e-9 * base) <= 1e-8 * 1e-9 * base


def mpmath_szego_norm(nodes, targets):
    """Extremal norm at 50 digits: c^2 is the largest eigenvalue of
    L^-1 (w w^H o K) L^-H with K = L L^H."""
    with mpmath.workdps(50):
        zs = [mpmath.mpc(z) for z in nodes]
        ws = [mpmath.mpc(w) for w in targets]
        n = len(zs)
        k = mpmath.matrix(n, n)
        b = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                k[i, j] = 1 / (1 - zs[i] * mpmath.conj(zs[j]))
                b[i, j] = ws[i] * mpmath.conj(ws[j]) * k[i, j]
        linv = mpmath.inverse(mpmath.cholesky(k))
        m = linv * b * linv.transpose_conj()
        m = (m + m.transpose_conj()) / 2
        return float(mpmath.sqrt(max(mpmath.eigh(m, eigvals_only=True))))


@pytest.mark.parametrize("n", [6, 12])
def test_pick_norm_matches_mpmath(n):
    # a backward-stable solve moves the norm by up to about eps * cond(K)
    # relative; that exceeds 1e-8 at n = 12, where cond(K) = 1.1e9
    rng = np.random.default_rng(1)
    nodes = random_nodes(rng, n)
    targets = tuple(complex(*(rng.random(2) - 0.5)) for _ in range(n))
    ref = mpmath_szego_norm(nodes, targets)
    z = np.array(nodes)
    cond = np.linalg.cond(1.0 / (1.0 - np.outer(z, z.conj())))
    bound = max(1e-8, np.finfo(float).eps * cond)
    assert abs(pick_norm(nodes, targets, SzegoKernel()) - ref) <= bound * ref


def test_pick_norm_orbit_equivalent_nodes():
    # z and t(z) share an orbit, so with different targets no finite
    # scale interpolates; the norm the eigen-solve finds is not certified
    group = cyclic_group(0.5)
    z = 0.1 + 0.2j
    nodes = (z, group.generators[0](z))
    targets = (0.2 + 0j, -0.1 + 0j)
    with pytest.raises(NumericalError):
        pick_norm(nodes, targets, OrbitGramKernel(group, 40))


def test_pick_norm_uncertified_orbit_norm_is_a_numerical_error():
    # non-invariant targets on a deep z2z2 orbit kernel: the target
    # weight sits on directions K annihilates at double precision, so
    # the eigen-solve's norm fails the positivity check
    kernel = OrbitGramKernel(z2z2_group(0.1), 160)
    with pytest.raises(NumericalError, match="annihilates"):
        pick_norm((0.1 + 0.2j, -0.2 + 0.05j), (0.1 + 0j, 0.2j), kernel)


def test_pick_norm_feasibility_consistency():
    rng = np.random.default_rng(77)
    for _ in range(20):
        nodes = random_nodes(rng, 3)
        targets = tuple(
            complex(*(0.8 * (rng.random(2) - 0.5))) for _ in range(3)
        )
        norm = pick_norm(nodes, targets, SzegoKernel())
        rep = feasibility(PickProblem(nodes, targets, SzegoKernel()))
        if abs(norm - 1.0) > 1e-6:
            assert rep.psd.is_psd == (norm <= 1.0)


def test_interpolate_single_node_constant():
    s = interpolate_disk((0j,), (0.5 + 0j,))
    assert s.degenerate_rank is None
    for z in (0j, 0.3 + 0.2j, -0.7j):
        assert abs(evaluate_interpolant(s, z) - 0.5) <= 1e-14


def test_interpolate_zero_data():
    s = interpolate_disk((0j,), (0j,))
    assert evaluate_interpolant(s, 0.4 + 0.3j) == 0j


def test_interpolate_schwarz_equality_gives_identity():
    s = interpolate_disk((0j, 0.5 + 0j), (0j, 0.5 + 0j))
    assert s.degenerate_rank == 2
    for z in (0.1 + 0.2j, -0.4 + 0.1j, 0.6j):
        assert abs(evaluate_interpolant(s, z) - z) <= 1e-12


def test_interpolate_infeasible_raises():
    with pytest.raises(Infeasible):
        interpolate_disk((0j, 0.5 + 0j), (0j, 0.9 + 0j))


def test_interpolant_reproducible_on_rerun():
    nodes = (0j, 0.5 + 0j)
    targets = (0j, 0.5 + 0j)
    s1 = interpolate_disk(nodes, targets)
    s2 = interpolate_disk(nodes, targets)
    assert s1 == s2


def test_schur_soundness_random_feasible():
    rng = np.random.default_rng(123)
    grid = 0.999 * np.exp(2j * np.pi * np.arange(512) / 512)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        nodes = random_nodes(rng, n)
        f = random_finite_blaschke(rng)
        scale = 0.9 * rng.uniform(0.5, 1.0)
        targets = tuple(scale * f(z) for z in nodes)
        s = interpolate_disk(nodes, targets)
        for z, w in zip(nodes, targets):
            assert abs(evaluate_interpolant(s, z) - w) <= 1e-8
        sup = max(abs(evaluate_interpolant(s, complex(z))) for z in grid)
        assert sup <= 1.0 + 1e-8


def test_interpolant_modulus_bounded():
    s = interpolate_disk((0.2 + 0j, -0.4 + 0.1j), (0.4 + 0j, -0.1 + 0.2j))
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = complex(*(0.998 * (rng.random(2) - 0.5)))
        assert abs(evaluate_interpolant(s, z)) <= 1.0 + 1e-10


def test_composed_identity_targets():
    b = orbit_product()
    spec = ComposedInnerKernel(b, 2)
    nodes = (0.15 + 0.1j, -0.3 + 0.2j, 0.4 - 0.1j)
    targets = tuple(spec.value(z) for z in nodes)
    f = interpolate_composed(nodes, targets, b, 2)
    for z, w in zip(nodes, targets):
        assert abs(evaluate_composed(f, z) - w) <= 1e-8
    # g is the identity map of the disk problem; F tracks phi^2 off-node
    probe = 0.22 - 0.17j
    assert abs(evaluate_composed(f, probe) - spec.value(probe)) <= 1e-8


def test_composed_constant_targets():
    b = orbit_product()
    nodes = (0.1 + 0j, 0.2 - 0.3j)
    f = interpolate_composed(nodes, (0.4 + 0j, 0.4 + 0j), b, 2)
    assert abs(evaluate_composed(f, 0.33 + 0.12j) - 0.4) <= 1e-8


def test_composed_roundtrip_recovers_targets():
    rng = np.random.default_rng(2718)
    b = orbit_product()
    spec = ComposedInnerKernel(b, 2)
    for _ in range(10):
        nodes = random_nodes(rng, 3)
        g = random_finite_blaschke(rng, max_degree=3)
        targets = tuple(g(spec.value(z)) for z in nodes)
        f = interpolate_composed(nodes, targets, b, 2)
        for z, w in zip(nodes, targets):
            assert abs(evaluate_composed(f, z) - w) <= 1e-8
        grid = 0.999 * np.exp(2j * np.pi * np.arange(512) / 512)
        sup = max(abs(evaluate_composed(f, complex(z))) for z in grid)
        assert sup <= 1.0 + 1e-8


def test_composed_merges_consistent_aliases():
    b = orbit_product()
    spec = ComposedInnerKernel(b, 2)
    w = spec.value(0.3 + 0j)
    f = interpolate_composed((0.3 + 0j, -0.3 + 0j), (w, w), b, 2)
    assert len(f.schur.nodes) == 1
    with pytest.raises(AliasedNodes):
        interpolate_composed((0.3 + 0j, -0.3 + 0j), (w, -w), b, 2)
    # the first node of each class is kept
    nodes = (0.1 + 0j, -0.3 + 0j, 0.2j, 0.3 + 0j, -0.2j)
    targets = tuple(0.5 * spec.value(z) + 0.1 for z in nodes)
    f = interpolate_composed(nodes, targets, b, 2)
    assert f.schur.nodes == tuple(spec.value(nodes[i]) for i in (0, 1, 2))


def test_amenable_average_monomials():
    group = cyclic_group(0.5)
    assert amenable_average(group, 0.3 + 0j, 0, 500) == 1.0 + 0j
    odd = amenable_average(group, 0.3 + 0j, 1, 10_000)
    assert abs(odd) <= 0.01
    even = amenable_average(group, 0.3 + 0j, 2, 10_000)
    assert abs(even - 1.0) <= 0.01


def test_amenable_average_requires_cyclic():
    with pytest.raises(InputError):
        amenable_average(z2z2_group(0.5), 0.1 + 0j, 1, 10)


def test_pick_problem_validation():
    with pytest.raises(InputError):
        PickProblem((), (), SzegoKernel())
    with pytest.raises(InputError):
        PickProblem((0j,), (0j, 0.1 + 0j), SzegoKernel())
    with pytest.raises(InputError, match="square"):
        PickProblem((0j,), (np.ones((2, 3)),), SzegoKernel())
    with pytest.raises(InputError, match="finite"):
        PickProblem((0j, 0.5 + 0j), (0.1 + 0j, complex("inf")), SzegoKernel())


@pytest.mark.parametrize("targets", [
    (0.1 + 0j, 0.1 * np.eye(2)),
    ([[0.1, 0], [0]], [[0.1, 0], [0, 0.1]]),
], ids=["scalar-then-matrix", "ragged-matrix"])
def test_pick_problem_rejects_malformed_targets(targets):
    with pytest.raises(InputError, match="targets"):
        PickProblem((0j, 0.5 + 0j), targets, SzegoKernel())


SCALAR_ONLY = {
    "pick_norm": lambda nodes, targets: pick_norm(nodes, targets, SzegoKernel()),
    "interpolate_disk": interpolate_disk,
    "interpolate_composed": lambda nodes, targets: interpolate_composed(
        nodes, targets, orbit_product(), 2
    ),
}


@pytest.mark.parametrize("solve", SCALAR_ONLY.values(), ids=SCALAR_ONLY.keys())
@pytest.mark.parametrize("targets", [
    (0.1 * np.eye(2), 0.2 * np.eye(2)),
    (0.1 + 0j, complex("inf")),
], ids=["matrix", "infinite"])
def test_scalar_solvers_reject_bad_targets_with_input_error(solve, targets):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            solve((0j, 0.5 + 0j), targets)


def test_numpy_scalar_targets_are_scalar_targets():
    nodes = (0j, 0.5 + 0j)
    targets = (np.int64(0), np.float32(0.5))
    assert not PickProblem(nodes, targets, SzegoKernel()).matrix_valued
    expect = pick_norm(nodes, (0j, 0.5 + 0j), SzegoKernel())
    assert pick_norm(nodes, targets, SzegoKernel()) == expect


def test_composed_kernel_evaluates_each_node_once(monkeypatch):
    from orbitpick import blaschke

    calls = []
    real_evaluate = blaschke.evaluate

    def counting(b, z):
        calls.append(z)
        return real_evaluate(b, z)

    monkeypatch.setattr(blaschke, "evaluate", counting)
    spec = ComposedInnerKernel(orbit_product(), 2)
    nodes = (0.1 + 0.2j, -0.25 + 0.1j, 0.3 - 0.3j, 0.05j, -0.4 + 0j)
    targets = tuple(0.5 * spec.value(z) for z in nodes)
    calls.clear()
    assemble_pick(PickProblem(nodes, targets, spec))
    assert len(calls) == len(nodes)
    calls.clear()
    pick_norm(nodes, targets, spec)
    assert len(calls) == len(nodes)
    calls.clear()
    gram(spec, nodes)
    assert len(calls) == len(nodes)


def test_aliased_nodes_share_one_message():
    spec = ComposedInnerKernel(orbit_product(), 2)
    nodes = (0.1 + 0j, 0.3 + 0j, -0.3 + 0j)
    targets = (0j, 0.1 + 0j, 0.2 + 0j)
    message = r"^nodes 1 and 2 collapse under the inner map but their targets differ$"
    with pytest.raises(AliasedNodes, match=message):
        assemble_pick(PickProblem(nodes, targets, spec))
    with pytest.raises(AliasedNodes, match=message):
        pick_norm(nodes, targets, spec)
    with pytest.raises(AliasedNodes, match=message):
        interpolate_composed(nodes, targets, spec.inner, 2)

