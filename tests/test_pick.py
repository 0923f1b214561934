import cmath
import json
import math
import pathlib
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    blaschke_products,
    disk_points,
    random_disk_point,
    random_finite_blaschke,
    random_nodes,
)
from orbitpick import pick
from orbitpick.blaschke import BlaschkeProduct, evaluate, from_orbit
from orbitpick.errors import (
    AliasedNodes,
    DuplicateNodes,
    Infeasible,
    InputError,
    NumericalError,
    TooCloseToBoundary,
    UnsupportedVariant,
)
from orbitpick.kernels import (
    ComposedInnerKernel,
    OrbitGramKernel,
    SzegoKernel,
    _szego_points,
    gram,
    szego_matrix,
)
from orbitpick.linalg import HermitianMatrix, min_eig, psd_check
from orbitpick.mobius import canonicalize, pseudo_hyperbolic
from orbitpick.orbits import cyclic_group, enumerate_orbit, generic_group, z2z2_group
from orbitpick.pick import (
    ComposedInterpolant,
    PickProblem,
    SchurInterpolant,
    amenable_average,
    assemble_pick,
    composed_values,
    evaluate_composed,
    evaluate_interpolant,
    feasibility,
    interpolate_composed,
    interpolate_disk,
    interpolant_values,
    pick_norm,
    _pick_verdict,
)

DATA = pathlib.Path(__file__).parent / "data"


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


def test_interpolate_composed_rejects_coincident_nodes():
    b = orbit_product()
    nodes = (0.1 + 0.2j, -0.3 + 0.1j, 0.1 + 0.2j)
    w = tuple(ComposedInnerKernel(b, 2).value(z) for z in nodes)
    with pytest.raises(DuplicateNodes, match=r"^points 0 and 2 coincide within 1e-10$"):
        interpolate_composed(nodes, w, b, 2)


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
    entries = report.matrix.entries
    assert report.matrix.n > 300
    if matrix:
        # a matrix-target Pick matrix is stored as its Hermitian part
        part = 0.5 * expected.conj().T + 0.5 * expected
        assert entries.tobytes() == part.tobytes()
    else:
        # the upper triangle and the diagonal are the formula's bits, and
        # the strict lower triangle is their conjugate mirror
        upper = np.triu_indices(report.matrix.n)
        lower = np.tril_indices(report.matrix.n, -1)
        assert entries[upper].tobytes() == expected[upper].tobytes()
        assert entries[lower].tobytes() == entries.T[lower].conj().tobytes()
    assert report.psd.is_psd == (kind != "arbitrary")
    assert report.psd.is_psd == _solvable_verdict(expected, report.psd.tolerance_used)


def test_feasibility_builds_no_pick_matrix(monkeypatch):
    # a scalar verdict runs on the matrix's two-column generator, so the
    # traced peak is a few vectors of n entries, not the n x n matrix
    nodes = (0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.25j, 0.05 + 0.4j)
    targets = (0.1, 0.2j, 0.05 + 0.05j, -0.1)
    problem = PickProblem(nodes, targets, OrbitGramKernel(cyclic_group(0.05), 120))
    n = feasibility(problem).matrix.n

    def copying_constructor(self, entries):
        raise AssertionError("the verdict path copied its own Pick matrix")

    monkeypatch.setattr(HermitianMatrix, "__init__", copying_constructor)
    tracemalloc.start()
    try:
        report = feasibility(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 596
    assert not report.psd.is_psd
    assert peak <= 16 * 16 * n


def test_an_undecided_verdict_holds_at_most_two_and_a_half_matrices(monkeypatch):
    # distinct unimodular targets make every Schur-complement diagonal
    # entry 0, so the recursion leaves the verdict to one Cholesky
    # attempt on the assembled matrix: the kernel matrix is weighted in
    # place, mirrored and handed over without a copy and factored where
    # it stands, so the traced peak is the Pick matrix and the factor,
    # plus strips (numpy makes the Cholesky input outside the traced
    # allocator)
    nodes = (0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.25j, 0.05 + 0.4j)
    targets = (1 + 0j, 1j, -1 + 0j, -1j)
    problem = PickProblem(nodes, targets, OrbitGramKernel(cyclic_group(0.05), 120))
    n = feasibility(problem).matrix.n

    def copying_constructor(self, entries):
        raise AssertionError("the verdict path copied its own Pick matrix")

    monkeypatch.setattr(HermitianMatrix, "__init__", copying_constructor)
    tracemalloc.start()
    try:
        report = feasibility(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 596
    assert _generator_verdict(problem) is None
    assert not report.psd.is_psd and report.rank == 0
    assert peak <= 2.5 * 16 * n * n


def test_verdicts_refuse_more_rows_than_the_supported_dimension(monkeypatch):
    # the guard psd_check applies to an assembled matrix is taken when
    # the problem is built, for zero targets too, before any kernel
    # matrix, pencil, recursion step or Pick matrix is built
    def boom(*args, **kwargs):
        raise AssertionError("a refused problem reached the computation")

    for name in ("szego_matrix", "pencil_max", "_schur_steps", "_assembled"):
        monkeypatch.setattr(f"orbitpick.pick.{name}", boom)
    nodes = (0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.25j, 0.05 + 0.4j, -0.2 - 0.3j, -0.1 + 0.4j)
    kernel = OrbitGramKernel(cyclic_group(0.02), 200)
    assert len(_szego_points(kernel, nodes)[0]) == 2223
    too_many = "matrix dimension 2223 exceeds the supported 2000"
    for targets in ((0.0,) * 6, (0.5,) * 6, (0.6, -0.6j, 0.45, -0.3, 0.3j, 0.1)):
        with pytest.raises(InputError, match=too_many):
            PickProblem(nodes, targets, kernel)
        with pytest.raises(InputError, match=too_many):
            pick_norm(nodes, targets, kernel)
    # 1,125 rows of 2 x 2 blocks: a Pick matrix of 2,250 rows
    assert len(_szego_points(kernel, nodes[:3])[0]) == 1125
    blocks = tuple(np.array([[w, 0.0], [0.1, -w]]) for w in (0.1, 0.2j, -0.3))
    with pytest.raises(InputError, match="matrix dimension 2250 exceeds the supported 2000"):
        PickProblem(nodes[:3], blocks, kernel)
    rng = np.random.default_rng(2001)
    radii, angles = 0.9 * np.sqrt(rng.random(2001)), 2 * np.pi * rng.random(2001)
    with pytest.raises(InputError, match="matrix dimension 2001 exceeds the supported 2000"):
        interpolate_disk(tuple(radii * np.exp(1j * angles)), (0.1,) * 2001)


def _norm_copies_and_peak(monkeypatch, nodes, targets, kernel):
    """The shapes ``HermitianMatrix`` copies and the traced peak of one
    warm ``pick_norm`` call."""
    pick_norm(nodes, targets, kernel)
    copied = []
    init = HermitianMatrix.__init__

    def recording_constructor(self, entries):
        copied.append(np.shape(entries))
        init(self, entries)

    monkeypatch.setattr(HermitianMatrix, "__init__", recording_constructor)
    tracemalloc.start()
    try:
        pick_norm(nodes, targets, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return copied, peak


def test_pick_norm_copies_only_the_pencil_b(monkeypatch):
    # K goes to the pencil adopted and the check at c reads the
    # generator, or here, where that cannot decide, the matrix at c
    # written in place, so the one matrix pick_norm copies is the
    # pencil's B and the peak is the pencil's
    nodes, targets = (0.1 + 0.2j, -0.3 + 0.1j), (0.1, 0.2j)
    kernel = OrbitGramKernel(cyclic_group(0.1), 120)
    copied, peak = _norm_copies_and_peak(monkeypatch, nodes, targets, kernel)
    assert copied == [(150, 150)]
    assert peak <= 5.0 * 16 * 150 * 150


@pytest.mark.blas_kernels
def test_the_folded_pick_norm_copies_only_the_half_size_b(monkeypatch):
    # 300 z2z2 rows closed under negation: the pencil is solved on the
    # 150 squared rows, so its B is the one matrix copied, and with
    # invariant targets the generator decides the check at c, so no
    # 300-row matrix is built and the peak is the half-size pencil's
    nodes, targets = (0.1 + 0.2j, -0.3 + 0.1j), (0.3, 0.3)
    kernel = OrbitGramKernel(z2z2_group(0.1), 160)
    copied, peak = _norm_copies_and_peak(monkeypatch, nodes, targets, kernel)
    assert copied == [(150, 150)]
    assert peak <= 5.0 * 16 * 150 * 150


def test_matrix_target_assembly_holds_at_most_two_matrices():
    # each node's blocks are written into one array and its Hermitian
    # part is taken in place
    nodes = (0.1 + 0.2j, -0.3 + 0.1j)
    targets = tuple(np.array([[w, 0.0], [0.1 * w, -0.5 * w]]) for w in (0.1, 0.2j))
    problem = PickProblem(nodes, targets, OrbitGramKernel(cyclic_group(0.1), 120))
    n = assemble_pick(problem).n
    tracemalloc.start()
    try:
        assemble_pick(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 300
    assert peak <= 2.0 * 16 * n * n


def test_szego4_verdict_pivots_on_every_row():
    doc = json.loads((DATA / "szego4_problem.json").read_text(encoding="utf-8"))
    nodes = tuple(complex(*z) for z in doc["nodes"])
    targets = tuple(complex(*w) for w in doc["targets"])
    report = feasibility(PickProblem(nodes, targets, SzegoKernel()))
    assert report.psd.is_psd and report.rank == report.matrix.n == 4


# three nodes of radius at most 0.5 whose cyclic a = 0.02 orbits to
# depth 200 give 1,125 rows
_DEEP_NODES = (0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.25j)
_DEEP_KERNEL = OrbitGramKernel(cyclic_group(0.02), 200)


def test_a_thousand_row_orbit_verdict_allocates_no_matrix():
    # 22.5 MB for one 1,125-row matrix; the verdict holds vectors only
    problem = PickProblem(_DEEP_NODES, (0.5, 0.5, 0.5), _DEEP_KERNEL)
    feasibility(problem)
    tracemalloc.start()
    try:
        report = feasibility(problem)
        n = report.matrix.n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 1125
    assert report.psd.is_psd
    assert report.rank < 150
    assert peak <= 1 << 20


def _cholesky_verdict(problem, tol=None):
    return psd_check(assemble_pick(problem), tol).is_psd


def _generator_verdict(problem, c=1.0, tol=None):
    """The recursion's own verdict, None where it defers to Cholesky:
    only a verdict left to Cholesky assembles the report's matrix."""
    report = _pick_verdict(problem, c, tol)
    return report.psd.is_psd if isinstance(report.matrix, pick._PickMatrix) else None


def _differential_problems():
    """Seeded Szegő problems of 3 to 40 nodes, composed problems whose
    nodes the inner map crowds, and orbit problems, each with targets
    from a function of norm 0.9 or 1.1 and with arbitrary ones."""
    rng = np.random.default_rng(29)
    inner = orbit_product()
    spec = ComposedInnerKernel(inner, 2)
    problems = []
    for n in (3, 5, 8, 12, 30, 40):
        nodes = random_nodes(rng, n, min_separation=0.05)
        f = random_finite_blaschke(rng)
        for c in (0.9, 1.1):
            problems.append(PickProblem(nodes, tuple(c * f(z) for z in nodes), SzegoKernel()))
        targets = tuple(complex(*(rng.random(2) - 0.5)) for _ in nodes)
        problems.append(PickProblem(nodes, targets, SzegoKernel()))
    for n in (3, 6):
        nodes = box_nodes(rng, n)
        f = random_finite_blaschke(rng)
        for c in (0.9, 1.1):
            problems.append(PickProblem(nodes, tuple(c * f(spec.value(z)) for z in nodes), spec))
    for group, depth in ((cyclic_group(0.1), 60), (z2z2_group(0.2), 40)):
        nodes = random_nodes(rng, 2, rmax=0.5)
        for kind in ("invariant", "real", "arbitrary"):
            problems.append(PickProblem(
                nodes, tuple(_orbit_targets(group, nodes, kind)), OrbitGramKernel(group, depth)))
    return problems


@pytest.mark.parametrize("tol", [None, 1e-6], ids=["default-tol", "tol-1e-6"])
def test_the_generator_verdict_is_the_cholesky_verdict(tol):
    problems = _differential_problems()
    decided = 0
    for problem in problems:
        report = feasibility(problem, tol)
        assert report.psd.is_psd == _cholesky_verdict(problem, tol)
        assert 0 <= report.rank <= report.matrix.n
        verdict = _generator_verdict(problem, tol=tol)
        decided += verdict is not None
        assert verdict in (None, report.psd.is_psd)
        if tol is None:
            # the report's matrix and eigenvalue are today's, assembled on read
            entries = assemble_pick(problem).entries
            assert report.matrix.entries.tobytes() == entries.tobytes()
            assert report.psd.tolerance_used == psd_check(entries).tolerance_used
            assert report.psd.min_eigenvalue == min_eig(entries)
    assert decided == len(problems)


def test_the_generator_decides_pick_norms_check_as_cholesky_does():
    for problem in _differential_problems():
        if problem.kernel == SzegoKernel():
            c = pick_norm(problem.nodes, problem.targets, problem.kernel)
            points, counts, _ = problem._rows
            w = np.repeat(np.array(problem.targets), counts)
            at_c = psd_check(HermitianMatrix(szego_matrix(points, w, c * c)))
            assert at_c.is_psd and _generator_verdict(problem, c) is True


def test_checks_just_below_the_extremal_norm_never_contradict_cholesky():
    # at 1 - 1e-9 times the norm the matrix is within about tol of
    # singular: a Schur-complement diagonal below -tol proves nothing
    # until its elimination vector's norm is counted, so these are
    # left undecided rather than refused
    undecided = 0
    for seed in range(200, 400):
        rng = np.random.default_rng(seed)
        nodes = random_nodes(rng, int(rng.integers(3, 13)))
        targets = tuple(complex(*(rng.random(2) - 0.5)) for _ in nodes)
        problem = PickProblem(nodes, targets, SzegoKernel())
        c = (1 - 1e-9) * pick_norm(nodes, targets, SzegoKernel())
        at_c = psd_check(HermitianMatrix(szego_matrix(nodes, np.array(targets), c * c)))
        verdict = _generator_verdict(problem, c)
        assert verdict in (None, at_c.is_psd)
        undecided += verdict is None
    assert undecided > 0


@pytest.mark.parametrize("targets, feasible", [
    # the constant 0.5 is an invariant interpolant
    ((0.5, 0.5, 0.5), True),
    # no function of norm 1 takes order-one distinct values on whole orbits
    ((0.6 - 0.3j, -0.6j, 0.45 + 0.3j), False),
], ids=["constant", "distinct"])
def test_deep_orbit_verdicts_with_known_answers(targets, feasible):
    problem = PickProblem(_DEEP_NODES, targets, _DEEP_KERNEL)
    assert _generator_verdict(problem) is feasible
    assert feasibility(problem).psd.is_psd is feasible
    assert _cholesky_verdict(problem) is feasible


def test_distinct_unimodular_targets_are_left_to_cholesky():
    # every Pick diagonal entry is 0, so the diagonal the recursion reads
    # says nothing; the off-diagonal entries make the matrix indefinite
    problem = PickProblem((0j, 0.5 + 0j), (1 + 0j, 1j), SzegoKernel())
    assert _generator_verdict(problem) is None
    report = feasibility(problem)
    assert not report.psd.is_psd and report.rank == 0


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


@pytest.mark.parametrize("s", [1e-160, 1e-170])
def test_pick_norm_refuses_targets_whose_squares_underflow(s):
    # the pencil's B holds |w|^2 = 8.1e-321 (subnormal) resp. 0, which
    # would read a norm off by 3.7e-4 relative resp. a norm of 0
    with pytest.raises(NumericalError, match="the squared targets underflow"):
        pick_norm((0j, 0.5 + 0j), (0j, 0.9 * s + 0j), SzegoKernel())


def test_pick_norm_keeps_tiny_targets_whose_squares_are_normal():
    value = pick_norm((0j, 0.5 + 0j), (0j, 0.9e-150 + 0j), SzegoKernel())
    assert abs(value - 1.8e-150) <= 1e-15 * 1.8e-150


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


def mpmath_pencil_norm(points, w, dps):
    """The largest eigenvalue of the pencil (D_w K D_w^H, K) is c^2 for
    c = sigma_max(L^-1 D_w L), K = L L^H the Szegő matrix at the points.
    L and the lower triangular L^-1 D_w L are computed at dps digits;
    rounding the product to double before its SVD moves c by a few eps
    relative."""
    with mpmath.workdps(dps):
        z = [mpmath.mpc(p) for p in points]
        n = len(z)
        chol = [[None] * n for _ in range(n)]
        for j in range(n):
            for i in range(j, n):
                s = 1 / (1 - z[i] * mpmath.conj(z[j]))
                s -= mpmath.fdot(chol[i][:j], chol[j][:j], conjugate=True)
                chol[i][j] = mpmath.sqrt(s.real) if i == j else s / chol[j][j]
        m = np.zeros((n, n), dtype=complex)
        for j in range(n):
            column = []
            for i in range(j, n):
                x = (w[i] * chol[i][j] - mpmath.fdot(chol[i][j:i], column)) / chol[i][i]
                column.append(x)
                m[i, j] = complex(x)
    return float(np.linalg.svd(m, compute_uv=False)[0])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the pencil norm is wrong "
                   "or refused on well-conditioned n = 16 data")
@pytest.mark.parametrize("seed", [3, 5, 8])
def test_pick_norm_matches_mpmath_at_sixteen_nodes(seed):
    # reads 1.0042e5, 1.0528e5 and NumericalError against the references
    # 1.2462e6, 1.5033e5 and 7.2285e4
    rng = np.random.default_rng(seed)
    nodes = random_nodes(rng, 16)
    targets = tuple(complex(*(rng.random(2) - 0.5)) for _ in range(16))
    ref = mpmath_pencil_norm(nodes, targets, 50)
    assert abs(pick_norm(nodes, targets, SzegoKernel()) - ref) <= 1e-12 * ref


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the absolute tolerance "
                   "accepts well-conditioned n = 16 data far past their norm")
@pytest.mark.parametrize("norm", [1.01, 10.0])
def test_feasibility_refuses_sixteen_nodes_past_their_norm(norm):
    # seed 3 of the data above, targets scaled to a reference norm of
    # 1.01 or 10: the smallest Pick eigenvalue is negative, but below
    # the tolerance 1e-10 (1 + max diagonal) in modulus, so the verdict
    # reads feasible at both (and at 2)
    rng = np.random.default_rng(3)
    nodes = random_nodes(rng, 16)
    targets = tuple(complex(*(rng.random(2) - 0.5)) for _ in range(16))
    scale = norm / mpmath_pencil_norm(nodes, targets, 50)
    report = feasibility(PickProblem(nodes, tuple(scale * w for w in targets), SzegoKernel()))
    assert not report.psd.is_psd


def _near_boundary_draws(count):
    """ROADMAP item 2's probe recipe, seeds 0, 1, ... in order, keeping
    the first ``count`` draws with n >= 10: n nodes, n targets scaled so
    that the reference pencil norm is uniform in [0.97, 1.03], and that
    norm."""
    seed = 0
    while count:
        rng = np.random.default_rng(seed)
        seed += 1
        n = int(rng.integers(3, 13))
        if n < 10:
            continue
        nodes = random_nodes(rng, n)
        targets = tuple(complex(*(rng.random(2) - 0.5)) for _ in range(n))
        norm = float(rng.uniform(0.97, 1.03))
        scale = norm / mpmath_pencil_norm(nodes, targets, 50)
        yield nodes, tuple(scale * w for w in targets), norm
        count -= 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the absolute tolerance "
                   "accepts near-boundary n >= 10 data past their norm")
def test_feasibility_decides_near_boundary_draws():
    # 13 of the 40 draws (seeds 0-99) read feasible at reference norms
    # 1.003 to 1.025; no draw reads infeasible at a norm <= 1
    wrong = [
        norm for nodes, targets, norm in _near_boundary_draws(40)
        if feasibility(PickProblem(nodes, targets, SzegoKernel())).psd.is_psd != (norm <= 1.0)
    ]
    assert wrong == []


@pytest.mark.parametrize("n", [6, 12])
def test_pick_norm_matches_mpmath(n):
    # a backward-stable solve moves the norm by up to about eps * cond(K)
    # relative; that exceeds 1e-8 at n = 12, where cond(K) = 1.1e9
    rng = np.random.default_rng(1)
    nodes = random_nodes(rng, n)
    targets = tuple(complex(*(rng.random(2) - 0.5)) for _ in range(n))
    ref = mpmath_pencil_norm(nodes, targets, 50)
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the radius cut leaves the "
                   "same 30 orbit rows at every depth")
@pytest.mark.parametrize("depth, norm", [(2, 1.433), (6, 1.784)])
def test_the_schottky_orbit_norm_grows_with_depth(depth, norm):
    # the a = 0.95 Schottky pair; the uncut kernel, scaled by |g'|^(1/2),
    # gives about 1.433 and 1.784, and the library 1.3772103664961242 at both
    gens = [canonicalize(1, 0.95, 0.95, 1), canonicalize(1, 0.95j, -0.95j, 1)]
    kernel = OrbitGramKernel(generic_group(gens), depth)
    value = pick_norm((0.1 + 0.2j, -0.3 + 0.1j), (0.1, 0.2j), kernel)
    assert value == pytest.approx(norm, abs=1e-3)


_CONSTANT_TARGET_KERNELS = {
    "z2z2": OrbitGramKernel(z2z2_group(0.1), 160),
    "cyclic": OrbitGramKernel(cyclic_group(0.1), 120),
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the orbit pencil norm of "
                   "constant targets exceeds the constant by 3e-5 to 1.6e-4 relative")
@pytest.mark.parametrize("kind", _CONSTANT_TARGET_KERNELS)
def test_pick_norm_of_constant_orbit_targets_is_the_constant(kind):
    # the constant 0.1 interpolates with norm 0.1; the pencil reads
    # 0.10000598 (z2z2, its rows folded) and 0.10000300 (cyclic) here,
    # other digits of the same size under other BLAS kernels
    nodes = (0.1 + 0.2j, -0.3 + 0.1j)
    value = pick_norm(nodes, (0.1, 0.1), _CONSTANT_TARGET_KERNELS[kind])
    assert abs(value - 0.1) <= 1e-8 * 0.1


@pytest.mark.parametrize("kind", _CONSTANT_TARGET_KERNELS)
def test_pick_norm_of_constant_orbit_targets_stays_within_its_known_error(kind):
    # the expected failure above, held to the error it has today (3.0e-5
    # to 8.7e-5 relative across OpenBLAS's default, Haswell and Prescott
    # kernels and numpy's baseline dispatch), so that a change to the
    # pencil or to the check at c cannot move it unseen
    nodes = (0.1 + 0.2j, -0.3 + 0.1j)
    value = pick_norm(nodes, (0.1, 0.1), _CONSTANT_TARGET_KERNELS[kind])
    assert 0.1 < value <= 0.1 * (1.0 + 2e-4)


@pytest.mark.blas_kernels
def test_pick_norm_uncertified_orbit_norm_is_a_numerical_error():
    # non-invariant targets on a deep z2z2 orbit kernel: the target
    # weight sits on directions K annihilates at double precision, so
    # the eigen-solve's norm fails the positivity check.  The 300 rows
    # fold, and the check still runs on all of them.
    kernel = OrbitGramKernel(z2z2_group(0.1), 160)
    nodes, targets = (0.1 + 0.2j, -0.2 + 0.05j), (0.1 + 0j, 0.2j)
    assert PickProblem(nodes, targets, kernel)._folded[1] == [75, 75]
    with pytest.raises(NumericalError, match="annihilates"):
        pick_norm(nodes, targets, kernel)


def _z2z2_draw(rng):
    a = float(rng.uniform(0.6, 0.85))
    k = int(rng.integers(2, 4))
    nodes = rng.uniform(0.1, 0.6, k) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))
    targets = tuple(complex(*(rng.random(2) - 0.5)) for _ in range(k))
    return a, tuple(complex(z) for z in nodes), targets


_RNG = np.random.default_rng(7)
_FOLDING_DRAWS = [_z2z2_draw(_RNG) for _ in range(12)]


@pytest.mark.blas_kernels
@pytest.mark.parametrize("a, nodes, targets", _FOLDING_DRAWS)
def test_the_folded_pick_norm_matches_mpmath(a, nodes, targets):
    # depth 30 reaches the kernel radius, so each orbit is cut there
    # closed under negation and the pencil is solved on the squared
    # rows; it must be as accurate as a backward-stable solve of the
    # whole pencil, about eps * cond(K) relative (draw 8: a = 0.606,
    # 66 rows, cond(K) = 1e18, 2.3e-2 off on either path)
    kernel = OrbitGramKernel(z2z2_group(a), 30)
    points, counts, _ = _szego_points(kernel, nodes)
    assert PickProblem(nodes, targets, kernel)._folded[1] == [c // 2 for c in counts]
    z = np.array(points)
    cond = np.linalg.cond(1.0 / (1.0 - np.outer(z, z.conj())))
    w = np.repeat(np.array(targets), counts)
    ref = mpmath_pencil_norm(points, w, 20 + math.ceil(math.log10(cond)))
    bound = max(1e-8, np.finfo(float).eps * cond)
    assert abs(pick_norm(nodes, targets, kernel) - ref) <= bound * ref


def _unfolded_problems():
    rng = np.random.default_rng(11)
    for _ in range(4):  # depth L lists 2L + 1 orbit points, none cut
        group, depth = z2z2_group(float(rng.uniform(0.4, 0.6))), int(rng.integers(3, 9))
        nodes = random_nodes(rng, int(rng.integers(2, 4)))
        targets = tuple(complex(*(rng.random(2) - 0.5)) for _ in nodes)
        yield nodes, targets, OrbitGramKernel(group, depth)
    nodes, targets = (0.1 + 0.2j, -0.3 + 0.1j), (0.1, 0.2j)
    yield nodes, targets, OrbitGramKernel(cyclic_group(0.1), 120)  # 75 rows each
    yield nodes, targets, OrbitGramKernel(cyclic_group(0.2), 80)  # 38 rows each, unpaired
    # the orbit of -z is the negated orbit of z: all 76 rows pair, but
    # not within either node's rows
    yield (0.1 + 0.2j, -0.1 - 0.2j), targets, OrbitGramKernel(cyclic_group(0.2), 80)
    # a row at 0: the half-turn fixes the node 0, and that row never pairs
    yield (0j, 0.1 + 0.2j), (0.3, 0.2j), OrbitGramKernel(z2z2_group(0.1), 160)
    yield nodes, targets, ComposedInnerKernel(orbit_product(0.5, 60), 2)
    nodes = random_nodes(np.random.default_rng(3), 6)
    yield nodes, tuple(0.1 * z for z in nodes), SzegoKernel()


@pytest.mark.blas_kernels
@pytest.mark.parametrize("nodes, targets, kernel", list(_unfolded_problems()))
def test_pick_norm_without_a_fold_is_unchanged(monkeypatch, nodes, targets, kernel):
    # rows not closed under negation keep the whole pencil: the same
    # norm, or the same refusal, bit for bit, as with the fold turned off
    problem = PickProblem(nodes, targets, kernel)
    assert problem._folded[0] is problem._rows[0]

    def outcome():
        try:
            return pick_norm(nodes, targets, kernel)
        except NumericalError as exc:
            return str(exc)

    folded = outcome()
    monkeypatch.setattr(pick, "_negation_squares", lambda values, counts=None: None)
    assert outcome() == folded


@pytest.mark.blas_kernels
@pytest.mark.parametrize("nodes, targets, kernel", list(_unfolded_problems()))
def test_verdicts_without_a_fold_are_unchanged(monkeypatch, nodes, targets, kernel):
    # cyclic, odd-count, row-at-0, composed and Szegő rows keep the
    # verdict on all rows, bit for bit as with the fold turned off
    problem = PickProblem(nodes, targets, kernel)
    assert problem._folded[0] is problem._rows[0]

    def outcome():
        # a fresh problem: each decides its pairing once and keeps it
        problem = PickProblem(nodes, targets, kernel)
        reports = [feasibility(problem, tol) for tol in (None, 1e-6)]
        return [(r.psd.is_psd, r.rank, r.psd.tolerance_used.hex()) for r in reports]

    folded = outcome()
    monkeypatch.setattr(pick, "_negation_squares", lambda values, counts=None: None)
    assert outcome() == folded


def test_a_problem_pairs_its_rows_once_when_built(monkeypatch):
    # the +-p pairing is decided once per problem, as it is built:
    # assembling the matrix and two verdicts ask for it no more, and
    # pick_norm's pencil and its check at c share its one problem's
    real, calls = pick._negation_squares, []
    monkeypatch.setattr(pick, "_negation_squares", lambda *args: calls.append(args) or real(*args))
    nodes, targets = (0.1 + 0.2j, -0.2 + 0.05j), (0.1, 0.1)
    kernel = OrbitGramKernel(z2z2_group(0.1), 160)
    problem = PickProblem(nodes, targets, kernel)
    assert len(calls) == 1 and problem._folded[1] == [75, 75]
    assemble_pick(problem)
    reports = [feasibility(problem, tol) for tol in (None, 1e-6)]
    assert len(calls) == 1 and all(r.psd.is_psd for r in reports)
    assert pick_norm(nodes, targets, kernel) > 0.0
    assert len(calls) == 2


@pytest.mark.blas_kernels
@pytest.mark.parametrize("factor, feasible", [(1.5, False), (2.5, True)])
def test_the_folded_verdict_runs_at_half_the_tolerance(factor, feasible):
    # z2z2 a = 0.9999 cuts the node's orbit to the rows +-p, so P' is
    # the 1 x 1 matrix [d] with d = (1 - |w|^2) / (1 - |p|^4) < 0, and
    # P + tol I >= 0 iff 2 d + tol >= 0: at tol = 1.5 |d| the matrix is
    # not positive and at 2.5 |d| it is, and the recursion on P' at
    # tol / 2 decides both as Cholesky does
    node, w = 0.3 + 0.2j, 1.1
    problem = PickProblem((node,), (w,), OrbitGramKernel(z2z2_group(0.9999), 3))
    points, counts, _ = problem._rows
    assert counts == [2] and points.tolist() == [node, -node]
    d = (1.0 - w * w) / (1.0 - abs(node) ** 4)
    tol = -factor * d
    assert _generator_verdict(problem, tol=tol) is feasible
    report = feasibility(problem, tol)
    assert report.psd.is_psd is feasible and report.rank == 0
    assert psd_check(assemble_pick(problem), tol).is_psd is feasible


def _order_one_z2z2_draws():
    """z2z2 problems whose verdicts are not all feasible: a in [0.2, 0.5],
    2 to 6 nodes off the axes at radius 0.8 to 0.97, depth 60 (each
    orbit is cut at the kernel radius, closed under negation), and
    arbitrary targets scaled to pencil norms 2, 1.11, 1.01, 0.99, 0.91
    and 0.5."""
    rng = np.random.default_rng(34)
    for _ in range(20):
        a, n = float(rng.uniform(0.2, 0.5)), int(rng.integers(2, 7))
        angles = rng.uniform(0.2, 0.5 * np.pi - 0.2, n) + 0.5 * np.pi * rng.integers(0, 4, n)
        nodes = tuple(complex(z) for z in rng.uniform(0.8, 0.97, n) * np.exp(1j * angles))
        targets = tuple(complex(*(rng.random(2) - 0.5)) for _ in range(n))
        kernel = OrbitGramKernel(z2z2_group(a), 60)
        norm = pick_norm(nodes, targets, kernel)
        for f in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0):
            yield PickProblem(nodes, tuple(w / (f * norm) for w in targets), kernel)


@pytest.mark.blas_kernels
def test_the_folded_verdict_is_the_cholesky_verdict():
    # P + tol I >= 0 iff 2 P' + tol I >= 0 for P' the Pick matrix at the
    # squared rows: the verdict runs on P' at tol / 2 and must give
    # Cholesky's answer on the whole assembled matrix wherever it decides
    decided = {True: 0, False: 0}
    for problem in _order_one_z2z2_draws():
        points, counts, _ = problem._rows
        half = problem._folded
        assert len(half[0]) * 2 == len(points) and half[1] == [c // 2 for c in counts]
        verdict = _generator_verdict(problem)
        report, matrix = feasibility(problem), assemble_pick(problem)
        tol = report.psd.tolerance_used
        assert tol == psd_check(matrix).tolerance_used
        cholesky = psd_check(matrix, tol).is_psd
        assert report.psd.is_psd == cholesky
        if verdict is not None:
            assert verdict == cholesky
            assert report.rank <= len(half[0])
            decided[verdict] += 1
    assert decided[True] >= 40 and decided[False] >= 20


@pytest.mark.parametrize("first", [True, False])
def test_a_node_whose_orbit_is_all_cut_is_a_numerical_error(first):
    # every orbit point of 0.9995i lies beyond the kernel radius, so the
    # node would own no row and its target 5 would leave the matrix
    nodes, targets = [0.9995j, 0.1 + 0.2j], [5.0, 0.1]
    if not first:
        nodes, targets = nodes[::-1], targets[::-1]
    kernel = OrbitGramKernel(cyclic_group(0.5), 10)
    message = rf"point {0 if first else 1} at 0\.9995j has no orbit point to depth 10"
    with pytest.raises(NumericalError, match=message):
        gram(kernel, nodes)
    with pytest.raises(NumericalError, match=message):
        feasibility(PickProblem(nodes, targets, kernel))
    with pytest.raises(NumericalError, match=message):
        pick_norm(nodes, targets, kernel)


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


def test_interpolate_stops_at_a_pair_that_rounds_to_zero():
    # conj(w0) * w1 rounds to exactly 1, so the second pair is (0, b):
    # its reduced target is infinite and the pass stops with parameter
    # 1, which meets both targets to the residual guard
    w0 = 1.0 - 2.0**-36
    nodes, targets = (0j, 0.5 + 0j), (complex(w0), complex(1.0 / w0))
    s = interpolate_disk(nodes, targets)
    assert s.schur_parameters == (targets[0], 1.0 + 0j)
    assert s.degenerate_rank == 2


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


# points and parameters on the real axis, with either sign of a zero
# imaginary part: signed zeros survive the real arithmetic only if every
# operation runs as in Python's complex type
_REAL = st.floats(-0.99, 0.99).flatmap(
    lambda x: st.sampled_from([complex(x, 0.0), complex(x, -0.0)]))
_POINTS = disk_points() | _REAL


@st.composite
def schur_interpolants(draw):
    """Recursions of up to 4 steps, with parameters of modulus up to
    1 + 1e-12, as the constructor allows."""
    n = draw(st.integers(1, 4))
    radii = st.floats(0.0, 1.0) | st.sampled_from([1.0 - 1e-13, 1.0 + 1e-12])
    turns = st.floats(0.0, 2.0 * math.pi).map(lambda t: cmath.exp(1j * t))
    params = tuple(draw(radii) * draw(turns) for _ in range(n)) if draw(st.booleans()) \
        else tuple(draw(_REAL) for _ in range(n))
    return SchurInterpolant(tuple(draw(_POINTS) for _ in range(n)), params)


def _reprs(values):
    return [repr(v) for v in values]


def _scalar_clamp(values):
    """What the scalar calls make of unclamped values: each one past
    1 + 1e-10 in modulus pulled back onto the circle."""
    return [v / abs(v) if abs(v) > 1.0 + 1e-10 else v for v in values]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(s=schur_interpolants(), zs=st.lists(_POINTS, max_size=8))
@example(  # |v| passes 1 + 1e-10 at both points, where the scalar call clamps
    s=SchurInterpolant((0.5403023058681089 + 0.8414709848078484j, 0j),
                       (0.5403023058681398 + 0.8414709848078965j, 0.9999999999999 + 0j)),
    zs=[0j, 0.5 + 0j],
)
def test_interpolant_values_are_the_scalar_calls_bit_for_bit(s, zs):
    got = interpolant_values(s, zs).tolist()
    assert _reprs(_scalar_clamp(got)) == _reprs(evaluate_interpolant(s, z) for z in zs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    s=schur_interpolants(),
    inner=blaschke_products(),
    power=st.integers(1, 3),
    zs=st.lists(_POINTS.filter(lambda z: abs(z) <= 0.999), max_size=6),
)
def test_composed_values_are_the_scalar_calls_bit_for_bit(s, inner, power, zs):
    f = ComposedInterpolant(s, inner, power)
    got = composed_values(f, zs).tolist()
    assert _reprs(_scalar_clamp(got)) == _reprs(evaluate_composed(f, z) for z in zs)


def test_composed_values_keep_pythons_power():
    # B(z) = z * z has imaginary part -0.0 here; CPython computes v ** 1
    # as 1 * v, which makes it +0.0, and the sign reaches the result
    inner = BlaschkeProduct(2, (), 0.0)
    f = ComposedInterpolant(
        SchurInterpolant((0.3773169464035141 + 0j,), (complex(0.46449544709691737, -0.0),)),
        inner, 1)
    z = -0.0032541325822381673 + 0j
    v, _ = evaluate(inner, z)
    assert repr(v) != repr(v**1)
    assert _reprs(composed_values(f, [z]).tolist()) == _reprs([evaluate_composed(f, z)])
    kept = interpolant_values(f.schur, np.power(np.array([v]), 1))  # numpy's power
    assert _reprs(kept.tolist()) != _reprs([evaluate_composed(f, z)])


# |v| = 1 + 2.3e-10 before the clamp at 1 + 1e-10: the outer parameter
# is 1 + 1e-12 in modulus and nearly cancels the inner value
_CLAMPED = (
    SchurInterpolant((0.6850302631579848 + 0.7181841591667731j, 0.1j),
                     (-0.8293283109662 - 0.5587616241582j,
                      -0.9786754917354052 + 0.20541246767969687j)),
    -0.08486534614700228 + 0.4927452415024923j,
)


def test_interpolant_values_report_what_the_scalar_call_clamps():
    s, z = _CLAMPED
    v = 0j  # the recursion without the clamp
    for zk, rho in zip(reversed(s.nodes), reversed(s.schur_parameters)):
        u = v * (z - zk) / (1.0 - zk.conjugate() * z)
        v = (u + rho) / (1.0 + rho.conjugate() * u)
    got = interpolant_values(s, [z, 0.3 + 0j, z]).tolist()
    assert 1.0 + 1e-10 < abs(got[0]) < 1.0 + 1e-9
    assert _reprs([got[0], got[2]]) == _reprs([v, v])
    assert abs(evaluate_interpolant(s, z)) == pytest.approx(1.0, abs=1e-15)
    assert repr(got[1]) == repr(evaluate_interpolant(s, 0.3 + 0j))


def test_composed_values_report_what_the_scalar_call_clamps():
    # phi(z) = z, so the composed grid check meets the pinned recursion
    s, z = _CLAMPED
    f = ComposedInterpolant(s, BlaschkeProduct(1, (), 0.0), 1)
    got = composed_values(f, [z]).tolist()
    assert 1.0 + 1e-10 < abs(got[0]) < 1.0 + 1e-9
    assert _reprs(got) == _reprs(interpolant_values(s, [evaluate(f.inner, z)[0]]).tolist())
    assert abs(evaluate_composed(f, z)) == pytest.approx(1.0, abs=1e-15)


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


_GRID_4096 = 0.999 * np.exp(2j * np.pi * np.arange(4096) / 4096)


def box_nodes(rng, count):
    """``count`` nodes uniform in the square [-0.3, 0.3]^2."""
    return tuple(complex(x, y) for x, y in rng.uniform(-0.3, 0.3, (count, 2)))


def test_composed_interpolates_nodes_the_inner_map_crowds():
    # the pushed-forward nodes lie within 1e-4 to 1e-5 of each other and
    # the Pick matrix's least eigenvalue is -5.5e-16, where dividing each
    # reduced target by a Blaschke factor amplifies rounding past 1e-8
    b = orbit_product()
    spec = ComposedInnerKernel(b, 2)
    rng = np.random.default_rng(0)
    rng.random(10)
    nodes = box_nodes(rng, 8)
    targets = tuple(0.5 * spec.value(z) for z in nodes)
    f = interpolate_composed(nodes, targets, b, 2)
    assert max(abs(evaluate_composed(f, z) - w) for z, w in zip(nodes, targets)) <= 1e-10
    assert np.max(np.abs(composed_values(f, _GRID_4096))) <= 1.0 + 1e-12


def test_disk_interpolates_fifty_nodes_in_a_small_square():
    rng = np.random.default_rng(1)
    nodes = box_nodes(rng, 50)
    targets = tuple(0.5 * z for z in nodes)
    s = interpolate_disk(nodes, targets)
    assert max(abs(evaluate_interpolant(s, z) - w) for z, w in zip(nodes, targets)) <= 1e-10
    assert np.max(np.abs(interpolant_values(s, _GRID_4096))) <= 1.0 + 1e-12


def test_feasible_composed_data_never_yield_infeasible():
    # 40 draws like the benchmark's composed classes with n >= 8: nodes
    # the inner map crowds together, targets c * beta(phi(z)) for one
    # Blaschke factor beta, so the data are feasible with norm c
    rng = np.random.default_rng(26)
    feasible = 0
    for i in range(40):
        group = (cyclic_group, z2z2_group)[i % 2](float(rng.uniform(0.3, 0.7)))
        spec = ComposedInnerKernel(
            from_orbit(enumerate_orbit(group, 0j, 60), 1), int(rng.integers(1, 3))
        )
        n = int(rng.choice((8, 12)))
        while True:
            nodes = []
            while len(nodes) < n:
                z = complex(*rng.uniform(-0.3, 0.3, 2))
                if all(pseudo_hyperbolic(z, w) > 0.05 for w in nodes):
                    nodes.append(z)
            zeta = [spec.value(z) for z in nodes]
            if min(abs(u - v) for k, u in enumerate(zeta) for v in zeta[:k]) > 1e-7:
                break
        alpha = random_disk_point(rng, 0.5)
        c = rng.uniform(0.3, 0.9) * cmath.exp(2j * math.pi * rng.uniform())
        targets = tuple(c * (v - alpha) / (1.0 - alpha.conjugate() * v) for v in zeta)
        if feasibility(PickProblem(nodes, targets, spec)).psd.is_psd:
            feasible += 1
            interpolate_composed(nodes, targets, spec.inner, spec.power)
    assert feasible == 40


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


@pytest.mark.parametrize("power, terms, message", [
    (-1, 10, "monomial power must be nonnegative"),
    (1, -1, "the window size must be nonnegative"),
])
def test_amenable_average_refuses_a_negative_power_or_window(power, terms, message):
    with pytest.raises(InputError) as info:
        amenable_average(cyclic_group(0.5), 0.3 + 0j, power, terms)
    assert str(info.value) == message


@pytest.mark.parametrize("nodes, params, message", [
    ((0j, 0.5 + 0j), (0.1 + 0j,), "one parameter per recursion node is required"),
    ((0j,), (1.5 + 0j,), "recursion parameter |rho| = 1.5 exceeds 1"),
])
def test_schur_interpolant_refuses_a_malformed_recursion(nodes, params, message):
    with pytest.raises(InputError) as info:
        SchurInterpolant(nodes, params)
    assert str(info.value) == message


def test_a_schur_interpolant_is_called_as_evaluate_interpolant():
    s = interpolate_disk((0j, 0.5 + 0j), (0j, 0.5 + 0j))
    for z in (0j, 0.5 + 0j, 0.3 - 0.4j, 0.999j):
        assert s(z) == evaluate_interpolant(s, z)
    assert abs(s(0.5 + 0j) - 0.5) <= 1e-12


def test_the_negative_part_of_a_vanished_first_column(monkeypatch):
    # nodes +-0.3 share the inner value 0.09 under phi(z) = z^2, so with
    # equal targets the one pivot leaves the generator's first column
    # exactly 0, and the bound is then the negative eigenvalue of
    # -y y^H, |y|^2
    kernel = ComposedInnerKernel(BlaschkeProduct(1, (), 0.0), 2)
    problem = PickProblem((0.3 + 0j, -0.3 + 0j), (0.5 + 0j, 0.5 + 0j), kernel)
    assert problem._rows[0].tolist() == [0.09, 0.09]
    real, seen = pick._negative_part, []

    def recorded(a, b, q):
        bound = real(a, b, q)
        seen.append((a.tolist(), bound, float(np.sum(np.abs(b) ** 2 / q))))
        return bound

    monkeypatch.setattr(pick, "_negative_part", recorded)
    report = feasibility(problem)
    assert report.psd.is_psd and report.rank == 1
    [(a, bound, y2)] = seen
    assert a == [0j] and y2 > 0.0 and bound == pytest.approx(y2, rel=1e-12, abs=0.0)


def test_pick_problem_validation():
    with pytest.raises(InputError):
        PickProblem((), (), SzegoKernel())
    with pytest.raises(InputError):
        PickProblem((0j,), (0j, 0.1 + 0j), SzegoKernel())
    with pytest.raises(InputError, match="square"):
        PickProblem((0j,), (np.ones((2, 3)),), SzegoKernel())
    with pytest.raises(InputError, match="finite"):
        PickProblem((0j, 0.5 + 0j), (0.1 + 0j, complex("inf")), SzegoKernel())
    # the nodes are validated first, distinct nodes included
    with pytest.raises(DuplicateNodes):
        PickProblem((0.1 + 0j, 0.1 + 0j), (0j, complex("inf")), SzegoKernel())


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
    real_evaluate_many = blaschke.evaluate_many

    def counting(b, zs):
        calls.extend(np.ravel(zs))  # the points handed over
        return real_evaluate_many(b, zs)

    monkeypatch.setattr(blaschke, "evaluate_many", counting)
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
    calls.clear()
    interpolate_composed(nodes, targets, spec.inner, 2)
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


def test_composed_construction_decides_by_the_pick_check_matrix():
    # the fourth node aliases the first under the even composed map; the
    # 4-row Pick matrix reads -2.178e-10 against a tolerance of 2.0e-10
    # while the merged 3-row one reads -1.80e-10, so a verdict on the
    # merged matrix would contradict pick-check
    spec = ComposedInnerKernel(
        from_orbit(enumerate_orbit(z2z2_group(0.5), 0j, 120), 1), 2
    )
    nodes = (0.3 + 0.1j, -0.2 + 0.25j, 0.1 - 0.3j, -(0.3 + 0.1j))
    c = 1.0000092931545244
    targets = [c * (v - 0.02) / (1 - 0.02 * v) for v in map(spec.value, nodes[:3])]
    targets = tuple(targets + targets[:1])
    assert not feasibility(PickProblem(nodes, targets, spec)).psd.is_psd
    with pytest.raises(Infeasible, match=r"^Pick matrix has min eigenvalue"):
        interpolate_composed(nodes, targets, spec.inner, 2)


def test_each_construction_validates_its_nodes_once(monkeypatch):
    from orbitpick import pick

    calls = []
    real_check_distinct = pick.check_distinct

    def counting(*args):
        calls.append(args)
        return real_check_distinct(*args)

    monkeypatch.setattr(pick, "check_distinct", counting)
    spec = ComposedInnerKernel(orbit_product(), 2)
    nodes = (0.1 + 0.2j, -0.25 + 0.1j, 0.3 - 0.3j)
    targets = tuple(0.5 * spec.value(z) for z in nodes)
    interpolate_composed(nodes, targets, spec.inner, 2)
    assert len(calls) == 1
    calls.clear()
    interpolate_disk(nodes, tuple(0.5 * z for z in nodes))
    assert len(calls) == 1


def test_a_problem_maps_each_node_through_disk_point_once(monkeypatch):
    from orbitpick import kernels, mobius, pick

    calls = []

    def counting(z):
        calls.append(z)
        return mobius.disk_point(z)

    monkeypatch.setattr(pick, "disk_point", counting)
    monkeypatch.setattr(kernels, "disk_point", counting)
    nodes = (0.1 + 0.2j, -0.25 + 0.1j, 0.3 - 0.3j, 0.05j, -0.4 + 0j)
    PickProblem(nodes, tuple(0.5 * z for z in nodes), SzegoKernel())
    assert len(calls) == len(nodes)


# (nodes, kernel, error) of problems whose refusal is decided by their
# kernel rows: aliased composed nodes with unequal targets, an orbit node
# that owns no row and a composed node beyond the evaluation radius
ROW_FAULTS = {
    "aliased": ((0.3 + 0j, -0.3 + 0j), ComposedInnerKernel(orbit_product(), 2), AliasedNodes),
    "no-row": ((0.9995j, 0.1 + 0.2j), OrbitGramKernel(cyclic_group(0.5), 10), NumericalError),
    "boundary": ((0.9995 + 0j, 0.1 + 0.2j), ComposedInnerKernel(orbit_product(), 2),
                 TooCloseToBoundary),
}


@pytest.mark.parametrize("nodes, kernel, error", ROW_FAULTS.values(), ids=ROW_FAULTS.keys())
def test_building_a_problem_decides_its_rows(nodes, kernel, error):
    with pytest.raises(error):
        PickProblem(nodes, (0.1 + 0j, 0.2 + 0j), kernel)


@pytest.mark.parametrize(
    "nodes, kernel, error", list(ROW_FAULTS.values())[1:], ids=list(ROW_FAULTS)[1:]
)
def test_pick_norm_with_zero_targets_refuses_what_feasibility_refuses(nodes, kernel, error):
    targets = (0j, 0j)
    with pytest.raises(error) as refused:
        feasibility(PickProblem(nodes, targets, kernel))
    with pytest.raises(error, match=f"^{re.escape(str(refused.value))}$"):
        pick_norm(nodes, targets, kernel)


def test_unknown_kernel_specs_are_refused():
    with pytest.raises(UnsupportedVariant):
        feasibility(PickProblem((0.1 + 0j, 0.5 + 0j), (0j, 0.9 + 0j), "orbit"))
    with pytest.raises(UnsupportedVariant):
        gram(None, [0.1 + 0j, 0.5 + 0j])
    with pytest.raises(UnsupportedVariant):
        pick_norm((0j, 0.5 + 0j), (0j, 0.9 + 0j), object())


def test_composed_points_stay_inside_the_disk():
    # a zero within one ulp of the circle: the inner map must vanish at
    # the origin and nodes must lie within radius 0.999, so by Schwarz's
    # lemma every point phi(z_j) does too and none needs validating again
    zero = 1 - 1.1e-16
    with pytest.raises(InputError, match="must vanish at the origin"):
        interpolate_composed((0.5,), (0.3,), BlaschkeProduct(0, (zero,), 0.0), 1)
    inner = BlaschkeProduct(1, (zero,), 0.0)
    with pytest.raises(TooCloseToBoundary):
        interpolate_composed((0.9995,), (0.3,), inner, 1)
    nodes = (0.999 + 0j, 0.999j, -0.5 + 0j)
    points = [evaluate(inner, z)[0] for z in nodes]
    assert max(map(abs, points)) <= 0.999
    targets = tuple(0.5 * p for p in points)
    f = interpolate_composed(nodes, targets, inner, 1)
    assert f.schur.nodes == tuple(points)
    assert max(abs(f(z) - w) for z, w in zip(nodes, targets)) <= 1e-8
