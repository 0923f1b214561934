"""The interpolation engine.

Feasibility of a bounded-by-one interpolation problem on a reproducing
kernel is decided by positivity of the matrix

    A = [(1 - w_i conj(w_j)) K(z_i, z_j)]      (scalar targets)
    A = [(I - W_i W_j^H)     K(z_i, z_j)]      (matrix targets),

and the extremal multiplier norm on the kernel span is the least c with
[(c^2 - w_i conj(w_j)) K] positive.  K is always a Szegő matrix
(``kernels.szego_matrix``) at the points ``kernels._szego_points``
gives: the nodes, their inner values, or their concatenated truncated
orbits, each node's target carried by all of its rows.  So one
``assemble_pick`` serves every kernel, ``PickProblem`` is the one
validation of nodes and targets (``pick_norm`` and the interpolants
build one too, and take scalar targets only), and one alias check
guards every composed-kernel entry point.
Scalar weights are written into the kernel matrix a strip of rows at
a time, and the weighted matrix is handed to ``linalg.HermitianMatrix``
without a copy.
Positivity at tolerance tol is one Cholesky attempt on A + tol * I
(``linalg.psd_check``); no verdict computes eigenvalues.  c^2 is the
largest eigenvalue of the pencil ((w w^H) o K, K), taken by one
eigen-solve on the numerical range of K and accepted only after that
Cholesky check passes at c; a c the check rejects is reported as a
``NumericalError``.  Solutions on the disk itself are constructed by
the classical Schur recursion; a problem posed on the span of powers
of an inner function phi reduces to a disk problem at the points
phi(z_j)^m and composes back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blaschke as bl
from .errors import (
    AliasedNodes,
    DuplicateNodes,
    Infeasible,
    InputError,
    NumericalError,
)
from .kernels import (
    ComposedInnerKernel,
    KernelSpec,
    SzegoKernel,
    _szego_points,
    check_distinct,
    szego_matrix,
)
from .linalg import STRIP_ROWS, HermitianMatrix, PsdReport, pencil_max, psd_check
from .mobius import disk_point, iterate_cyclic
from .orbits import GroupPresentation

_NODE_TOL = 1e-10
_COINCIDE = "nodes {i} and {j} coincide"
_ALIAS_TOL = 1e-10
_TARGET_RESIDUAL = 1e-8

# Widths of the band around the unit circle treated as "the reduced
# target reached the circle" (a singular Pick matrix), tried tightest
# first.  Rounding in a near-singular reduction cascade can push an
# exactly-unimodular reduced target this far off the circle.
_DEGENERATE_LADDER = (1e-10, 1e-7, 1e-5, 1e-3)
_BLOWUP_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class PickProblem:
    """Interpolation data: distinct nodes, scalar or square-matrix
    targets of a uniform size, and the kernel to test against."""

    nodes: tuple[complex, ...]
    targets: tuple
    kernel: KernelSpec

    def __post_init__(self):
        nodes = tuple(disk_point(z) for z in self.nodes)
        if not nodes:
            raise InputError("at least one node is required")
        if len(nodes) != len(self.targets):
            raise InputError("nodes and targets must have equal length")
        try:
            arrays = [np.array(t, dtype=complex) for t in self.targets]
        except (TypeError, ValueError) as exc:
            raise InputError(f"targets must be numbers or matrices: {exc}") from exc
        shape = arrays[0].shape
        square = len(shape) == 2 and shape[0] == shape[1]
        if not (shape == () or square) or any(t.shape != shape for t in arrays):
            raise InputError(
                "targets must be all numbers or all square matrices of one size"
            )
        if not np.all(np.isfinite(arrays)):
            raise InputError("targets must be finite")
        targets = tuple(arrays) if shape else tuple(complex(t) for t in arrays)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", targets)

    @property
    def matrix_valued(self) -> bool:
        return isinstance(self.targets[0], np.ndarray)


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    psd: PsdReport
    matrix: HermitianMatrix


def _scalar_problem(nodes, targets, kernel: KernelSpec) -> PickProblem:
    """The problem validated by ``PickProblem``; the one place where
    matrix targets are refused by the scalar-only solvers."""
    problem = PickProblem(nodes, targets, kernel)
    if problem.matrix_valued:
        raise InputError("this operation is defined for scalar targets only")
    return problem


def _check_aliases(points, targets) -> list[int]:
    """Indices of the nodes no earlier node collapses onto, i.e. within
    ``_ALIAS_TOL`` of it under the inner map.  Collapsing nodes must
    carry equal targets: no function of the inner map can tell them
    apart, so otherwise ``AliasedNodes`` is raised."""
    collapsed = set()
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if abs(points[i] - points[j]) <= _ALIAS_TOL:
                if np.max(np.abs(targets[i] - targets[j])) > _ALIAS_TOL:
                    raise AliasedNodes(
                        f"nodes {i} and {j} collapse under the inner map "
                        "but their targets differ"
                    )
                collapsed.add(j)
    return [i for i in range(len(points)) if i not in collapsed]


def _kernel_rows(kernel: KernelSpec, nodes, targets) -> tuple[np.ndarray, list[int]]:
    """Kernel matrix at the nodes, one row per Szegő point, and the
    number of rows each node owns; aliased composed nodes raise."""
    points, counts, _ = _szego_points(kernel, nodes)
    if isinstance(kernel, ComposedInnerKernel):
        _check_aliases(points, targets)
    return szego_matrix(points), counts


def _weighted(targets, counts: list[int], kmat: np.ndarray) -> np.ndarray:
    """Apply the (1 - w_i conj(w_j)) resp. (I - W_i W_j^H) weights, each
    node's target carried by all of its rows; matrix weights are
    tensored onto each scalar entry, row index major.  Scalar weights
    are written into ``kmat``, which the caller hands over."""
    rows = np.repeat(np.arange(len(counts)), counts)
    if not isinstance(targets[0], np.ndarray):
        w = np.array(targets, dtype=complex)[rows]
        wc = w.conj()
        for r0 in range(0, len(w), STRIP_ROWS):
            strip = kmat[r0 : r0 + STRIP_ROWS]
            # weights * kmat, in this operand order: numpy's SIMD complex
            # multiply is not bitwise commutative
            np.multiply(1.0 - np.outer(w[r0 : r0 + STRIP_ROWS], wc), strip, out=strip)
        return kmat
    k = targets[0].shape[0]
    eye = np.eye(k, dtype=complex)
    weights = np.array([[eye - ti @ tj.conj().T for tj in targets] for ti in targets])
    out = weights[rows][:, rows] * kmat[:, :, None, None]
    return out.transpose(0, 2, 1, 3).reshape(k * len(rows), k * len(rows))


def assemble_pick(problem: PickProblem) -> HermitianMatrix:
    """Pick matrix of the problem, for every kernel variant.

    For the composed kernel, nodes that the inner map sends to the same
    point must carry equal targets; otherwise no function of the inner
    map can interpolate and ``AliasedNodes`` is raised.  For the orbit
    kernel the (i, j) block is (1 - w_i conj(w_j)) [K(g(z_i), h(z_j))]
    over the deterministic orbit orderings; for matrix targets each
    scalar entry is tensored with (I - W_i W_j^H), row index major.
    """
    check_distinct(problem.nodes, _NODE_TOL, DuplicateNodes, _COINCIDE)
    kmat, counts = _kernel_rows(problem.kernel, problem.nodes, problem.targets)
    return HermitianMatrix._adopt(_weighted(problem.targets, counts, kmat))


def feasibility(problem: PickProblem, tol: float | None = None) -> FeasibilityReport:
    """Assemble the Pick matrix of the problem and test positivity."""
    mat = assemble_pick(problem)
    return FeasibilityReport(psd=psd_check(mat, tol=tol), matrix=mat)


def pick_norm(nodes, targets, kernel: KernelSpec) -> float:
    """Least c such that [(c^2 - w_i conj(w_j)) K(z_i, z_j)] is positive
    semidefinite: the norm of the multiplication operator compressed to
    the span of the kernel functions at the nodes; scalar targets only.

    c^2 is the largest eigenvalue of the pencil (w w^H) o K - t K, found
    by one eigen-solve on the numerical range of K (``pencil_max``).  c
    is returned only if the positivity check the verdicts use, one
    Cholesky attempt on the matrix at c plus its tolerance, accepts it,
    so a norm <= 1 comes with a feasible verdict.  When the check
    rejects it, target weight sits on directions K annihilates at
    double precision, no norm is certified and ``NumericalError`` is
    raised.
    """
    problem = _scalar_problem(nodes, targets, kernel)
    nodes, targets = problem.nodes, problem.targets
    check_distinct(nodes, _NODE_TOL, DuplicateNodes, _COINCIDE)
    if not any(targets):
        return 0.0
    kmat, counts = _kernel_rows(kernel, nodes, targets)
    w = np.repeat(np.array(targets), counts)
    outer = np.outer(w, w.conj())
    c = math.sqrt(max(pencil_max(kmat, outer * kmat), 0.0))
    if not psd_check(HermitianMatrix._adopt((c * c - outer) * kmat)).is_psd:
        raise NumericalError(
            f"the positivity check rejects the extremal norm {c:.6g}: the "
            "target weight lies on directions the kernel matrix annihilates "
            "at double precision"
        )
    return c


@dataclass(frozen=True)
class SchurInterpolant:
    """Disk interpolant in recursion form.

    ``schur_parameters[k]`` is the value the k-th reduced problem takes
    at its node; evaluation unwinds the recursion with the free
    function at the innermost step fixed to 0.  ``degenerate_rank = r``
    records that the r-th parameter reached the unit circle, so the
    interpolant is the unique finite Blaschke-type solution determined
    by the first r steps.
    """

    nodes: tuple[complex, ...]
    schur_parameters: tuple[complex, ...]
    degenerate_rank: int | None = None

    def __post_init__(self):
        if len(self.nodes) != len(self.schur_parameters):
            raise InputError("one parameter per recursion node is required")
        for rho in self.schur_parameters:
            if abs(rho) > 1.0 + 1e-12:
                raise InputError(
                    f"recursion parameter |rho| = {abs(rho):.17g} exceeds 1"
                )

    def __call__(self, z: complex) -> complex:
        return evaluate_interpolant(self, z)


def evaluate_interpolant(s: SchurInterpolant, z: complex) -> complex:
    """Evaluate the recursion at an interior point; |result| <= 1 up to
    rounding."""
    v = 0j
    for zk, rho in zip(reversed(s.nodes), reversed(s.schur_parameters)):
        u = v * (z - zk) / (1.0 - zk.conjugate() * z)
        v = (u + rho) / (1.0 + rho.conjugate() * u)
    m = abs(v)
    if m > 1.0 + 1e-10:
        v /= m
    return v


def interpolate_disk(nodes, targets) -> SchurInterpolant:
    """Solve the disk problem f(z_j) = w_j with sup-norm at most 1.

    Requires the Szego-kernel Pick matrix to be positive within the
    default tolerance; otherwise raises ``Infeasible``.  The free
    parameter at every undetermined step is 0, which makes the returned
    solution canonical; when the matrix is singular the recursion hits
    a unimodular parameter and the result is the unique finite
    Blaschke-type solution.
    """
    problem = _scalar_problem(nodes, targets, SzegoKernel())
    nodes, targets = problem.nodes, problem.targets
    report = feasibility(problem)
    if not report.psd.is_psd:
        raise Infeasible(
            f"Pick matrix has min eigenvalue {report.psd.min_eigenvalue:.3e}"
        )
    for band in _DEGENERATE_LADDER:
        try:
            s = _schur_recursion(nodes, targets, band)
        except Infeasible:
            continue
        if all(
            abs(evaluate_interpolant(s, z) - w) <= _TARGET_RESIDUAL
            for z, w in zip(nodes, targets)
        ):
            return s
    raise Infeasible(
        "recursion could not reproduce the targets; the data sit on or "
        "beyond the feasibility boundary"
    )


def _schur_recursion(nodes, targets, band: float) -> SchurInterpolant:
    """One pass of the reduction, cutting to the unique boundary
    solution whenever a reduced target comes within ``band`` of the
    unit circle."""
    n = len(nodes)
    ws = list(targets)
    params: list[complex] = []
    degenerate = None
    for k in range(n):
        rho = ws[k]
        r = abs(rho)
        if 1.0 - band <= r <= 1.0 + _BLOWUP_TOL:
            params.append(rho / r)
            degenerate = k + 1
            break
        if r > 1.0:
            raise Infeasible(
                f"reduced target at step {k} has modulus {r:.17g} > 1"
            )
        params.append(rho)
        for j in range(k + 1, n):
            num = (ws[j] - rho) / (1.0 - rho.conjugate() * ws[j])
            den = (nodes[j] - nodes[k]) / (1.0 - nodes[k].conjugate() * nodes[j])
            ws[j] = num / den
    return SchurInterpolant(
        nodes=nodes[: len(params)],
        schur_parameters=tuple(params),
        degenerate_rank=degenerate,
    )


@dataclass(frozen=True)
class ComposedInterpolant:
    """g composed with the m-th power of an inner function: the disk
    solution ``schur`` pulled back through phi = inner^power."""

    schur: SchurInterpolant
    inner: bl.BlaschkeProduct
    power: int

    def __call__(self, z: complex) -> complex:
        return evaluate_composed(self, z)


def evaluate_composed(f: ComposedInterpolant, z: complex) -> complex:
    v, _ = bl.evaluate(f.inner, z)
    return evaluate_interpolant(f.schur, v**f.power)


def interpolate_composed(
    nodes, targets, inner: bl.BlaschkeProduct, power: int
) -> ComposedInterpolant:
    """Interpolate in the span of powers of phi = inner^power.

    Nodes are pushed through phi; nodes that collapse must carry equal
    targets (they are merged), and the resulting disk problem is solved
    by ``interpolate_disk``.  The returned function is g(phi(z)).
    """
    problem = _scalar_problem(nodes, targets, ComposedInnerKernel(inner, power))
    nodes, targets = problem.nodes, problem.targets
    zeta, _, _ = _szego_points(problem.kernel, nodes)
    keep = _check_aliases(zeta, targets)
    rep_pts = [zeta[i] for i in keep]
    rep_ws = [targets[i] for i in keep]
    g = interpolate_disk(tuple(rep_pts), tuple(rep_ws))
    result = ComposedInterpolant(schur=g, inner=inner, power=power)
    for z, w in zip(nodes, targets):
        if abs(evaluate_composed(result, z) - w) > _TARGET_RESIDUAL:
            raise Infeasible("composed interpolant failed to reproduce a target")
    return result


def amenable_average(
    group: GroupPresentation, z: complex, monomial_power: int, terms: int
) -> complex:
    """Symmetric Cesaro average of (g^k(z))^n over |k| <= terms for the
    cyclic group: the concrete invariant-mean projection applied to the
    monomial z^n.  Odd powers average toward 0 and even powers toward 1
    as the window grows, since the iterates of any interior point sweep
    out to the two boundary fixed points.
    """
    if group.kind != "cyclic":
        raise InputError("averaging is defined for the cyclic kind only")
    a = group.a
    if not 0.0 < a < 1.0:
        raise InputError("averaging requires a parameter in (0, 1)")
    z = disk_point(z)
    if monomial_power < 0:
        raise InputError("monomial power must be nonnegative")
    if terms < 0:
        raise InputError("the window size must be nonnegative")
    total = 0j
    for k in range(-terms, terms + 1):
        total += iterate_cyclic(a, k)(z) ** monomial_power
    return total / (2 * terms + 1)
