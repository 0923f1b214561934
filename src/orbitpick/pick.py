"""The interpolation engine.

Feasibility of a bounded-by-one interpolation problem on a reproducing
kernel is decided by positivity of the matrix

    A = [(1 - w_i conj(w_j)) K(z_i, z_j)]      (scalar targets)
    A = [(I - W_i W_j^H)     K(z_i, z_j)]      (matrix targets),

and the extremal multiplier norm on the kernel span is the least c with
[(c^2 - w_i conj(w_j)) K] positive.  c^2 is the largest eigenvalue of
the pencil ((w w^H) o K, K), taken by one eigen-solve on the numerical
range of K and accepted only after the positivity check above passes
at c; bisection on that check is the fallback.  Solutions on
the disk itself are constructed by the classical Schur recursion; a
problem posed on the span of powers of an inner function phi reduces to
a disk problem at the points phi(z_j)^m and composes back.
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
    NoConvergence,
    UnsupportedVariant,
)
from .kernels import (
    ComposedInnerKernel,
    KernelSpec,
    OrbitGramKernel,
    SzegoKernel,
    check_distinct,
    kernel_eval,
)
from .linalg import HermitianMatrix, PsdReport, pencil_max, psd_check
from .mobius import disk_point, iterate_cyclic
from .orbits import GroupPresentation

_NODE_TOL = 1e-10
_COINCIDE = "nodes {i} and {j} coincide"
_ALIAS_TOL = 1e-10
_TARGET_RESIDUAL = 1e-8
_NORM_WIDTH = 1e-10  # relative width of the fallback bisection in pick_norm

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
        targets = tuple(self.targets)
        if self.is_matrix_valued(targets):
            mats = tuple(np.array(t, dtype=complex) for t in targets)
            k = mats[0].shape[0]
            for t in mats:
                if t.ndim != 2 or t.shape != (k, k):
                    raise InputError("matrix targets must be square, uniform size")
                if not np.all(np.isfinite(t.real)) or not np.all(np.isfinite(t.imag)):
                    raise InputError("matrix targets must be finite")
            targets = mats
        else:
            targets = tuple(complex(t) for t in targets)
            for t in targets:
                if not (math.isfinite(t.real) and math.isfinite(t.imag)):
                    raise InputError("targets must be finite")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", targets)

    @staticmethod
    def is_matrix_valued(targets) -> bool:
        return bool(targets) and not isinstance(targets[0], (complex, float, int))

    @property
    def matrix_valued(self) -> bool:
        return self.is_matrix_valued(self.targets)


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    psd: PsdReport
    matrix: HermitianMatrix
    pick_norm: float | None = None


def _target_gap(problem: PickProblem, i: int, j: int) -> float:
    if problem.matrix_valued:
        return float(np.max(np.abs(problem.targets[i] - problem.targets[j])))
    return abs(problem.targets[i] - problem.targets[j])


def assemble_pick(problem: PickProblem) -> HermitianMatrix:
    """Pick matrix of the problem for a scalar-evaluable kernel.

    For the composed kernel, nodes that the inner map sends to the same
    point must carry equal targets; otherwise no function of the inner
    map can interpolate and ``AliasedNodes`` is raised.
    """
    check_distinct(problem.nodes, _NODE_TOL, DuplicateNodes, _COINCIDE)
    if isinstance(problem.kernel, OrbitGramKernel):
        raise UnsupportedVariant(
            "orbit kernels are assembled by assemble_orbit_pick"
        )
    if isinstance(problem.kernel, ComposedInnerKernel):
        vals = [problem.kernel.value(z) for z in problem.nodes]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if (
                    abs(vals[i] - vals[j]) <= _ALIAS_TOL
                    and _target_gap(problem, i, j) > _ALIAS_TOL
                ):
                    raise AliasedNodes(
                        f"nodes {i} and {j} collapse under the inner map "
                        "but their targets differ"
                    )
    return HermitianMatrix(
        _weighted(problem, _kernel_matrix(problem.kernel, problem.nodes))
    )


def _kernel_matrix(kernel: KernelSpec, nodes) -> np.ndarray:
    n = len(nodes)
    kmat = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            v = kernel_eval(kernel, nodes[i], nodes[j])
            kmat[i, j] = v
            kmat[j, i] = v.conjugate()
    return kmat


def _weighted(problem: PickProblem, kmat: np.ndarray) -> np.ndarray:
    """Apply the (1 - w_i conj(w_j)) resp. (I - W_i W_j^H) weights."""
    n = len(problem.nodes)
    if not problem.matrix_valued:
        w = np.array(problem.targets, dtype=complex)
        return (1.0 - np.outer(w, w.conj())) * kmat
    k = problem.targets[0].shape[0]
    eye = np.eye(k, dtype=complex)
    out = np.empty((n * k, n * k), dtype=complex)
    for i in range(n):
        for j in range(n):
            block = (eye - problem.targets[i] @ problem.targets[j].conj().T) * kmat[
                i, j
            ]
            out[i * k : (i + 1) * k, j * k : (j + 1) * k] = block
    return out


def assemble_orbit_pick(
    problem: PickProblem, group: GroupPresentation, depth: int
) -> HermitianMatrix:
    """Pick matrix over the truncated orbit of every node.

    The (i, j) block is (1 - w_i conj(w_j)) [K(g(z_i), h(z_j))] over the
    deterministic orbit orderings; for matrix targets each scalar orbit
    entry is tensored with (I - W_i W_j^H), orbit index major.
    """
    check_distinct(problem.nodes, _NODE_TOL, DuplicateNodes, _COINCIDE)
    n = len(problem.nodes)
    blocks = _orbit_blocks(group, depth, problem.nodes)
    if not problem.matrix_valued:
        w = problem.targets
        rows = [
            np.hstack(
                [(1.0 - w[i] * w[j].conjugate()) * blocks[i][j] for j in range(n)]
            )
            for i in range(n)
        ]
        return HermitianMatrix(np.vstack(rows))
    k = problem.targets[0].shape[0]
    eye = np.eye(k, dtype=complex)
    rows = [
        np.hstack(
            [
                np.kron(
                    blocks[i][j],
                    eye - problem.targets[i] @ problem.targets[j].conj().T,
                )
                for j in range(n)
            ]
        )
        for i in range(n)
    ]
    return HermitianMatrix(np.vstack(rows))


def _orbit_blocks(group: GroupPresentation, depth: int, nodes):
    """All pairwise orbit kernel blocks, enumerating each node's orbit
    once; identical values to per-pair ``orbit_block`` calls."""
    from .kernels import _orbit_points

    n = len(nodes)
    pts = [
        np.array(_orbit_points(group, depth, z), dtype=complex) for z in nodes
    ]
    blocks = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            pij = 1.0 / (
                1.0 - pts[j].conjugate().reshape(1, -1) * pts[i].reshape(-1, 1)
            )
            blocks[i][j] = pij
            if i != j:
                blocks[j][i] = pij.conj().T
    return blocks


def feasibility(problem: PickProblem, tol: float | None = None) -> FeasibilityReport:
    """Assemble the Pick matrix of the problem and test positivity."""
    if isinstance(problem.kernel, OrbitGramKernel):
        mat = assemble_orbit_pick(
            problem, problem.kernel.group, problem.kernel.depth
        )
    else:
        mat = assemble_pick(problem)
    return FeasibilityReport(psd=psd_check(mat, tol=tol), matrix=mat)


def pick_norm(nodes, targets, kernel: KernelSpec) -> float:
    """Least c such that [(c^2 - w_i conj(w_j)) K(z_i, z_j)] is positive
    semidefinite: the norm of the multiplication operator compressed to
    the span of the kernel functions at the nodes; scalar targets only.

    c^2 is the largest eigenvalue of the pencil (w w^H) o K - t K, found
    by one eigen-solve on the numerical range of K (``pencil_max``).  c
    is returned only if the positivity check the verdicts use accepts
    it, so a norm <= 1 comes with a feasible verdict.  When the
    check rejects it, target weight sits on directions K annihilates to
    working precision, and the least accepted c is found by bisection
    to relative width 1e-10 instead.
    """
    nodes = tuple(disk_point(z) for z in nodes)
    targets = tuple(complex(w) for w in targets)
    if len(nodes) != len(targets) or not nodes:
        raise InputError("nodes and targets must be nonempty, equal length")
    check_distinct(nodes, _NODE_TOL, DuplicateNodes, _COINCIDE)
    if isinstance(kernel, ComposedInnerKernel):
        vals = [kernel.value(z) for z in nodes]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if (
                    abs(vals[i] - vals[j]) <= _ALIAS_TOL
                    and abs(targets[i] - targets[j]) > _ALIAS_TOL
                ):
                    raise AliasedNodes(
                        f"nodes {i} and {j} collapse under the inner map but "
                        "their targets differ; no finite scale interpolates"
                    )
    wmax = max(abs(w) for w in targets)
    if wmax == 0.0:
        return 0.0
    if isinstance(kernel, OrbitGramKernel):
        # one row per orbit point, each carrying its node's target
        blocks = _orbit_blocks(kernel.group, kernel.depth, nodes)
        kmat = np.block(blocks)
        w = np.repeat(np.array(targets), [row[0].shape[0] for row in blocks])
    else:
        kmat = _kernel_matrix(kernel, nodes)
        w = np.array(targets)
    outer = np.outer(w, w.conj())

    def is_psd(c: float) -> bool:
        return psd_check(HermitianMatrix((c * c - outer) * kmat)).is_psd

    c = math.sqrt(max(pencil_max(kmat, outer * kmat), 0.0))
    if is_psd(c):
        return c
    lo = wmax * 1e-6
    hi = wmax * len(nodes)
    grow = 0
    while not is_psd(hi):
        hi *= 2.0
        grow += 1
        if grow > 60:
            raise NoConvergence(
                "no feasible scale found while growing the bracket; the "
                "data may identify orbit-equivalent nodes with different "
                "targets"
            )
    while hi - lo > _NORM_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        if is_psd(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
    nodes = tuple(disk_point(z) for z in nodes)
    targets = tuple(complex(w) for w in targets)
    if len(nodes) != len(targets) or not nodes:
        raise InputError("nodes and targets must be nonempty, equal length")
    problem = PickProblem(nodes, targets, SzegoKernel())
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
    nodes = tuple(disk_point(z) for z in nodes)
    targets = tuple(complex(w) for w in targets)
    if len(nodes) != len(targets) or not nodes:
        raise InputError("nodes and targets must be nonempty, equal length")
    if power < 1:
        raise InputError("power must be at least 1")
    spec = ComposedInnerKernel(inner, power)
    zeta = [spec.value(z) for z in nodes]
    rep_pts: list[complex] = []
    rep_ws: list[complex] = []
    for i, (x, w) in enumerate(zip(zeta, targets)):
        merged = False
        for j, y in enumerate(rep_pts):
            if abs(x - y) <= _ALIAS_TOL:
                if abs(w - rep_ws[j]) > _ALIAS_TOL:
                    raise AliasedNodes(
                        f"node {i} collapses onto an earlier node under the "
                        "inner map but carries a different target"
                    )
                merged = True
                break
        if not merged:
            rep_pts.append(x)
            rep_ws.append(w)
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
