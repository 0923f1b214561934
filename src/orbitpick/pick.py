"""The interpolation engine.

Feasibility of a bounded-by-one interpolation problem on a reproducing
kernel is decided by positivity of the matrix

    A = [(1 - w_i conj(w_j)) K(z_i, z_j)]      (scalar targets)
    A = [(I - W_i W_j^H)     K(z_i, z_j)]      (matrix targets),

and the extremal multiplier norm on the kernel span is the least c with
[(c^2 - w_i conj(w_j)) K] positive.  K is always a Szegő matrix
(``kernels.szego_matrix``) at the points ``kernels._szego_points``
gives: the nodes, their inner values, or their concatenated truncated
orbits, each node's target carried by all of its rows.  So building a
``PickProblem`` decides every fact of a problem once: it validates each
node, distinct nodes included, computes those points, refuses a node
that owns no row and runs the one alias check.  ``pick_norm`` and the
interpolants build one too (scalar targets only), so they refuse what
``pick-check`` refuses, and one ``_pick_matrix`` builds the Pick matrix
of ``assemble_pick`` and of ``pick_norm``'s check at c.  A scalar one
is written by ``szego_matrix``, mirrored as a Gram matrix is, so
``linalg.HermitianMatrix`` adopts it without a copy and the verdict
factors it where it stands; matrix-target Pick matrices are stored as
their Hermitian part.  Weights that would overflow the matrix raise
``NumericalError`` before it is built.
Positivity at tolerance tol is one Cholesky attempt on A + tol * I
(``linalg.psd_check``); no verdict computes eigenvalues.  c^2 is the
largest eigenvalue of the pencil ((w w^H) o K, K), taken by one
eigen-solve on the numerical range of K and accepted only after that
Cholesky check passes at c; a c the check rejects is reported as a
``NumericalError``.  Both interpolants are built by ``_interpolate``
from the problem's Szegő points, the nodes or their values phi(z_j)
under an inner function phi, so a composed problem is the disk problem
at those points composed back, with the verdict ``feasibility`` gives:
one Pick matrix and its Cholesky verdict, one pass of Schur's recursion
in generator form (Kailath and Sayed, SIAM Review 37, 1995), which
multiplies by each Blaschke factor where the classical form divides by
it and amplifies rounding, and one residual check at every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    szego,
    szego_matrix,
)
from .linalg import HermitianMatrix, PsdReport, pencil_max, psd_check
from .mobius import _complex, _denominator_parts, _quotient, disk_point, iterate_images
from .orbits import GroupPresentation

_COINCIDE = "nodes {i} and {j} coincide"
_ALIAS_TOL = 1e-10
_TARGET_RESIDUAL = 1e-8


@dataclass(frozen=True, eq=False)
class PickProblem:
    """Interpolation data: distinct nodes, scalar or square-matrix
    targets of a uniform size, and the kernel to test against.  Building
    one validates each node once and keeps in ``_rows`` the Szegő points
    of the kernel, the rows each node owns and the nodes no earlier node
    aliases, refusing a node that owns no row, a composed node too close
    to the circle and aliased nodes whose targets differ."""

    nodes: tuple[complex, ...]
    targets: tuple
    kernel: KernelSpec
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(check_distinct(self.nodes, DuplicateNodes, _COINCIDE))
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
        points, counts, _ = _szego_points(self.kernel, nodes)
        keep = list(range(len(nodes)))
        if isinstance(self.kernel, ComposedInnerKernel):
            keep = _check_aliases(points, targets)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "_rows", (points, counts, keep))

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


def _check_finite(targets, points, scale: float) -> None:
    """Raise ``NumericalError`` unless the matrix [(scale - w_i conj(w_j))
    K_ij], resp. its blocks (scale I - W_i W_j^H) K_ij, is finite for
    the Szegő matrix K at ``points``, the complex products' partial sums
    included.  |K_ij| <= max K_ii = szego(p_i, p_i) for a Gram matrix,
    so no matrix need be built first."""
    if isinstance(targets[0], np.ndarray):
        k, m = targets[0].shape[0], max(float(np.abs(t).max()) for t in targets)
    else:
        k, m = 1, max(map(abs, targets))
    kmax = max((szego(p, p).real for p in points), default=0.0)
    # the factor 2 leaves room for rounding
    if not math.isfinite(2.0 * (scale + k * m * m) * kmax):
        raise NumericalError(
            f"the weighted kernel matrix overflows: targets of modulus {m:.3g} "
            f"against kernel entries up to {kmax:.3g}"
        )


def _pick_matrix(targets, points, counts: list[int], scale: float) -> HermitianMatrix:
    """[(scale - w_i conj(w_j)) K_ij] for the Szegő matrix K at
    ``points``, each node's target carried by all of its rows; matrix
    targets take the blocks (scale I - W_i W_j^H) K_ij, row index major.
    An overflow raises ``NumericalError`` before the matrix is built."""
    _check_finite(targets, points, scale)
    if not isinstance(targets[0], np.ndarray):
        w = np.repeat(np.array(targets), counts)
        return HermitianMatrix._adopt(szego_matrix(points, w, scale))
    rows = np.repeat(np.arange(len(counts)), counts)
    k = targets[0].shape[0]
    eye = scale * np.eye(k, dtype=complex)
    weights = np.array([[eye - ti @ tj.conj().T for tj in targets] for ti in targets])
    out = weights[rows][:, rows] * szego_matrix(points)[:, :, None, None]
    return HermitianMatrix(out.transpose(0, 2, 1, 3).reshape(k * len(rows), -1))


def assemble_pick(problem: PickProblem) -> HermitianMatrix:
    """Pick matrix of the problem at its Szegő points, for every kernel
    variant; aliased composed nodes keep their rows.  For the orbit
    kernel the (i, j) block is (1 - w_i conj(w_j)) [K(g(z_i), h(z_j))]
    over the deterministic orbit orderings; for matrix targets each
    scalar entry is tensored with (I - W_i W_j^H), row index major.
    """
    points, counts, _ = problem._rows
    return _pick_matrix(problem.targets, points, counts, 1.0)


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
    targets = problem.targets
    if not any(targets):
        return 0.0
    points, counts, _ = problem._rows
    _check_finite(targets, points, 0.0)
    w = np.repeat(np.array(targets), counts)
    kmat = szego_matrix(points)
    b = HermitianMatrix(np.outer(w, w.conj()) * kmat)
    c = math.sqrt(max(pencil_max(HermitianMatrix._adopt(kmat), b), 0.0))
    del kmat, b
    if not psd_check(_pick_matrix(targets, points, counts, c * c)).is_psd:
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


def interpolant_values(s: SchurInterpolant, zs) -> np.ndarray:
    """The recursion of ``evaluate_interpolant`` at every point, in the
    flat order of ``zs``, without its clamp: each value equals the
    scalar call's bit for bit wherever the scalar call does not pull it
    back onto the circle, so a grid check sees what the recursion
    computed.

    The recursion unwinds once in numpy across the points, with the
    scalar call's complex operations run in real arithmetic in Python's
    order.
    """
    z = np.asarray(zs, dtype=complex).reshape(-1)
    zr, zi = z.real, z.imag
    vr, vi = np.zeros(z.size), np.zeros(z.size)  # v = 0j
    for zk, rho in zip(reversed(s.nodes), reversed(s.schur_parameters)):
        # u = v * (z - zk) / (1.0 - zk.conjugate() * z)
        dr, di = zr - zk.real, zi - zk.imag
        ur, ui = _quotient(vr * dr - vi * di, vr * di + vi * dr,
                           *_denominator_parts(zk.real, zk.imag, zr, zi))
        # v = (u + rho) / (1.0 + rho.conjugate() * u)
        cr = -rho.imag
        vr, vi = _quotient(
            ur + rho.real, ui + rho.imag,
            1.0 + (rho.real * ur - cr * ui), 0.0 + (rho.real * ui + cr * ur),
        )
    return _complex(vr, vi)


def interpolate_disk(nodes, targets) -> SchurInterpolant:
    """Solve the disk problem f(z_j) = w_j with sup-norm at most 1.

    Built by ``_interpolate``: the Szegő-kernel Pick matrix that
    ``feasibility`` factors must be positive within the default
    tolerance, otherwise ``Infeasible`` is raised, and one pass of
    ``_schur_recursion`` (generator form) builds the interpolant, with
    the free parameter 0 at every undetermined step; when the matrix is
    singular it reaches a unimodular parameter and the result is the
    unique finite Blaschke-type solution.
    """
    return _interpolate(_scalar_problem(nodes, targets, SzegoKernel()))


def _interpolate(problem: PickProblem) -> SchurInterpolant:
    """The disk interpolant g with g(p_j) = w_j at the problem's Szegő
    points p_j, if ``feasibility`` accepts the problem, the recursion run
    on the nodes no earlier node aliases."""
    targets = problem.targets
    points, _, keep = problem._rows
    psd = feasibility(problem).psd
    if not psd.is_psd:
        raise Infeasible(f"Pick matrix has min eigenvalue {psd.min_eigenvalue:.3e}")
    s = _schur_recursion(tuple(points[i] for i in keep), tuple(targets[i] for i in keep))
    residuals = (abs(evaluate_interpolant(s, p) - w) for p, w in zip(points, targets))
    if any(r > _TARGET_RESIDUAL for r in residuals):
        raise Infeasible(
            "recursion could not reproduce the targets; the data sit on or "
            "beyond the feasibility boundary"
        )
    return s


def _schur_recursion(nodes, targets) -> SchurInterpolant:
    """Schur's reduction in generator form, in node order: node j
    carries (a_j, b_j), initially (1, w_j), with reduced target
    b_j / a_j.  Step k takes rho = b_k / a_k and maps each later pair to
    ((a_j - conj(rho) b_j) beta_k(z_j), b_j - rho a_j) / sqrt(1 - |rho|^2),
    with beta_k(z) = (z - z_k) / (1 - conj(z_k) z).  The first pair with
    |b_k| >= |a_k| ends the pass with the unimodular parameter of phase
    b_k conj(a_k): the boundary solution of rank k + 1."""
    pairs = [(1.0 + 0j, w) for w in targets]
    params: list[complex] = []
    degenerate = None
    for k, zk in enumerate(nodes):
        a, b = pairs[k]
        ma, mb = abs(a), abs(b)
        if mb >= ma:
            p = b * a.conjugate()
            # p is 0 where a_j - conj(rho) b_j rounded to 0; any phase will do
            params.append(p / abs(p) if p else 1.0 + 0j)
            degenerate = k + 1
            break
        rho = b / a
        params.append(rho)
        r = mb / ma  # < 1, so 1 - |rho|^2 rounds to a positive value
        scale = math.sqrt((1.0 - r) * (1.0 + r))
        for j in range(k + 1, len(nodes)):
            aj, bj = pairs[j]
            beta = (nodes[j] - zk) / (1.0 - zk.conjugate() * nodes[j])
            pairs[j] = (
                (aj - rho.conjugate() * bj) / scale * beta,
                (bj - rho * aj) / scale,
            )
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


def composed_values(f: ComposedInterpolant, zs) -> np.ndarray:
    """``evaluate_composed`` at every point, in the flat order of ``zs``,
    without the recursion's clamp: each value equals the scalar call's
    bit for bit wherever the scalar call does not clamp.  The powers
    stay Python's, which turns an imaginary -0.0 into +0.0 even at
    power 1."""
    values, _ = bl.evaluate_many(f.inner, zs)
    return interpolant_values(f.schur, [v**f.power for v in values.tolist()])


def interpolate_composed(
    nodes, targets, inner: bl.BlaschkeProduct, power: int
) -> ComposedInterpolant:
    """Interpolate in the span of powers of phi = inner^power.

    ``_interpolate`` builds the disk interpolant g at the points
    phi(z_j).  Nodes that collapse under phi must carry equal targets;
    only the first of each class enters the recursion, but the verdict
    is the composed Pick matrix's, aliased rows included.  The returned
    function is g(phi(z)), checked against every target.
    """
    problem = _scalar_problem(nodes, targets, ComposedInnerKernel(inner, power))
    return ComposedInterpolant(schur=_interpolate(problem), inner=inner, power=power)


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
    for w in iterate_images(a, np.arange(-terms, terms + 1), z).tolist():
        total += w**monomial_power
    return total / (2 * terms + 1)
