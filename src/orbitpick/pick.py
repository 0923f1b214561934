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
that owns no row, runs the one alias check and refuses a Pick matrix of
more than ``MAX_DIMENSION`` rows; it repeats each target over its node's
rows and states the overflow bound once.  ``pick_norm`` and the
interpolants build one too (scalar targets only), so they refuse what
``pick-check`` refuses, before any matrix is built.  ``assemble_pick``
builds the Pick matrix; a scalar one is written by ``szego_matrix``,
mirrored as a Gram matrix is, and a matrix-target one is written block
by block into one array and stored as its Hermitian part.  Weights that
would overflow raise ``NumericalError`` before anything is built.

Every scalar verdict goes through one entry, ``_pick_verdict(problem,
c, tol)``: positivity of the Pick matrix P at scale c^2, as one
Cholesky attempt on P + tol * I would answer it, min eigenvalue(P) >=
-tol.  ``feasibility`` asks it at c = 1, ``pick_norm`` at its norm c,
and the interpolants through ``feasibility``.  It decides without P:
P - Z P Z^H = G J G^H for Z = diag(points), so the generalized Schur
algorithm with symmetric pivoting runs on the two-column generator
G = [c, w], in O(N) memory and O(rN) time for r pivots, and certifies
either answer from G.  A P it cannot decide that way, within about tol
of singular, is assembled at c^2 by the builder ``assemble_pick`` uses
and factored by ``linalg.psd_check``, and so are matrix-target Pick
matrices, the one exception, since the recursion has no block form
here.  A problem decides when it is built whether each node's rows are
closed under negation, exactly in floating point, as a z2z2 orbit cut
at the kernel radius is (``PickProblem._folded``).  Then the half-turn
folds the verdicts and the pencil: over the pairs +-p, K = [[A, C],
[C, A]], and the basis [[I, I], [I, -I]] / sqrt(2) splits it into the
even block ((w w^H) o S, S), S the Szegő matrix at the squares p^2,
and an odd block congruent to it by diag(p), so both run at half size
on the squares.  c^2 is the largest eigenvalue of the
pencil ((w w^H) o K, K), taken by one eigen-solve on the numerical
range of K and accepted only after the verdict at c passes; a c it
rejects is reported as a ``NumericalError``.  Both interpolants are
built by ``_interpolate`` from the problem's Szegő points, the nodes or
their values phi(z_j) under an inner function phi, so a composed
problem is the disk problem at those points composed back, with the
verdict ``feasibility`` gives, one pass of Schur's recursion in
generator form (Kailath and Sayed, SIAM Review 37, 1995), in node
order, which multiplies by each Blaschke factor where the classical
form divides by it and amplifies rounding, and one residual check at
every point.  ``interpolant_values`` unwinds the recursion across many
points in numpy, with Python's complex product and quotient in real
arithmetic as ``mobius._product`` and ``mobius._quotient`` state them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

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
    _negation_squares,
    _szego_block,
    _szego_points,
    check_distinct,
    szego_matrix,
)
from .linalg import (
    HermitianMatrix,
    PsdReport,
    _anchored_tolerance,
    _check_dimension,
    _checked_tolerance,
    pencil_max,
    psd_check,
)
from .mobius import _complex, _denominator_parts, _product, _quotient, disk_point, iterate_images
from .orbits import GroupPresentation

_ALIAS_TOL = 1e-10
_TARGET_RESIDUAL = 1e-8


@dataclass(frozen=True, eq=False)
class PickProblem:
    """Interpolation data: distinct nodes, scalar or k x k matrix
    targets of a uniform size, and the kernel to test against.  Building
    one is the one place a problem is refused and its row facts stated.
    It validates each node once and keeps in ``_rows`` the Szegő points
    of the kernel, the rows each node owns and the nodes no earlier node
    aliases, refusing a node that owns no row, a composed node too close
    to the circle, aliased nodes whose targets differ and, after those, a
    Pick matrix of more than ``MAX_DIMENSION`` rows (k per Szegő point).
    ``_folded`` keeps the points and rows per node the verdicts and
    ``pick_norm``'s pencil run on: the squares of the rows above the
    imaginary axis when ``_negation_squares`` pairs every node's rows as
    +-p, else _rows'.  ``_row_targets`` holds each node's target repeated
    over its rows, for _rows and for _folded, and ``_overflow`` the
    terms of ``_check_finite``'s bound: k m^2, m the largest target
    modulus, and max K_ii."""

    nodes: tuple[complex, ...]
    targets: tuple
    kernel: KernelSpec
    _rows: tuple = field(init=False, repr=False, compare=False)
    _folded: tuple = field(init=False, repr=False, compare=False)
    _row_targets: tuple = field(init=False, repr=False, compare=False)
    _overflow: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(check_distinct(self.nodes, DuplicateNodes))
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
            keep = _check_aliases(points.tolist(), targets)
        k = shape[0] if shape else 1
        _check_dimension(k * len(points))
        squares = _negation_squares(points, counts)
        folded = (points, counts) if squares is None else (squares, [c // 2 for c in counts])
        w = np.array(arrays)
        rows = np.repeat(w, counts, axis=0)
        half = rows if squares is None else np.repeat(w, folded[1], axis=0)
        m = max(float(np.abs(t).max()) for t in arrays) if shape else max(map(abs, targets))
        kmax = 1.0 / (1.0 - float(_sq(points).max()))  # bit for bit the largest szego(p, p)
        facts = dict(nodes=nodes, targets=targets, _rows=(points, counts, keep), _folded=folded,
                     _row_targets=(rows, half), _overflow=(k * m * m, m, kmax))
        for name, value in facts.items():
            object.__setattr__(self, name, value)

    @property
    def matrix_valued(self) -> bool:
        return isinstance(self.targets[0], np.ndarray)


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """A verdict, the Pick matrix it is about and, for scalar targets,
    ``rank``: the number of pivots ``_pick_verdict`` took before it
    decided or left the verdict to ``psd_check`` (None for matrix
    targets).  For a matrix that is positive within the tolerance it is
    the matrix's numerical rank at that tolerance.  Where the rows fold
    (``_pick_verdict``), it counts the pivots on the half-size P' at
    tol / 2, so a positive verdict reports the numerical rank of P',
    half the Pick matrix's rank in exact arithmetic."""

    psd: PsdReport
    matrix: HermitianMatrix
    rank: int | None = None


class _PickMatrix(HermitianMatrix):
    """The Pick matrix of a scalar problem at scale c^2: its dimension is
    the row count of the problem's Szegő points, and its entries are
    assembled by ``_assembled`` on first read and kept."""

    def __init__(self, problem: PickProblem, scale: float):
        self._problem, self._scale = problem, scale

    @property
    def n(self) -> int:
        return len(self._problem._rows[0])

    @cached_property
    def entries(self) -> np.ndarray:
        return _assembled(self._problem, self._scale).entries


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


def _check_finite(problem: PickProblem, scale: float) -> None:
    """Raise ``NumericalError`` unless the problem's matrix [(scale -
    w_i conj(w_j)) K_ij], resp. its blocks (scale I - W_i W_j^H) K_ij,
    is finite, the complex products' partial sums included.  |K_ij| <=
    max K_ii = 1 / (1 - max |p_i|^2) for a Gram matrix, so the terms
    ``PickProblem._overflow`` states bound it and no matrix need be
    built first."""
    km2, m, kmax = problem._overflow
    # the factor 2 leaves room for rounding
    if not math.isfinite(2.0 * (scale + km2) * kmax):
        raise NumericalError(
            f"the weighted kernel matrix overflows: targets of modulus {m:.3g} "
            f"against kernel entries up to {kmax:.3g}"
        )


def assemble_pick(problem: PickProblem) -> HermitianMatrix:
    """Pick matrix of the problem at its Szegő points, for every kernel
    variant; aliased composed nodes keep their rows.  For the orbit
    kernel the (i, j) block is (1 - w_i conj(w_j)) [K(g(z_i), h(z_j))]
    over the deterministic orbit orderings; for matrix targets each
    scalar entry is tensored with (I - W_i W_j^H), row index major, and
    the matrix is stored as its Hermitian part.  An overflow raises
    ``NumericalError`` before the matrix is built."""
    return _assembled(problem, 1.0)


def _assembled(problem: PickProblem, scale: float) -> HermitianMatrix:
    """``assemble_pick``'s matrix at scale c^2 = ``scale``: entries
    (scale - w_i conj(w_j)) K_ij, resp. blocks (scale I - W_i W_j^H) K_ij."""
    targets = problem.targets
    points, counts, _ = problem._rows
    _check_finite(problem, scale)
    if not problem.matrix_valued:
        return HermitianMatrix._adopt(szego_matrix(points, problem._row_targets[0], scale))
    # each node's block of rows written in place: no N x N temporary
    k, n = targets[0].shape[0], len(points)
    eye = scale * np.eye(k, dtype=complex)
    kmat = szego_matrix(points)
    out = np.empty((n, k, n, k), dtype=complex)
    ends = np.cumsum(counts).tolist()
    rows = [slice(e - c, e) for e, c in zip(ends, counts)]
    for ti, ri in zip(targets, rows):
        for tj, rj in zip(targets, rows):
            for (r, s), weight in np.ndenumerate(eye - ti @ tj.conj().T):
                # weight * kernel, in this operand order: numpy's SIMD
                # complex multiply is not bitwise commutative
                np.multiply(weight, kmat[ri, rj], out=out[ri, r, rj, s])
    del kmat
    return HermitianMatrix._own(out.reshape(k * n, k * n))


def feasibility(problem: PickProblem, tol: float | None = None) -> FeasibilityReport:
    """Positivity of the problem's Pick matrix at tolerance ``tol``
    (default 1e-10 * (1 + max diagonal)): ``_pick_verdict`` at c = 1.
    A scalar verdict builds no matrix unless the recursion leaves it
    undecided; the report's matrix is assembled when its entries or its
    smallest eigenvalue are read."""
    return _pick_verdict(problem, 1.0, tol)


def _pick_verdict(problem: PickProblem, c: float, tol: float | None) -> FeasibilityReport:
    """The verdict on the problem's Pick matrix at scale c^2, for scalar
    targets P = [(c^2 - w_i conj(w_j)) / (1 - p_i conj(p_j))] at its
    Szegő points p, each node's target w carried by all of its rows: the
    one entry through which ``feasibility``, ``pick_norm``'s check at c
    and the interpolants decide.  A scalar P is decided on its generator
    (generalized Schur algorithm: Kailath and Sayed, SIAM Review 37,
    1995; symmetric pivoting, Gu, SIMAX 19, 1998), and the report's
    matrix is assembled only when its entries or its smallest eigenvalue
    are read.  Where the generator cannot decide, and for matrix
    targets, since the recursion has no block form here, the matrix is
    assembled at c^2 by the builder ``assemble_pick`` uses and factored
    by ``linalg.psd_check``, one Cholesky attempt.

    The recursion runs on the problem's ``_folded`` rows.  When every
    node's rows pair as +-p, P is unitarily similar to diag(2 P',
    D 2 P' D^H), P' the same matrix at the squares p^2 and D = diag(p),
    and the recursion runs on P' at tol / 2.  That is exact: P + tol I
    >= 0 iff 2 P' + tol I >= 0, which gives D 2 P' D^H + tol I >=
    tol (I - D D^H) >= 0, as |p| < 1.

    P - Z P Z^H = G J G^H with Z = diag(p), J = diag(1, -1) and the
    generator G = [c, w], and each step works on G alone in O(N).  It
    reads the diagonal of the current Schur complement S, d_i = (|g_i1|^2
    - |g_i2|^2) / (1 - |p_i|^2).  Both verdicts certify the answer of a
    Cholesky attempt on P + tol I, min eigenvalue(P) >= -tol:
    - infeasible once some d_i < -tol u_i^2: the vector x_i that
      eliminates the pivots from row i has x_i^H P x_i = d_i, and u_i
      bounds its norm;
    - feasible once max d <= tol and ``_negative_part`` bounds
      -min eigenvalue(S), and so -min eigenvalue(P), by tol, or once
      every row is a pivot.
    Any other d_i < -tol, or a stop the bound does not certify, leaves
    the verdict undecided: a matrix within about tol of singular, as at
    the extremal norm, whose answer lies in entries the diagonal does
    not show.  Otherwise the step pivots on the largest d_k: the
    hyperbolic rotation with rho = g_k2 / g_k1 zeroes g_k2 (in the mixed
    form of Bojanczyk, Brent, van Dooren and de Hoog, SISSC 8, 1987),
    column 1 is multiplied by (p - p_k) / (1 - conj(p_k) p) and row k is
    dropped.  The report's ``rank`` counts the pivots taken.

    tol defaults to 1e-10 * (1 + max diagonal) of P, folded or not, with
    the diagonal computed from all the rows by ``_szego_block``, as
    ``szego_matrix`` writes it, so it is the tolerance ``psd_check``
    would use, bit for bit.  The entry only reads the facts the problem
    stated when it was built, which refused a P of more than
    ``MAX_DIMENSION`` rows: the per-row targets and the overflow bound.
    Targets whose weights would overflow raise ``NumericalError`` first,
    and so does a generator that overflows on the way.
    """
    is_psd = rank = None
    if not problem.matrix_valued:  # the recursion has no block form here
        _check_finite(problem, c * c)
        points, p = problem._rows[0], problem._folded[0]
        w, b = problem._row_targets
        if tol is None:
            k = _szego_block(points, points)  # the diagonal szego_matrix writes
            tol = _anchored_tolerance(((c * c - w * np.conj(w)) * np.conj(k)).real)
        tol = _checked_tolerance(tol)
        q = 1.0 - _sq(p)  # the real part of szego's denominator 1 - conj(p) p
        step_tol = tol if p is points else 0.5 * tol
        try:
            with np.errstate(over="raise", invalid="raise"):
                is_psd, rank = _schur_steps(c, b.copy(), p.copy(), q, step_tol)
        except FloatingPointError as exc:
            raise NumericalError(f"the Pick matrix's generator overflows: {exc}") from exc
    if is_psd is None:
        mat = _assembled(problem, c * c)
        return FeasibilityReport(psd_check(mat, tol=tol), mat, rank)
    mat = _PickMatrix(problem, c * c)
    return FeasibilityReport(PsdReport._deferred(mat, is_psd, tol), mat, rank)


def _schur_steps(c: float, b, p, q, tol: float):
    """(is_psd, rank) of ``_pick_verdict``'s recursion on the generator
    [c, b] at the points p with q = 1 - |p|^2; b, p and q are
    overwritten."""
    a = np.full(p.size, c, dtype=complex)
    n = a.size
    u = np.ones(n)
    for rank in range(n):
        d = _sq(a)
        d -= _sq(b)
        d /= q
        k = d.argmax()
        dk, dmin = float(d[k]), float(d[d.argmin()])
        if dmin < -tol and (d < -tol * u * u).any():
            return False, rank
        if dk <= tol:
            return _negative_part(a, b, q) <= tol or None, rank
        if dmin < -tol:
            return None, rank
        ak, bk, pk, qk = complex(a[k]), complex(b[k]), complex(p[k]), float(q[k])
        s = math.sqrt(dk * qk) / abs(ak)  # sqrt(1 - |rho|^2)
        f = math.sqrt(qk / dk) * u[k]
        last = a.size - 1  # row k is dropped: the last row takes its place
        for v in (a, b, p, q, u):
            v[k] = v[last]
        a, b, p, q, u = a[:last], b[:last], p[:last], q[:last], u[:last]
        rho = bk / ak
        a -= b * rho.conjugate()
        a *= 1.0 / s
        b *= s
        b -= a * rho
        beta = p * -pk.conjugate()
        beta += 1.0
        # x_i - conj(S_ik) / d_k x_k eliminates row i from here on, and
        # |S_ik| = |a_i| sqrt(d_k q_k) / |beta_i| once row k reads (., 0)
        t = np.abs(a)
        t /= np.abs(beta)
        t *= f
        u += t
        t = p - pk
        t /= beta
        a *= t
    return True, n


def _sq(v: np.ndarray) -> np.ndarray:
    return v.real * v.real + v.imag * v.imag


def _negative_part(a, b, q) -> float:
    """A bound nu >= -min eigenvalue(S) for S = [(a_i conj(a_j) - b_i
    conj(b_j)) / (1 - p_i conj(p_j))] with q = 1 - |p|^2: the negative
    eigenvalue of the rank-2 matrix x x^H - y y^H, x = a / sqrt(q),
    y = b / sqrt(q), since S is its Schur product with the positive
    matrix [sqrt(q_i q_j) / (1 - p_i conj(p_j))] of unit diagonal.

    With y = mu x + e, e orthogonal to x, that matrix acts on the span
    of x and e as [[X (1 - |mu|^2), -mu sqrt(X E)], [., -E]] for
    X = |x|^2 and E = |e|^2, whose eigenvalues multiply to -X E, so the
    negative one is taken from the positive one without cancellation.
    """
    r = 1.0 / np.sqrt(q)
    x, y = a * r, b * r
    xx = float(_sq(x).sum())
    if xx == 0.0:
        return float(_sq(y).sum())
    mu = complex(np.vdot(x, y)) / xx
    ee = float(_sq(y - mu * x).sum())
    m = abs(mu)
    alpha = xx * ((1.0 - m) * (1.0 + m))
    if ee == 0.0:
        return max(-alpha, 0.0)
    root = math.hypot(0.5 * (alpha + ee), m * math.sqrt(xx * ee))
    if alpha >= ee:
        return ee * xx / (0.5 * (alpha - ee) + root)
    return root - 0.5 * (alpha - ee)


def pick_norm(nodes, targets, kernel: KernelSpec) -> float:
    """Least c such that [(c^2 - w_i conj(w_j)) K(z_i, z_j)] is positive
    semidefinite: the norm of the multiplication operator compressed to
    the span of the kernel functions at the nodes; scalar targets only.

    c^2 is the largest eigenvalue of the pencil (w w^H) o K - t K, found
    by one eigen-solve on the numerical range of K (``pencil_max``), at
    the problem's ``_folded`` rows: where every node's rows pair as +-p,
    both halves of the pencil have the eigenvalues of the one at the
    squares p^2 with the same targets, and that half-size pencil is
    solved instead.  c is returned only if ``_pick_verdict`` at c, the
    verdict ``feasibility`` gives at 1, accepts it, so a norm <= 1 comes
    with a feasible verdict.  When it rejects c, target weight sits on
    directions K annihilates at double precision, no norm is certified
    and ``NumericalError`` is raised.  So it is when the largest squared
    target modulus is below the smallest normal double (a modulus below
    about 1.5e-154): B's entries would lose digits or vanish, and a
    pencil of B = 0 would read a norm of 0.
    """
    problem = _scalar_problem(nodes, targets, kernel)
    if not any(problem.targets):
        return 0.0
    _check_finite(problem, 0.0)
    km2, m, _ = problem._overflow
    if km2 < sys.float_info.min:
        raise NumericalError(
            f"the squared targets underflow: targets of modulus {m:.3g} square "
            "below the smallest normal double"
        )
    w = problem._row_targets[1]
    kmat = szego_matrix(problem._folded[0])
    b = HermitianMatrix(np.outer(w, w.conj()) * kmat)
    c = math.sqrt(max(pencil_max(HermitianMatrix._adopt(kmat), b), 0.0))
    del kmat, b
    if not _pick_verdict(problem, c, None).psd.is_psd:
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
        ur, ui = _quotient(*_product(vr, vi, zr - zk.real, zi - zk.imag),
                           *_denominator_parts(zk.real, zk.imag, zr, zi))
        # v = (u + rho) / (1.0 + rho.conjugate() * u)
        pr, pi = _product(rho.real, -rho.imag, ur, ui)
        vr, vi = _quotient(ur + rho.real, ui + rho.imag, 1.0 + pr, 0.0 + pi)
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
    points, keep = problem._rows[0].tolist(), problem._rows[2]
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
