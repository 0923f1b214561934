"""Dense Hermitian positivity checks and eigenvalues.

A dense positivity verdict at tolerance tol is one Cholesky attempt on
A + tol * I (numpy.linalg.cholesky): the verdict is "positive" iff the
factorization succeeds.  Cholesky is backward stable, so a computed
factor exists for a matrix within a small multiple of n * eps * ||A||
of the input, and the verdict agrees with min eigenvalue >= -tol
except when that eigenvalue lies within such a margin of -tol; the
positivity tolerances below sit well above it.  Scalar Pick matrices
come here only when ``pick._pick_verdict``, which decides the same
question on their two-column generator without building them, cannot
decide; Gram, dominance and matrix-target Pick matrices always do.  No
verdict needs the spectrum: the smallest eigenvalue a report carries
is computed by LAPACK's Hermitian solver (numpy.linalg.eigvalsh) only
when it is read.  ``pencil_max`` solves the generalized problem behind
extremal norms with one eigen-decomposition of K.  The 3x3
principal-minor routine at the end is independent of LAPACK and serves
as its oracle.

Every ``HermitianMatrix`` holds a matrix whose strict lower triangle
is the conjugate of its upper one, and LAPACK is given that matrix as
it stands, its diagonal read as real.  A matrix the library built
mirrored (by ``kernels.szego_matrix``, or the difference of two such)
is adopted without a copy; any other matrix is copied and replaced by
its Hermitian part 0.5 A^H + 0.5 A, or replaced in place when the
library has just built it.  A verdict shifts the diagonal in place and
restores it afterwards.

Validation and the Hermitian part each read the n x n entries a strip
of ``STRIP_ROWS`` rows at a time, so neither holds an n x n temporary;
the part halves each entry before the sum, which cannot overflow.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InputError

MAX_DIMENSION = 2000
# Rows per strip of the n x n passes that work a strip at a time (the
# Gram and scalar Pick matrices, validation and the Hermitian part): a
# strip of a 1,200-row matrix and its temporaries stay in cache.
STRIP_ROWS = 64
# Relative eigenvalue floor below which ``pencil_max`` treats a
# direction of K as outside its range.  LAPACK's absolute eigenvalue
# error, about n * eps * ||K||, reaches it at a few hundred rows.
RANGE_CUTOFF = 1e-13


class PsdReport:
    """Positivity verdict at an explicit tolerance.

    ``is_psd`` says whether A + tolerance_used * I has a Cholesky
    factor, which up to that factorization's backward error means
    min_eigenvalue >= -tolerance_used.  A report from ``psd_check``
    computes ``min_eigenvalue`` with ``min_eig`` on first read and keeps
    it; a report built directly carries the value it was given.
    """

    __slots__ = ("_min_eigenvalue", "_pending", "is_psd", "tolerance_used")

    def __init__(self, min_eigenvalue: float, is_psd: bool, tolerance_used: float):
        self._min_eigenvalue = min_eigenvalue
        self._pending = None  # matrix whose min_eig is still to be read
        self.is_psd = is_psd
        self.tolerance_used = tolerance_used

    @classmethod
    def _deferred(cls, matrix, is_psd: bool, tolerance_used: float) -> PsdReport:
        """A verdict on ``matrix`` whose smallest eigenvalue is computed
        on first read."""
        report = cls(math.nan, is_psd, tolerance_used)
        report._pending = matrix
        return report

    @property
    def min_eigenvalue(self) -> float:
        if self._pending is not None:
            self._min_eigenvalue = min_eig(self._pending)
            self._pending = None
        return self._min_eigenvalue

    def __repr__(self):
        return (
            f"PsdReport(min_eigenvalue={self.min_eigenvalue!r}, "
            f"is_psd={self.is_psd!r}, tolerance_used={self.tolerance_used!r})"
        )


class HermitianMatrix:
    """Validated dense Hermitian matrix.

    Accepts any square array of finite entries whose conjugate-transpose
    defect max|A - A^H| is at most 1e-10 * (1 + max|entry|), and stores
    its Hermitian part 0.5 A^H + 0.5 A, written into a copy of the
    entries.  Validation reads the matrix in strips of ``STRIP_ROWS``
    rows, each with the upper part of its columns and their mirror,
    since |a_ij - conj(a_ji)| is the same double on both sides of the
    diagonal; the Hermitian part is written in the same strips.
    """

    def __init__(self, entries):
        self._hermitize(np.array(entries, dtype=complex))

    @classmethod
    def _adopt(cls, a: np.ndarray) -> HermitianMatrix:
        """Validate a complex array the library has just built mirrored
        (its strict lower triangle the conjugate of its upper one, as
        ``kernels.szego_matrix`` writes Gram and scalar Pick matrices)
        and keep that array itself rather than a copy."""
        h = cls.__new__(cls)
        h._validate(a)
        return h

    @classmethod
    def _own(cls, a: np.ndarray) -> HermitianMatrix:
        """Validate a complex array the library has just built and keep
        it, replaced in place by its Hermitian part, rather than a copy
        (as the constructor would)."""
        h = cls.__new__(cls)
        h._hermitize(a)
        return h

    def _hermitize(self, a: np.ndarray) -> None:
        self._validate(a)
        # Each strip reads and writes the entries whose smaller index
        # lies in its rows, so it reads nothing an earlier strip wrote.
        # Halving is exact and the sum commutes, so halving in place
        # gives the bits of 0.5 A^H + 0.5 A with two strip temporaries.
        for r0 in range(0, a.shape[0], STRIP_ROWS):
            rows = a[r0 : r0 + STRIP_ROWS, r0:]
            below = a[r0 + STRIP_ROWS :, r0 : r0 + STRIP_ROWS]
            upper = np.conjugate(a[r0:, r0 : r0 + STRIP_ROWS].T)
            upper *= 0.5
            lower = np.conjugate(rows[:, STRIP_ROWS:].T)
            lower *= 0.5
            rows *= 0.5
            rows += upper
            below *= 0.5
            below += lower

    def _validate(self, a: np.ndarray) -> None:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        amax, defect = 0.0, 0.0
        for r0 in range(0, n, STRIP_ROWS):
            rows = a[r0 : r0 + STRIP_ROWS]
            s = rows.shape[0]
            top = np.max(np.abs(rows))
            # a finite entry has a finite modulus unless it overflows
            if not math.isfinite(top) and not np.isfinite(rows).all():
                raise InputError("matrix entries must be finite")
            amax = max(amax, top)
            # Rows below the strip are checked by later strips; a
            # non-finite entry there only meets subtraction here, which
            # raises no floating-point warning, and the loop raises when
            # it reaches its row.
            d = np.conjugate(a[r0:, r0 : r0 + s].T, order="C")
            d = np.abs(np.subtract(rows[:, r0:], d, out=d))
            defect = max(defect, np.max(d))
        scale = 1.0 + amax
        if defect > 1e-10 * scale:
            raise InputError(
                f"matrix is not Hermitian: defect {defect:.3e} vs scale {scale:.3e}"
            )
        self.entries = a

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"HermitianMatrix(n={self.n})"


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, HermitianMatrix):
        return a.entries
    return HermitianMatrix(a).entries


def _solvable(a) -> np.ndarray:
    """The matrix LAPACK is given for A: its entries, once they pass the
    dimension guards."""
    h = _as_matrix(a)
    n = h.shape[0]
    if n == 0:
        raise InputError("empty matrix has no eigenvalues")
    _check_dimension(n)
    return h


def _check_dimension(n: int) -> None:
    """Refuse a matrix, assembled or not, of more than ``MAX_DIMENSION``
    rows."""
    if n > MAX_DIMENSION:
        raise InputError(f"matrix dimension {n} exceeds the supported {MAX_DIMENSION}")


def min_eig(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(_solvable(a))[0])


def pencil_max(k, b) -> float:
    """Largest eigenvalue of the pencil B - lambda K on the numerical
    range of the positive semidefinite matrix K.

    With K = U diag(lam) U^H, the directions whose eigenvalue lies above
    ``RANGE_CUTOFF`` times the largest are kept and the result is the
    largest eigenvalue of lam_r^{-1/2} U_r^H B U_r lam_r^{-1/2}: the
    least t with t K - B positive on that range.  Directions K
    annihilates to working precision are not seen; callers that need
    the answer on the whole space check it there.
    """
    kh = _solvable(k)
    bh = _solvable(b)
    if bh.shape != kh.shape:
        raise InputError(f"pencil shapes differ: {kh.shape} and {bh.shape}")
    lam, u = np.linalg.eigh(kh)
    if not lam[-1] > 0.0:
        raise InputError("the pencil's K has no positive eigenvalue")
    keep = lam > RANGE_CUTOFF * lam[-1]
    ur = u[:, keep] / np.sqrt(lam[keep])
    m = ur.conj().T @ bh @ ur
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1])


def default_psd_tolerance(a) -> float:
    return _anchored_tolerance(_as_matrix(a).diagonal().real)


def _anchored_tolerance(diagonal: np.ndarray) -> float:
    """The default positivity tolerance 1e-10 * (1 + max diagonal) of a
    matrix with this real diagonal.  It is anchored to the diagonal
    because the matrices arising here scale with kernel magnitudes near
    the boundary."""
    dmax = float(np.max(diagonal)) if diagonal.size else 0.0
    return 1e-10 * (1.0 + max(dmax, 0.0))


def _checked_tolerance(tol: float) -> float:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InputError("tolerance must be positive and finite")
    return tol


def psd_check(a, tol: float | None = None) -> PsdReport:
    """Positive-semidefiniteness verdict with an explicit tolerance:
    does A + tol * I have a Cholesky factor?

    The matrix ``HermitianMatrix`` holds (for an array, its Hermitian
    part) is factored as it stands, with its diagonal taken as real: the
    diagonal becomes re(diagonal) + tol in place for the factorization
    and is restored bit for bit afterwards, whatever the factorization
    raises.  The default tolerance is ``default_psd_tolerance``.  The
    report's ``min_eigenvalue`` is computed on first read.
    """
    h = a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)
    tol = _checked_tolerance(default_psd_tolerance(h) if tol is None else tol)
    shifted = _solvable(h)
    diagonal = shifted.flat[:: h.n + 1]  # a copy
    shifted.flat[:: h.n + 1] = diagonal.real + tol
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        is_psd = False
    else:
        is_psd = True
    finally:
        shifted.flat[:: h.n + 1] = diagonal
    return PsdReport._deferred(h, is_psd, tol)


def brute_force_psd_3x3(a, tol: float = 1e-12) -> bool:
    """Positivity of a Hermitian matrix of dimension <= 3 by direct
    expansion of every principal minor.

    Checking all principal minors (not only the leading ones) settles
    the semidefinite boundary as well.  Independent of the eigenvalue
    path; used as its oracle.
    """
    h = _as_matrix(a)
    n = h.shape[0]
    if n > 3:
        raise InputError("brute-force check is limited to 3x3 matrices")

    def det(idx: tuple[int, ...]) -> float:
        sub = h[np.ix_(idx, idx)]
        if len(idx) == 1:
            d = sub[0, 0]
        elif len(idx) == 2:
            d = sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
        else:
            d = (
                sub[0, 0] * (sub[1, 1] * sub[2, 2] - sub[1, 2] * sub[2, 1])
                - sub[0, 1] * (sub[1, 0] * sub[2, 2] - sub[1, 2] * sub[2, 0])
                + sub[0, 2] * (sub[1, 0] * sub[2, 1] - sub[1, 1] * sub[2, 0])
            )
        return float(d.real)

    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            if det(idx) < -tol:
                return False
    return True
