"""Dense Hermitian positivity checks and eigenvalues.

A positivity verdict at tolerance tol is one Cholesky attempt on
A + tol * I (numpy.linalg.cholesky): the verdict is "positive" iff the
factorization succeeds.  Cholesky is backward stable, so a computed
factor exists for a matrix within a small multiple of n * eps * ||A||
of the input, and the verdict agrees with min eigenvalue >= -tol
except when that eigenvalue lies within such a margin of -tol; the
positivity tolerances below sit well above it.  No verdict needs the
spectrum: the smallest eigenvalue a report carries is computed by
LAPACK's Hermitian solver (numpy.linalg.eigvalsh) only when it is
read.  ``pencil_max`` solves the generalized problem behind extremal
norms with one eigen-decomposition of K.  The 3x3 principal-minor
routine at the end is independent of LAPACK and serves as its oracle.

Validation and the Hermitian part each read the n x n entries a strip
of ``STRIP_ROWS`` rows at a time, so neither holds an n x n temporary.
The library's own Pick matrices are handed to ``HermitianMatrix``
without a copy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

MAX_DIMENSION = 2000
# Rows per strip of the n x n passes that work a strip at a time (the
# Gram matrix, the Pick weights, validation and the Hermitian part): a
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
    a copy of the entries as given.  Validation reads the matrix in
    strips of ``STRIP_ROWS`` rows, each with the upper part of its
    columns and their mirror, since |a_ij - conj(a_ji)| is the same
    double on both sides of the diagonal.
    """

    def __init__(self, entries):
        self._validate(np.array(entries, dtype=complex))

    @classmethod
    def _adopt(cls, a: np.ndarray) -> HermitianMatrix:
        """Validate a complex array the caller has just built and hands
        over, and keep that array itself rather than a copy."""
        h = cls.__new__(cls)
        h._validate(a)
        return h

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
    """The Hermitian part 0.5 * (A + A^H), a strip of rows at a time."""
    h = _as_matrix(a)
    n = h.shape[0]
    if n == 0:
        raise InputError("empty matrix has no eigenvalues")
    if n > MAX_DIMENSION:
        raise InputError(f"matrix dimension {n} exceeds the supported {MAX_DIMENSION}")
    out = np.empty((n, n), dtype=complex)
    for r0 in range(0, n, STRIP_ROWS):
        strip = out[r0 : r0 + STRIP_ROWS]
        np.conjugate(h[:, r0 : r0 + STRIP_ROWS].T, out=strip)
        np.add(h[r0 : r0 + STRIP_ROWS], strip, out=strip)
        np.multiply(0.5, strip, out=strip)
    return out


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
    h = _as_matrix(a)
    dmax = float(np.max(h.diagonal().real)) if h.size else 0.0
    return 1e-10 * (1.0 + max(dmax, 0.0))


def psd_check(a, tol: float | None = None) -> PsdReport:
    """Positive-semidefiniteness verdict with an explicit tolerance:
    does A + tol * I have a Cholesky factor?

    A is taken as its Hermitian part 0.5 (A + A^H).  The default
    tolerance 1e-10 * (1 + max diagonal) is anchored to the diagonal
    because the matrices arising here scale with kernel magnitudes near
    the boundary.  The report's ``min_eigenvalue`` is computed on first
    read.
    """
    h = a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)
    if tol is None:
        tol = default_psd_tolerance(h)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InputError("tolerance must be positive and finite")
    shifted = _solvable(h)
    shifted.flat[:: h.n + 1] += tol
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        is_psd = False
    else:
        is_psd = True
    report = PsdReport(math.nan, is_psd, tol)
    report._pending = h
    return report


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
        for idx in _subsets(n, size):
            if det(idx) < -tol:
                return False
    return True


def _subsets(n: int, size: int):
    import itertools

    return itertools.combinations(range(n), size)
