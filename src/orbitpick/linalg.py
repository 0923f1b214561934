"""Dense Hermitian eigenvalue and positivity checks.

Every eigen-solve goes through LAPACK's Hermitian solvers
(numpy.linalg.eigvalsh and eigh), whose computed eigenvalues are exact
for a matrix within a small multiple of n * eps * ||A|| of the input;
the positivity tolerances below sit well above that.  ``pencil_max``
solves the generalized problem behind extremal norms with one
factorization of K.  The 3x3 principal-minor routine at the end is
independent of LAPACK and serves as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

MAX_DIMENSION = 2000
# Relative eigenvalue floor below which ``pencil_max`` treats a
# direction of K as outside its range.  LAPACK's absolute eigenvalue
# error, about n * eps * ||K||, reaches it at a few hundred rows.
RANGE_CUTOFF = 1e-13


@dataclass(frozen=True)
class PsdReport:
    """Positivity verdict: is_psd holds iff min_eigenvalue >= -tolerance_used."""

    min_eigenvalue: float
    is_psd: bool
    tolerance_used: float


class HermitianMatrix:
    """Validated dense Hermitian matrix.

    Accepts any square array whose conjugate-transpose defect is below
    1e-10 * (1 + max|entry|); stores the entries as given.
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise InputError("matrix entries must be finite")
        scale = 1.0 + (np.max(np.abs(a)) if a.size else 0.0)
        defect = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
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
    h = _as_matrix(a)
    n = h.shape[0]
    if n == 0:
        raise InputError("empty matrix has no eigenvalues")
    if n > MAX_DIMENSION:
        raise InputError(f"matrix dimension {n} exceeds the supported {MAX_DIMENSION}")
    return 0.5 * (h + h.conj().T)


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
    """Positive-semidefiniteness verdict with an explicit tolerance.

    The default tolerance 1e-10 * (1 + max diagonal) is anchored to the
    diagonal because the matrices arising here scale with kernel
    magnitudes near the boundary.
    """
    h = a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)
    if tol is None:
        tol = default_psd_tolerance(h)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise InputError("tolerance must be positive and finite")
    lo = min_eig(h)
    return PsdReport(min_eigenvalue=lo, is_psd=lo >= -tol, tolerance_used=tol)


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
