import mpmath
import numpy as np
import pytest

from orbitpick.errors import InputError
from orbitpick.linalg import (
    HermitianMatrix,
    brute_force_psd_3x3,
    min_eig,
    pencil_max,
    psd_check,
)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def test_min_eig_identity():
    assert min_eig(np.eye(3)) == pytest.approx(1.0, abs=1e-13)


def test_min_eig_rank_one():
    assert min_eig([[1, 1], [1, 1]]) == pytest.approx(0.0, abs=1e-13)


def test_min_eig_shifted():
    assert min_eig([[2, 1], [1, 2]]) == pytest.approx(1.0, abs=1e-13)


def test_min_eig_complex_matrix():
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    assert min_eig(a) == pytest.approx(1.0, abs=1e-12)


def mpmath_min_eig(a):
    with mpmath.workdps(50):
        m = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in a])
        return float(min(mpmath.eigh(m, eigvals_only=True)))


def test_min_eig_matches_mpmath():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5, 8, 12):
        a = random_hermitian(rng, n)
        ref = mpmath_min_eig(a)
        assert abs(min_eig(a) - ref) <= 10 * n * np.finfo(float).eps * np.linalg.norm(a, 2)


def test_min_eig_degenerate_spectrum_matches_mpmath():
    # repeated eigenvalues {1, 1, 3} through a unitary conjugation
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a = q @ np.diag([1.0, 1.0, 3.0]) @ q.conj().T
    assert abs(min_eig(a) - mpmath_min_eig(a)) <= 1e-14


def test_pencil_max_on_the_range_of_k():
    rng = np.random.default_rng(17)
    b = random_hermitian(rng, 4)
    assert pencil_max(np.eye(4), b) == pytest.approx(
        np.linalg.eigvalsh(b)[-1], abs=1e-13
    )
    # K = diag(2, 0): only the first direction counts, where t * 2 >= 6
    assert pencil_max(np.diag([2.0, 0.0]), np.diag([6.0, 5.0])) == pytest.approx(
        3.0, abs=1e-14
    )
    with pytest.raises(InputError):
        pencil_max(np.eye(2), np.eye(3))
    with pytest.raises(InputError):
        pencil_max(np.zeros((2, 2)), np.eye(2))


def test_shift_invariance():
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 6)
    base = min_eig(a)
    for c in (-2.0, 0.5, 3.25):
        assert min_eig(a + c * np.eye(6)) == pytest.approx(base + c, abs=1e-12)


def test_min_eig_below_smallest_diagonal():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a = random_hermitian(rng, 5)
        assert min_eig(a) <= np.min(a.diagonal().real) + 1e-12


def test_eigenvalue_sum_matches_trace():
    # a 2x2 spectrum is its smallest and its largest eigenvalue
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = random_hermitian(rng, 2)
        total = min_eig(a) + pencil_max(np.eye(2), a)
        assert total == pytest.approx(np.trace(a).real, abs=1e-12 * 2)


def test_psd_check_examples():
    rep = psd_check([[1, 1], [1, 1]])
    assert rep.is_psd and rep.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    rep = psd_check([[1, 1], [1, 0.19 * 4 / 3]])
    assert not rep.is_psd
    assert rep.min_eigenvalue < -0.3  # det is about -0.7467

    rep = psd_check([[-1e-15]])
    assert rep.is_psd  # within the default tolerance


def test_psd_report_semantics():
    rep = psd_check([[1, 0], [0, -1]])
    assert rep.is_psd == (rep.min_eigenvalue >= -rep.tolerance_used)
    assert not rep.is_psd


def test_brute_force_examples():
    assert brute_force_psd_3x3(np.eye(3))
    assert not brute_force_psd_3x3(np.diag([1.0, -1.0]))
    szego = np.array(
        [[1, 1, 1], [1, 4 / 3, 0.8], [1, 0.8, 4 / 3]], dtype=complex
    )
    assert brute_force_psd_3x3(szego)
    assert min_eig(szego) >= -1e-12


def test_brute_force_catches_non_leading_defect():
    # leading minors are fine; the trailing 2x2 principal minor is not
    a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert not brute_force_psd_3x3(a)


def test_oracle_agreement_on_random_matrices():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 300:
        a = random_hermitian(rng, 3)
        lo = min_eig(a)
        if abs(lo) < 1e-8:
            continue
        assert psd_check(a).is_psd == brute_force_psd_3x3(a)
        checked += 1


def test_hermitian_validation():
    with pytest.raises(InputError):
        HermitianMatrix([[0, 1], [0, 0]])
    with pytest.raises(InputError):
        HermitianMatrix(np.ones((2, 3)))
    with pytest.raises(InputError):
        HermitianMatrix([[np.inf]])
    with pytest.raises(InputError):
        psd_check([[1.0]], tol=-1.0)
