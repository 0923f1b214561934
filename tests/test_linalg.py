import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitpick import linalg
from orbitpick.blaschke import from_orbit
from orbitpick.errors import InputError
from orbitpick.kernels import (
    ComposedInnerKernel,
    OrbitGramKernel,
    dominance_check,
    gram,
    szego_matrix,
)
from orbitpick.linalg import (
    MAX_DIMENSION,
    STRIP_ROWS,
    HermitianMatrix,
    brute_force_psd_3x3,
    default_psd_tolerance,
    min_eig,
    pencil_max,
    psd_check,
)
from orbitpick.orbits import cyclic_group, enumerate_orbit, z2z2_group
from orbitpick.pick import PickProblem, feasibility


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


def test_brute_force_refuses_four_rows():
    with pytest.raises(InputError) as info:
        brute_force_psd_3x3(np.eye(4))
    assert str(info.value) == "brute-force check is limited to 3x3 matrices"


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


def _reference_message(a):
    """The validation message of a square, finite, non-Hermitian array,
    by whole-matrix expressions."""
    scale = 1.0 + np.max(np.abs(a))
    defect = np.max(np.abs(a - a.conj().T))
    return f"matrix is not Hermitian: defect {defect:.3e} vs scale {scale:.3e}"


def _multi_strip(seed, defect_at=None, nan_at=None):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 3 * STRIP_ROWS + 5)
    if defect_at is not None:
        a[defect_at] += 1e-6 * (1 + 2j)
    if nan_at is not None:
        a[nan_at] = complex(0.5, math.nan)
    return a


_LATE = (3 * STRIP_ROWS + 4, 2)  # a lower entry of the last strip


@pytest.mark.parametrize("entries, message", [
    (np.ones((2, 3)), "expected a square matrix, got shape (2, 3)"),
    (np.ones(3), "expected a square matrix, got shape (3,)"),
    ([[np.inf]], "matrix entries must be finite"),
    ([[1.0, 0.0], [complex(0.0, math.nan), 1.0]], "matrix entries must be finite"),
    ([[0, 1], [0, 0]], "matrix is not Hermitian: defect 1.000e+00 vs scale 2.000e+00"),
    ([[1.0, 2.0], [2.0, 1.0 + 1e-3j]],
     "matrix is not Hermitian: defect 2.000e-03 vs scale 3.000e+00"),
    (_multi_strip(1, defect_at=(1, 0), nan_at=_LATE), "matrix entries must be finite"),
    (_multi_strip(2, defect_at=_LATE), _reference_message(_multi_strip(2, defect_at=_LATE))),
    (_multi_strip(3, defect_at=(70, 70)),
     _reference_message(_multi_strip(3, defect_at=(70, 70)))),
], ids=["rectangular", "vector", "inf", "nan", "triangular", "diagonal",
        "nan-after-defect", "late-defect", "diagonal-defect"])
def test_hermitian_matrix_keeps_its_messages(entries, message):
    with pytest.raises(InputError) as public:
        HermitianMatrix(entries)
    assert str(public.value) == message
    with pytest.raises(InputError) as adopted:
        HermitianMatrix._adopt(np.array(entries, dtype=complex))
    assert str(adopted.value) == message


def test_hermitian_matrix_copies_what_it_is_given():
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    h = HermitianMatrix(a)
    a[0, 0], a[0, 1] = 7.0, 5.0
    assert h.entries.tolist() == [[2.0, 1j], [-1j, 2.0]]
    owned = np.eye(2, dtype=complex)
    assert HermitianMatrix._adopt(owned).entries is owned


def _close_call(seed, n):
    """A Hermitian matrix mirrored exactly, its smallest eigenvalue
    moved to 0 so that verdicts at small tolerances are close calls."""
    rng = np.random.default_rng(seed)
    b = random_hermitian(rng, n)
    b = b - min_eig(b) * np.eye(n)
    return np.triu(b) + np.triu(b, 1).conj().T


def _close_calls():
    n = 2 * STRIP_ROWS + 3
    exact = _close_call(1, n)
    imaginary = exact.copy()  # as the assembled orbit Pick matrices have
    imaginary.flat[:: n + 1] += 1e-104j * np.arange(1, n + 1)
    zeros = _close_call(2, n)
    for i, j in ((0, 1), (5, 90), (70, 3), (n - 1, 0)):
        zeros[i, j], zeros[j, i] = complex(0.0, 0.0), complex(-0.0, 0.0)
    zeros[2, 80], zeros[80, 2] = complex(-0.0, 0.25), complex(0.0, -0.25)
    unit = exact / np.max(np.abs(exact))
    ulp = exact.copy()
    ulp[100, 1] = complex(np.nextafter(ulp[100, 1].real, 1.0), ulp[100, 1].imag)
    return [
        ("exact mirror", exact),
        ("diagonal imaginary part", imaginary),
        ("signed zeros", zeros),
        ("1-ulp defect", ulp),
        ("above 1e307", 8e307 * unit),
        ("doubling overflows", 1.2e308 * unit),
    ]


@pytest.mark.parametrize("name, a", _close_calls(), ids=lambda v: v if isinstance(v, str) else "")
@pytest.mark.parametrize("offset", [1e-3, 1e-10, 0.0, -1e-10, -1e-3])
@pytest.mark.parametrize("tol", [None, 1e-14, 1e-6])
def test_psd_check_factors_the_whole_matrix_hermitian_part(monkeypatch, name, a, offset, tol):
    a = a.copy()
    a.flat[:: a.shape[0] + 1] += offset * np.max(np.abs(a))
    h = HermitianMatrix(a)
    tol = default_psd_tolerance(h) if tol is None else tol * np.max(np.abs(a))
    with np.errstate(over="ignore", invalid="ignore"):
        summed = 0.5 * (a + a.conj().T)
    # Halving first moves no bit of the summed formula unless the sum
    # overflows, as it does on "doubling overflows" only.
    expected = 0.5 * a.conj().T + 0.5 * a
    if name == "doubling overflows":
        assert not np.isfinite(summed).all()
    else:
        assert summed.tobytes() == expected.tobytes()
    assert h.entries.tobytes() == expected.tobytes()
    expected.flat[:: h.n + 1] += tol
    try:
        np.linalg.cholesky(expected)
    except np.linalg.LinAlgError:
        verdict = False
    else:
        verdict = True
    if abs(offset) == 1e-3:  # far from every tolerance: the offset decides
        assert verdict == (offset > 0)
    factored = []
    cholesky = np.linalg.cholesky

    def record(m):
        factored.append(m.copy())
        return cholesky(m)

    monkeypatch.setattr(np.linalg, "cholesky", record)
    assert psd_check(h, tol).is_psd == verdict
    assert factored[0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("name, a", [
    call for call in _close_calls() if call[0] not in ("signed zeros", "1-ulp defect")
], ids=lambda v: v if isinstance(v, str) else "")
@pytest.mark.parametrize("offset", [1e-3, 0.0, -1e-3])
def test_psd_check_factors_a_mirrored_matrix_where_it_stands(monkeypatch, name, a, offset):
    n = a.shape[0]
    a = a.copy()
    a.flat[:: n + 1] += offset * np.max(np.abs(a))
    lower = np.tril_indices(n, -1)
    assert a[lower].tobytes() == a.T[lower].conj().tobytes()
    h = HermitianMatrix._adopt(a.copy())
    tol = default_psd_tolerance(h)
    expected = 0.5 * a.conj().T + 0.5 * a
    expected.flat[:: n + 1] += tol
    factored = []
    cholesky = np.linalg.cholesky

    def record(m):
        factored.append(m.copy())
        return cholesky(m)

    monkeypatch.setattr(np.linalg, "cholesky", record)
    report = psd_check(h)
    assert factored[0].tobytes() == expected.tobytes()
    assert h.entries.tobytes() == a.tobytes()  # restored after a success or a failure
    if offset:
        assert report.is_psd == (offset > 0)
    monkeypatch.undo()
    assert report.min_eigenvalue.hex() == min_eig(HermitianMatrix(a)).hex()

    def out_of_memory(m):
        raise MemoryError

    monkeypatch.setattr(np.linalg, "cholesky", out_of_memory)
    with pytest.raises(MemoryError):
        psd_check(h)
    assert h.entries.tobytes() == a.tobytes()


def _test_matrix(kind, n, seed):
    """A Hermitian matrix of the given kind, built from a numpy seed."""
    rng = np.random.default_rng(seed)
    if kind == "hermitian":
        a = random_hermitian(rng, n)
        return a - min_eig(a) * np.eye(n)  # smallest eigenvalue near 0
    if kind == "gram":  # rank < n, diagonal in [1, 500]
        rank = int(rng.integers(1, n)) if n > 1 else 1
        v = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        v *= np.sqrt(rng.uniform(1.0, 500.0, (n, 1))) / np.linalg.norm(v, axis=1, keepdims=True)
        return v @ v.conj().T
    if kind == "szego":  # clustered points out to radius 0.999, like orbit kernels
        r = rng.uniform(0.9, 0.999, n)
        return szego_matrix(r * np.exp(1j * rng.uniform(0.0, 0.3, n)))
    lam = rng.uniform(0.0, 10.0, n)  # "singular": PSD with an exact zero eigenvalue
    lam[int(rng.integers(n))] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q * lam) @ q.conj().T


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(["hermitian", "gram", "szego", "singular"]),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    offset=st.sampled_from([0.5, 1e-1, 1e-6, 1e-10, 0.0, -1e-10, -1e-6, -1e-1, -0.5]),
    tol=st.one_of(st.none(), st.floats(-14.0, 1.0).map(lambda e: 10.0**e)),
)
def test_cholesky_verdict_matches_the_eigenvalue_verdict(kind, n, seed, offset, tol):
    a = _test_matrix(kind, n, seed)
    a = a + offset * np.linalg.norm(a, 2) * np.eye(n)
    rep = psd_check(a, tol)
    tol = rep.tolerance_used
    lo = min_eig(a)
    norm = np.linalg.norm(a, 2)
    if abs(lo + tol) > 100 * n * np.finfo(float).eps * norm:
        assert rep.is_psd == (lo >= -tol)
    # the principal minors of A + tol * I decide reliably once every
    # eigenvalue clears 1e-4 * ||A||: each minor is then a product of
    # factors far above the rounding of a 3x3 determinant
    shifted = a + tol * np.eye(n)
    if n <= 3 and np.all(np.abs(np.linalg.eigvalsh(shifted)) > 1e-4 * norm):
        assert rep.is_psd == brute_force_psd_3x3(shifted, tol=0.0)


def _boom(*args, **kwargs):
    raise AssertionError("a verdict ran an eigen-solve")


def test_verdicts_run_no_eigen_solve(monkeypatch):
    orbit = enumerate_orbit(cyclic_group(0.5), 0j, 60)
    b, b2 = from_orbit(orbit, 1), from_orbit(orbit, 2)
    nodes = (0.2 + 0.1j, -0.35 + 0.05j)
    spec = ComposedInnerKernel(b, 2)
    targets = tuple(0.9 * spec.value(z) for z in nodes)
    problem = PickProblem(nodes, targets, OrbitGramKernel(z2z2_group(0.5), 120))
    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, _boom)
    monkeypatch.setattr(linalg, "min_eig", _boom)
    report = feasibility(problem)
    dominance = dominance_check(spec, b2, 1.0, nodes)
    assert report.psd.is_psd and dominance.is_psd
    monkeypatch.undo()
    lazy = report.psd.min_eigenvalue
    assert lazy.hex() == min_eig(report.matrix).hex()
    assert report.psd.min_eigenvalue is lazy  # computed once, then kept
    assert dominance.min_eigenvalue >= -dominance.tolerance_used


def test_psd_check_rejects_bad_input_at_once(monkeypatch):
    monkeypatch.setattr(linalg, "min_eig", _boom)
    big = HermitianMatrix([[1.0]])
    # untouched pages of np.zeros cost no memory; the dimension check
    # must raise before any arithmetic on the entries
    big.entries = np.zeros((MAX_DIMENSION + 1, MAX_DIMENSION + 1), dtype=complex)
    with pytest.raises(InputError, match="exceeds the supported 2000"):
        psd_check(big, tol=1.0)
    with pytest.raises(InputError, match="empty matrix"):
        psd_check(np.zeros((0, 0)))
    for tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InputError, match="tolerance must be positive and finite"):
            psd_check(np.eye(2), tol=tol)


def test_psd_check_of_a_caller_array_holds_one_copy():
    # the copy HermitianMatrix makes holds the Hermitian part and is
    # factored where it stands: the traced peak beyond the caller's Gram
    # array is that copy and the factor, plus strips
    nodes = (0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.25j, 0.05 + 0.4j)
    g = gram(OrbitGramKernel(cyclic_group(0.05), 120), nodes).entries
    n = g.shape[0]
    tracemalloc.start()
    try:
        report = psd_check(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 596 and report.is_psd
    assert peak <= 2.5 * 16 * n * n


def test_psd_check_keeps_its_guards_on_a_mirrored_matrix(monkeypatch):
    monkeypatch.setattr(linalg, "min_eig", _boom)
    big = HermitianMatrix._adopt(np.eye(1, dtype=complex))
    big.entries = np.zeros((MAX_DIMENSION + 1, MAX_DIMENSION + 1), dtype=complex)
    with pytest.raises(InputError, match="exceeds the supported 2000"):
        psd_check(big, tol=1.0)
    with pytest.raises(InputError, match="empty matrix has no eigenvalues"):
        psd_check(HermitianMatrix._adopt(np.zeros((0, 0), dtype=complex)))
