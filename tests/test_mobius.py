import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import disk_points
from hypothesis import strategies as st

from orbitpick import mobius
from orbitpick.errors import NotDiskAutomorphism, NotInDisk
from orbitpick.mobius import (
    PROBE_GRID,
    DiskAutomorphism,
    _clamp_inside,
    _compose_grid,
    _normalized,
    automorphism_images,
    canonicalize,
    disk_point,
    iterate_cyclic,
    iterate_images,
    pseudo_hyperbolic,
)


def gamma(a):
    """z -> (z - a)/(1 - a z) as coefficients for canonicalize."""
    return canonicalize(1.0, -a, -a, 1.0)


def test_disk_point_accepts_interior():
    assert disk_point(0.3 + 0.4j) == 0.3 + 0.4j


@pytest.mark.parametrize("bad", [1.0, -1.0, 1.0 - 1e-15, 2j, complex("nan")])
def test_disk_point_rejects(bad):
    with pytest.raises(NotInDisk):
        disk_point(bad)


def test_canonicalize_hyperbolic_generator():
    f = gamma(0.5)
    assert abs(f.a - 0.5) <= 1e-15
    assert abs(f.lam - (-1.0)) <= 1e-15


def test_canonicalize_identity_and_half_turn():
    ident = canonicalize(1.0, 0.0, 0.0, 1.0)
    assert ident.is_identity()
    assert abs(ident.a) == 0.0 and ident.lam == -1.0
    half = canonicalize(-1.0, 0.0, 0.0, 1.0)
    assert half.a == 0j and half.lam == 1.0
    assert half(0.25 + 0.5j) == -(0.25 + 0.5j)


def test_canonicalize_reproduces_map_on_probes():
    f = canonicalize(2.0, 1.0j, -1.0j, 2.0)  # (2z + i)/(-iz + 2) maps D onto D
    for z in PROBE_GRID:
        assert abs(f(z) - (2 * z + 1j) / (-1j * z + 2)) <= 1e-12


def test_canonicalize_rejects_non_automorphisms():
    with pytest.raises(NotDiskAutomorphism):
        canonicalize(1.0, 0.0, 0.0, 2.0)  # z/2 contracts the disk
    with pytest.raises(NotDiskAutomorphism):
        canonicalize(0.0, 1.0, 0.0, 1.0)  # constant
    with pytest.raises(NotDiskAutomorphism):
        canonicalize(1.0, 0.3, 0.0, 1.0)  # translation, |f| != 1 on circle


def test_evaluate_examples():
    g = gamma(0.5)
    assert abs(g(0j) - (-0.5)) <= 1e-15
    assert abs(g(0.5 + 0j)) <= 1e-15
    ident = DiskAutomorphism.identity()
    for z in PROBE_GRID:
        assert ident(z) == z


def test_derivative_formula_and_examples():
    g = gamma(0.5)
    assert abs(g.derivative(0j) - 0.75) <= 1e-15
    ident = DiskAutomorphism.identity()
    assert abs(ident.derivative(0.3 + 0.1j) - 1.0) <= 1e-15
    mu = cmath.exp(0.7j)
    rot = DiskAutomorphism(0j, -mu)  # rotation z -> mu z
    assert abs(rot(0.2 + 0.1j) - mu * (0.2 + 0.1j)) <= 1e-15
    assert abs(rot.derivative(0.5j) - mu) <= 1e-15


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    maps = [gamma(0.5), canonicalize(2.0, 1.0j, -1.0j, 2.0), iterate_cyclic(0.3, 5)]
    h = 1e-6
    for _ in range(20):
        z = complex(*(0.6 * (rng.random(2) - 0.5)))
        for f in maps:
            fd = (f(z + h) - f(z - h)) / (2 * h)
            assert abs(fd - f.derivative(z)) <= 1e-6 * abs(f.derivative(z))


def test_compose_squares_generator():
    g = gamma(0.5)
    gg = g.compose(g)
    expect = gamma(0.8)
    for z in PROBE_GRID:
        assert abs(gg(z) - expect(z)) <= 1e-12
        assert abs(gg(z) - g(g(z))) <= 1e-12


def test_compose_with_identity_and_inverse():
    g = canonicalize(2.0, 1.0j, -1.0j, 2.0)
    ident = DiskAutomorphism.identity()
    for z in PROBE_GRID:
        assert abs(ident.compose(g)(z) - g(z)) <= 1e-12
        assert abs(g.compose(ident)(z) - g(z)) <= 1e-12
    rt = g.compose(g.inverse())
    assert rt.is_identity()


def test_compose_associative_on_probes():
    f = gamma(0.5)
    g = canonicalize(2.0, 1.0j, -1.0j, 2.0)
    h = DiskAutomorphism(0j, 1.0 + 0j)
    lhs = f.compose(g).compose(h)
    rhs = f.compose(g.compose(h))
    for z in PROBE_GRID:
        assert abs(lhs(z) - rhs(z)) <= 1e-12


def test_inverse_examples():
    g = gamma(0.5)
    ginv = g.inverse()
    assert abs(ginv(0j) - 0.5) <= 1e-15  # preimage of 0 is a
    ident = DiskAutomorphism.identity()
    assert ident.inverse().is_identity()
    mu = cmath.exp(1.1j)
    rot = DiskAutomorphism(0j, -mu)
    rotinv = rot.inverse()
    for z in PROBE_GRID:
        assert abs(rotinv(z) - mu.conjugate() * z) <= 1e-15


def test_iterate_cyclic_examples():
    assert abs(iterate_cyclic(0.5, 2).a - 0.8) <= 1e-15
    assert iterate_cyclic(0.5, 1).a == 0.5
    assert iterate_cyclic(0.7, 0).is_identity()


def test_iterate_cyclic_matches_repeated_composition():
    for a in (0.3, 0.5, 0.7):
        g = iterate_cyclic(a, 1)
        ginv = g.inverse()
        fwd = DiskAutomorphism.identity()
        bwd = DiskAutomorphism.identity()
        grid = [0.8 * cmath.exp(2j * cmath.pi * k / 25) * (0.2 + 0.1 * (k % 5))
                for k in range(25)]
        for n in range(1, 31):
            fwd = fwd.compose(g)
            bwd = bwd.compose(ginv)
            cf = iterate_cyclic(a, n)
            cb = iterate_cyclic(a, -n)
            for z in grid:
                assert abs(cf(z) - fwd(z)) <= 1e-10
                assert abs(cb(z) - bwd(z)) <= 1e-10


def test_iterate_parameter_is_increasing_to_one():
    # Strictly increasing while the gaps are resolvable in doubles,
    # nondecreasing beyond, with limit 1.
    prev = 0.0
    for n in range(1, 31):
        an = iterate_cyclic(0.5, n).a.real
        assert an > prev
        prev = an
    for n in range(31, 80):
        an = iterate_cyclic(0.5, n).a.real
        assert an >= prev
        prev = an
    assert 1.0 - prev <= 1e-10


def test_iterate_cyclic_huge_power_is_clamped_inside():
    g = iterate_cyclic(0.5, 10_000)
    assert abs(g.a) < 1.0
    assert DiskAutomorphism(g.a, g.lam) == g  # the constructor accepts it
    assert abs(g(0.3 + 0j) + 1.0) <= 1e-10  # deep forward iterates approach -1


# the orbit-block benchmark's a values (nominal, and the ends of its
# 0.9-1.1 spread) with their depths, and parameters whose deep powers clamp
_TABLE_CASES = [
    *((f * a, depth) for a, depth in ((0.10, 160), (0.05, 200), (0.02, 200))
      for f in (0.9, 1.0, 1.1)),
    (0.5, 200), (-0.5, 200), (0.999, 60), (-0.3, 400),
]


@pytest.mark.parametrize("a, top", _TABLE_CASES)
def test_iterate_images_parameters_equal_iterate_parameter_bit_for_bit(monkeypatch, a, top):
    # atanh(a) is taken once per call; each parameter must still be the
    # one _iterate_parameter computes alone, |n| <= 1 and clamps included
    ns = np.arange(-top, top + 1)
    want = np.array([mobius._iterate_parameter(a, n) for n in ns.tolist()])
    if abs(a) >= 0.3:
        assert math.nextafter(1.0, 0.0) in want
    monkeypatch.setattr(mobius, "automorphism_images", lambda params, lam, z: params)
    assert iterate_images(a, ns, 0j).tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    a=st.floats(1e-3, 0.999) | st.floats(-0.999, -1e-3) | st.sampled_from([0.5, -0.5]),
    ns=st.lists(st.integers(-1, 1) | st.integers(-3, 3) | st.integers(-400, 400),
                min_size=1, max_size=12),
    zs=st.lists(disk_points(), min_size=1, max_size=3),
)
def test_iterate_images_equal_the_iterates_bit_for_bit(a, ns, zs):
    # |n| <= 1 takes n * a; large |n| clamps a_n below 1; repr tells the
    # signed zeros apart.
    grid = np.array(ns).reshape(-1, 1)
    got = iterate_images(a, grid, np.array(zs).reshape(1, -1))
    for n, row in zip(ns, got.tolist()):
        assert [repr(v) for v in row] == [repr(iterate_cyclic(a, n)(z)) for z in zs]


def test_iterate_images_cover_clamped_parameters():
    for a in (0.5, -0.5, 0.999):
        ns = np.arange(-200, 201)
        assert any(abs(iterate_cyclic(a, n).a) == math.nextafter(1.0, 0.0) for n in ns)
        got = iterate_images(a, ns, 0.3 - 0.2j).tolist()
        assert [repr(v) for v in got] == [repr(iterate_cyclic(a, n)(0.3 - 0.2j)) for n in ns]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    radius=st.floats(0.0, 0.999999),
    angle=st.floats(0.0, 2.0 * math.pi),
    turn=st.floats(0.0, 2.0 * math.pi),
    z=disk_points(),
)
def test_automorphism_images_equal_the_calls_bit_for_bit(radius, angle, turn, z):
    # Both branches of the complex division occur: |1 - conj(a) z| can
    # have the larger imaginary part when a and z are near the rim.
    maps = [DiskAutomorphism(radius * cmath.exp(1j * angle), cmath.exp(1j * turn)),
            DiskAutomorphism.identity(), DiskAutomorphism(0j, 1.0 + 0j)]
    got = automorphism_images([m.a for m in maps], [m.lam for m in maps], z).tolist()
    assert [repr(v) for v in got] == [repr(m(z)) for m in maps]


def test_automorphism_images_take_both_division_branches():
    m = DiskAutomorphism(0.9j, cmath.exp(0.3j))
    zs = [0.9 + 0.3j, -0.95j, 0.2, 0.6 - 0.7j]
    den = [1.0 - m.a.conjugate() * z for z in zs]
    assert {abs(d.real) >= abs(d.imag) for d in den} == {True, False}
    got = automorphism_images(m.a, m.lam, zs).tolist()
    assert [repr(v) for v in got] == [repr(m(z)) for z in zs]
    for z in zs:  # one point at a time
        assert repr(automorphism_images(m.a, m.lam, z).item()) == repr(m(z))


def test_pseudo_hyperbolic_invariance():
    g = gamma(0.5)
    z, w = 0.3 + 0.2j, -0.1 + 0.45j
    assert abs(pseudo_hyperbolic(g(z), g(w)) - pseudo_hyperbolic(z, w)) <= 1e-13


def test_automorphism_invariants_enforced():
    with pytest.raises(NotDiskAutomorphism):
        DiskAutomorphism(1.0 + 0j, -1.0 + 0j)
    with pytest.raises(NotDiskAutomorphism):
        DiskAutomorphism(0j, 1.1 + 0j)


# -- composition without re-validation -----------------------------------------


def _checked_compose(f, g):
    """``f.compose(g)`` as written when every step went through the
    validating constructor: ``g.inverse()`` and ``_normalized`` as it was,
    clamping ``a`` a second time."""
    a = _clamp_inside(g.inverse()(f.a))
    num = f.derivative(g(0j)) * g.derivative(0j)
    lam = num / (abs(a) ** 2 - 1.0)
    r = abs(lam)
    if not (math.isfinite(r) and r > 0.0):
        raise NotDiskAutomorphism("degenerate unimodular factor")
    return DiskAutomorphism(_clamp_inside(a), lam / r)


def _outcome(build):
    """The bits of the built map's parameters, or the error raised."""
    try:
        phi = build()
    except NotDiskAutomorphism as exc:
        return type(exc), str(exc)
    return tuple(v.hex() for v in (phi.a.real, phi.a.imag, phi.lam.real, phi.lam.imag))


_EDGE_RADII = [math.nextafter(1.0, 0.0), 1.0 - 2.0**-52, 1.0 - 1e-15, 1.0 - 1e-9]


@st.composite
def automorphisms(draw):
    radius = draw(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(_EDGE_RADII)))
    a = radius * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    if abs(a) >= 1.0:  # the polar form rounded onto the circle
        a = complex(radius)
    return DiskAutomorphism(a, cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))))


_SPECIAL = st.sampled_from([DiskAutomorphism.identity(), DiskAutomorphism(0j, 1.0 + 0j)])


@settings(derandomize=True, max_examples=600, deadline=None)
@given(f=st.one_of(automorphisms(), _SPECIAL), g=st.one_of(automorphisms(), _SPECIAL))
def test_compose_is_bit_identical_to_the_checked_formula(f, g):
    got = _outcome(lambda: f.compose(g))
    assert got == _outcome(lambda: _checked_compose(f, g))
    if isinstance(got[0], str):
        phi = f.compose(g)
        assert DiskAutomorphism(phi.a, phi.lam) == phi  # the constructor accepts it


def _unchecked(a, lam):
    """An instance the validating constructor would refuse."""
    phi = object.__new__(DiskAutomorphism)
    object.__setattr__(phi, "a", complex(a))
    object.__setattr__(phi, "lam", complex(lam))
    return phi


_NAN, _INF = float("nan"), float("inf")
_G = DiskAutomorphism(0.3 - 0.2j, 1j)


@pytest.mark.parametrize("build,message", [
    (lambda: _unchecked(_NAN, -1.0).compose(_G), "degenerate unimodular factor"),
    (lambda: _unchecked(_INF, -1.0).compose(_G), "degenerate unimodular factor"),
    (lambda: _unchecked(0.1, _NAN).compose(_G), "degenerate unimodular factor"),
    (lambda: _unchecked(0.1, _INF).compose(_G), "degenerate unimodular factor"),
    (lambda: _unchecked(1.5, -1.0).compose(_G),
     "pole parameter |a| = 1.6032458052068492 >= 1"),
    (lambda: _G.compose(_unchecked(_NAN, -1.0)), "non-finite parameters"),
    (lambda: _G.compose(_unchecked(_INF, -1.0)), "non-finite parameters"),
    (lambda: _G.compose(_unchecked(0.1, _NAN)), "non-finite parameters"),
    (lambda: _G.compose(_unchecked(0.1, _INF)), "non-finite parameters"),
    (lambda: _G.compose(_unchecked(1.0 + 2e-12, -1.0)),
     "pole parameter |a| = 1.000000000002 >= 1"),
    (lambda: _normalized(complex(_NAN), 1.0 + 0j), "non-finite parameters"),
    (lambda: _normalized(complex(_INF), 1.0 + 0j), "pole parameter |a| = inf >= 1"),
    (lambda: _normalized(0.5 + 0j, complex(_NAN)), "degenerate unimodular factor"),
    (lambda: _normalized(0.5 + 0j, complex(0.0, _INF)), "degenerate unimodular factor"),
    (lambda: _normalized(complex(1.0 + 2e-12), 1.0 + 0j),
     "pole parameter |a| = 1.000000000002 >= 1"),
    # a subnormal |lam| is too coarse to renormalize by
    (lambda: _normalized(0.5 + 0j, complex(5e-324, 5e-324)),
     "|lam| = 1.4142135623730951 is not unimodular"),
    (lambda: canonicalize(_NAN, 0.0, 0.0, 1.0), "non-finite coefficients"),
    (lambda: canonicalize(1.0, _INF, 0.0, 1.0), "non-finite coefficients"),
    (lambda: iterate_cyclic(1.5, 1), "translation parameter 1.5 not in (-1, 1)"),
])
def test_library_constructions_reject_what_they_rejected(build, message):
    with pytest.raises(NotDiskAutomorphism) as info:
        build()
    assert str(info.value) == message


def _grid_outcomes(rows, letters, start=0, stop=None):
    """repr of (a, lam) of each row after each letter in row-then-letter
    order, None where the composition raises NotDiskAutomorphism: from
    the batched composer and from the scalar ``compose``.  ``repr``
    shows the sign of a zero, which ``==`` does not.  The batched
    composer is asked twice, with its numpy pass on every call of one
    row or more and as it chooses, and must give the same both times."""
    a = np.array([f.a for f in rows], dtype=complex)
    lam = np.array([f.lam for f in rows], dtype=complex)
    got = []
    for few_rows in (1, mobius._FEW_ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mobius, "_FEW_ROWS", few_rows)
            got_a, got_lam, ok = _compose_grid(a, lam, letters, start, stop)
        got.append([
            (repr(x), repr(y)) if k else None
            for x, y, k in zip(got_a.tolist(), got_lam.tolist(), ok.tolist())
        ])
    assert got[0] == got[1]
    want = []
    for f in rows:
        for g in letters:
            try:
                phi = f.compose(g)
            except NotDiskAutomorphism:
                want.append(None)
            else:
                want.append((repr(phi.a), repr(phi.lam)))
    return got[0], want[start:stop]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    rows=st.lists(st.one_of(automorphisms(), _SPECIAL), max_size=6),
    letters=st.lists(st.one_of(automorphisms(), _SPECIAL), min_size=1, max_size=4),
    data=st.data(),
)
def test_batched_compose_is_the_scalar_compose_bit_for_bit(rows, letters, data):
    got, want = _grid_outcomes(rows, letters)
    assert got == want
    stop = data.draw(st.integers(0, len(want)))
    start = data.draw(st.integers(0, stop))
    assert _grid_outcomes(rows, letters, start, stop) == (want[start:stop],) * 2


_SHIFT = iterate_cyclic(0.5, 1)
# f after g rounds onto the unit circle and needs the clamp
_RIM = (DiskAutomorphism(0.9744980225847203 + 0.22439608726194363j,
                         0.98508954715344 + 0.1720423903839703j),
        DiskAutomorphism(-0.9774514640321987 + 0.21115973920546866j,
                         -0.42189459053566664 + 0.9066448888494008j))


@pytest.mark.parametrize("rows,letters", [
    # abs(a) ** 2 differs from abs(a) * abs(a) in the last bit
    ([DiskAutomorphism(0.8047954432123002 + 0.5355822532381952j, 1j)],
     [_SHIFT, _G, DiskAutomorphism(0j, -1j)]),
    # inverse pairs and the identity: -0j among the parameters
    ([_SHIFT.inverse(), _SHIFT, DiskAutomorphism.identity(), _G],
     [_SHIFT, _SHIFT.inverse(), DiskAutomorphism.identity(), _G.inverse()]),
    (_RIM[:1], _RIM[1:]),
    # rotations, a = 0, and signed zeros in lam
    ([DiskAutomorphism(0j, cmath.exp(2j * math.pi * k / 5)) for k in range(5)]
     + [DiskAutomorphism(0j, 1j), DiskAutomorphism(0.5j, 1j)],
     [DiskAutomorphism(0j, 1j), DiskAutomorphism(0j, complex(-0.0, 1.0)),
      DiskAutomorphism(0j, 1.0 + 0j), _G]),
    # non-finite rows, a row outside the disk and one whose subnormal
    # |lam| is too coarse to renormalize by are skipped
    ([_unchecked(_NAN, -1.0), _unchecked(0.1, _INF), _unchecked(1.5, -1.0),
      _unchecked(0.5, complex(5e-324, 5e-324)), _G], [_G, _SHIFT]),
    # a letter whose inverse has |a| >= 1: every row composed with it is skipped
    ([_G, _SHIFT], [_SHIFT, DiskAutomorphism(math.nextafter(1.0, 0.0), 1.0 + 1e-13)]),
])
def test_batched_compose_on_pinned_rows(rows, letters):
    got, want = _grid_outcomes(rows, letters)
    assert got == want


def test_pinned_rows_show_what_they_pin():
    a = 0.8047954432123002 + 0.5355822532381952j
    assert abs(a) ** 2 != abs(a) * abs(a)
    assert repr(_SHIFT.inverse().compose(_SHIFT).a) == "-0j"
    f, g = _RIM
    assert abs(g.inverse()(f.a)) >= 1.0  # the parameter of f after g, before the clamp
    with pytest.raises(NotDiskAutomorphism):
        _G.compose(DiskAutomorphism(math.nextafter(1.0, 0.0), 1.0 + 1e-13))


def test_normalized_clamps_a_parameter_on_the_circle():
    phi = _normalized(complex(1.0 + 1e-13), 1.0 + 0j)
    assert phi.a == math.nextafter(1.0, 0.0) and phi.lam == 1.0


def test_compose_near_the_circle_stays_inside():
    # The parameter of f after g rescales onto |a| = 1.0 once; compose
    # divided by |a|^2 - 1 = 0 when the clamp stopped there.
    f = DiskAutomorphism(0.9744980225847203 + 0.22439608726194363j,
                         0.98508954715344 + 0.1720423903839703j)
    g = DiskAutomorphism(-0.9774514640321987 + 0.21115973920546866j,
                         -0.42189459053566664 + 0.9066448888494008j)
    phi = f.compose(g)
    assert abs(phi.a) < 1.0
    assert DiskAutomorphism(phi.a, phi.lam) == phi  # the constructor accepts it


@pytest.mark.parametrize("a", [
    0.816941040374026 - 0.5767211948182627j,  # one rescale gives |a| = 1.0
    -0.40578902924467813 - 0.9139667738735702j,
])
def test_clamp_inside_lands_strictly_inside(a):
    assert abs(_clamp_inside(a)) < 1.0


def test_clamp_inside_keeps_a_rescale_that_lands_inside():
    a = -0.6 - 0.8j
    assert _clamp_inside(a) == a * (math.nextafter(1.0, 0.0) / abs(a))
