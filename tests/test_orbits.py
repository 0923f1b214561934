import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitpick import orbits
from orbitpick.errors import InputError, NotDiskAutomorphism, OrbitExplosion
from orbitpick.mobius import (
    DISK_BOUNDARY_MARGIN,
    DiskAutomorphism,
    iterate_cyclic,
    pseudo_hyperbolic,
)
from orbitpick.orbits import (
    cyclic_group,
    cyclic_orbit_weight,
    enumerate_orbit,
    generic_group,
    stabilizer_order_origin,
    z2z2_group,
    z2z2_normal_form,
)


def test_cyclic_orbit_points_and_order():
    orbit = enumerate_orbit(cyclic_group(0.5), 0j, 2)
    pts = [e.point for e in orbit.entries]
    expected = [0.0, -0.5, 0.5, -0.8, 0.8]
    assert len(pts) == 5
    for got, want in zip(pts, expected):
        assert abs(got - want) <= 1e-12
    assert [e.word for e in orbit.entries] == ["", "a", "A", "aa", "AA"]


def test_z2z2_orbit_matches_cyclic_point_set():
    # The half-turn fixes 0, so the two-letter words cover the cyclic
    # orbit at half the rate: letter length 2N reaches the same points
    # as the cyclic orbit at length N.
    oc = enumerate_orbit(cyclic_group(0.5), 0j, 2)
    oz = enumerate_orbit(z2z2_group(0.5), 0j, 4)
    sc = sorted((round(p.real, 10), round(p.imag, 10)) for p in oc.points)
    sz = sorted((round(p.real, 10), round(p.imag, 10)) for p in oz.points)
    assert sc == sz


def test_z2z2_orbit_words():
    orbit = enumerate_orbit(z2z2_group(0.5), 0j, 4)
    assert [e.word for e in orbit.entries] == ["", "b", "ab", "bab", "abab"]
    pts = [e.point for e in orbit.entries]
    for got, want in zip(pts, [0.0, 0.5, -0.5, 0.8, -0.8]):
        assert abs(got - want) <= 1e-12


def test_length_zero_orbit_is_base_alone():
    for group in (cyclic_group(0.5), z2z2_group(0.3), generic_group(
            [iterate_cyclic(0.4, 1)])):
        orbit = enumerate_orbit(group, 0.1 + 0.2j, 0)
        assert len(orbit.entries) == 1
        assert orbit.entries[0].word == ""
        assert orbit.entries[0].point == 0.1 + 0.2j


def test_orbit_determinism():
    a = enumerate_orbit(z2z2_group(0.5), 0.1 + 0.05j, 6)
    b = enumerate_orbit(z2z2_group(0.5), 0.1 + 0.05j, 6)
    assert a.entries == b.entries
    assert a.partial_sum == b.partial_sum
    assert a.tail_bound == b.tail_bound


def test_generic_bfs_matches_closed_form_cyclic():
    a = 0.5
    oc = enumerate_orbit(cyclic_group(a), 0.2 + 0.1j, 6)
    og = enumerate_orbit(generic_group([iterate_cyclic(a, 1)]), 0.2 + 0.1j, 6)
    assert [e.word for e in oc.entries] == [e.word for e in og.entries]
    for ec, eg in zip(oc.entries, og.entries):
        assert abs(ec.point - eg.point) <= 1e-10


def test_generic_bfs_matches_closed_form_z2z2():
    a = 0.5
    half_turn = DiskAutomorphism(0j, 1.0 + 0j)
    involution = DiskAutomorphism(complex(a), 1.0 + 0j)
    oz = enumerate_orbit(z2z2_group(a), 0.17 - 0.06j, 5)
    og = enumerate_orbit(generic_group([half_turn, involution]), 0.17 - 0.06j, 5)
    assert [e.word for e in oz.entries] == [e.word for e in og.entries]
    for ez, eg in zip(oz.entries, og.entries):
        assert abs(ez.point - eg.point) <= 1e-10


def test_orbit_closure_under_generators():
    group = z2z2_group(0.5)
    deep = enumerate_orbit(group, 0.1 + 0.2j, 9)
    shallow_points = enumerate_orbit(group, 0.1 + 0.2j, 8).points
    accepted = deep.points
    for p in shallow_points:
        for g in group.generators:
            image = g(p)
            assert any(pseudo_hyperbolic(image, q) <= 1e-9 for q in accepted)


def test_partial_sum_fixed_order_and_monotone():
    group = cyclic_group(0.5)
    prev = 0.0
    for n in range(0, 12):
        orbit = enumerate_orbit(group, 0j, n)
        total = 0.0
        for e in orbit.entries:
            total += e.weight
        assert total == orbit.partial_sum  # bitwise: fixed summation order
        assert orbit.partial_sum >= prev
        prev = orbit.partial_sum


def test_blaschke_sum_cyclic_example():
    orbit = enumerate_orbit(cyclic_group(0.5), 0j, 2)
    partial, tail = orbit.partial_sum, orbit.tail_bound
    assert abs(partial - 2.4) <= 1e-12
    assert abs(tail - 2.0 / 9.0) <= 1e-12


def test_blaschke_sum_length_zero():
    orbit = enumerate_orbit(cyclic_group(0.5), 0j, 0)
    partial, tail = orbit.partial_sum, orbit.tail_bound
    assert partial == 1.0
    # the rest of the orbit weight is covered by the bound
    full = enumerate_orbit(cyclic_group(0.5), 0j, 60).partial_sum
    assert full - partial <= tail


@pytest.mark.parametrize("a", [0.45, -0.45])
@pytest.mark.parametrize("kind,base", [
    ("cyclic", 0j), ("cyclic", 0.3 + 0.1j),
    ("z2z2", 0j), ("z2z2", 0.25 - 0.2j),
])
def test_tail_bound_validity(kind, base, a):
    group = cyclic_group(a) if kind == "cyclic" else z2z2_group(a)
    for n in (0, 1, 2, 5, 9):
        orbit = enumerate_orbit(group, base, n)
        deep = enumerate_orbit(group, base, n + 40)
        assert deep.partial_sum <= orbit.partial_sum + orbit.tail_bound + 1e-12


def test_z2z2_orbit_of_involution_fixed_point():
    # the involution (a-z)/(1-az) fixes (1 - sqrt(1-a^2))/a; its orbit
    # under the group still enumerates cleanly, with the coincidences
    # deduplicated
    a = 0.5
    zf = (1.0 - math.sqrt(1.0 - a * a)) / a
    group = z2z2_group(a)
    orbit = enumerate_orbit(group, complex(zf), 8)
    pts = orbit.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert pseudo_hyperbolic(pts[i], pts[j]) > orbit.dedup_tol
    # closure: images of shallow points stay in the accepted set
    for p in enumerate_orbit(group, complex(zf), 7).points:
        for g in group.generators:
            assert any(pseudo_hyperbolic(g(p), q) <= 1e-9 for q in pts)


def test_negative_parameter_orbit_matches_reflected():
    # the orbit of 0 under the cyclic group at -a mirrors the one at +a
    plus = enumerate_orbit(cyclic_group(0.45), 0j, 6).points
    minus = enumerate_orbit(cyclic_group(-0.45), 0j, 6).points
    assert len(plus) == len(minus)
    for p, m in zip(plus, minus):
        assert abs(p + m) <= 1e-14


def test_deep_orbit_drops_unrepresentable_points():
    orbit = enumerate_orbit(cyclic_group(0.5), 0j, 200)
    assert orbit.dropped > 0
    assert all(abs(p) < 1.0 - 1e-14 for p in orbit.points)
    assert orbit.tail_bound >= orbit.dropped_weight
    # the certified total never moves once the tail is below resolution
    o2 = enumerate_orbit(cyclic_group(0.5), 0j, 300)
    assert abs(o2.partial_sum - orbit.partial_sum) <= 1e-12


def test_z2z2_has_two_reduced_words_per_length():
    from orbitpick.orbits import _generic_elements

    group = z2z2_group(0.5)
    counts = {}
    for word, _elem in _generic_elements(group, 7, 10**4):
        counts[len(word)] = counts.get(len(word), 0) + 1
    assert counts[0] == 1
    for length in range(1, 8):
        assert counts[length] == 2


def test_stabilizer_orders():
    assert stabilizer_order_origin(cyclic_group(0.5)) == 1
    assert stabilizer_order_origin(z2z2_group(0.5)) == 2
    half_turn = DiskAutomorphism(0j, 1.0 + 0j)
    involution = DiskAutomorphism(0.5 + 0j, 1.0 + 0j)
    assert stabilizer_order_origin(generic_group([half_turn, involution])) == 2
    assert stabilizer_order_origin(generic_group([iterate_cyclic(0.5, 1)])) == 1


def test_generic_orbit_has_no_tail_bound():
    orbit = enumerate_orbit(generic_group([iterate_cyclic(0.5, 1)]), 0j, 3)
    assert orbit.tail_bound is None


def test_z2z2_normal_form_examples():
    assert z2z2_normal_form("ab") == (1, False)      # half-turn then involution
    assert z2z2_normal_form("aa") == (0, False)      # half-turn squared
    assert z2z2_normal_form("b") == (-1, True)
    assert z2z2_normal_form("βγ") == (1, False)
    assert z2z2_normal_form("") == (0, False)
    with pytest.raises(InputError):
        z2z2_normal_form("abc")


def test_z2z2_normal_form_against_maps():
    # the reduced form of any word acts identically to the word itself
    a = 0.5
    group = z2z2_group(a)
    half_turn, involution = group.generators
    probes = [0.1, 0.3 + 0.2j, -0.45j, 0.2 - 0.3j, -0.6]

    def word_map(word):
        m = DiskAutomorphism.identity()
        for ch in word:
            m = m.compose(half_turn if ch == "a" else involution)
        return m

    def normal_map(m, has_half_turn):
        out = iterate_cyclic(a, m)
        if has_half_turn:
            out = out.compose(half_turn)
        return out

    for word in ("b", "ab", "ba", "bab", "abab", "aabba", "babab"):
        m, eps = z2z2_normal_form(word)
        f = word_map(word)
        g = normal_map(m, eps)
        for z in probes:
            assert abs(f(z) - g(z)) <= 1e-12


def test_group_presentation_rejects_identity_generator():
    with pytest.raises(InputError):
        generic_group([DiskAutomorphism.identity()])
    with pytest.raises(InputError):
        cyclic_group(0.0)


def test_cyclic_orbit_weight_matches_iterates():
    for a in (0.3, 0.5, 0.7):
        for n in range(1, 26):
            direct = 1.0 - iterate_cyclic(a, n).a.real
            stable = cyclic_orbit_weight(a, n)
            assert abs(direct - stable) <= 1e-12


# -- cell-index dedup against an all-pairs reference -------------------------


class _AllPairsCollector:
    """Reference for orbits._Collector: every candidate is compared
    with every accepted point."""

    def __init__(self, dedup_tol, cap):
        self.dedup_tol = dedup_tol
        self.cap = cap
        self.entries = []
        self.partial_sum = 0.0
        self.dropped = 0
        self.dropped_weight = 0.0

    def offer(self, word, point):
        mod = abs(point)
        if mod >= 1.0 - DISK_BOUNDARY_MARGIN:
            self.dropped += 1
            self.dropped_weight += max(1.0 - mod, 0.0) + orbits._DROPPED_WEIGHT
            return
        for e in self.entries:
            if pseudo_hyperbolic(point, e.point) <= self.dedup_tol:
                return
        if len(self.entries) >= self.cap:
            raise OrbitExplosion("cap")
        w = 1.0 - mod
        self.entries.append(orbits.OrbitEntry(word, point, w))
        self.partial_sum += w


def _all_pairs_elements(group, n_max, cap):
    """Reference for orbits._generic_elements with a linear scan."""
    letters = orbits._letters(group)
    identity = DiskAutomorphism.identity()
    seen = [identity]
    frontier = [("", identity)]
    yield "", identity
    for _ in range(n_max):
        nxt = []
        for word, elem in frontier:
            for ch, gen in letters:
                try:
                    cand = elem.compose(gen)
                except NotDiskAutomorphism:
                    continue
                if any(orbits._same_element(cand, s) for s in seen):
                    continue
                if len(seen) >= cap:
                    raise OrbitExplosion("cap")
                seen.append(cand)
                if abs(cand.a) < 1.0 - DISK_BOUNDARY_MARGIN:
                    nxt.append((word + ch, cand))
                yield word + ch, cand
        frontier = nxt
        if not frontier:
            return


def _reference_orbit(group, base, depth, dedup_tol):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "_Collector", _AllPairsCollector)
        mp.setattr(orbits, "_generic_elements", _all_pairs_elements)
        return enumerate_orbit(group, base, depth, dedup_tol)


def _assert_same_orbit(got, want):
    assert got.entries == want.entries  # words, points and weights, bitwise
    assert got.partial_sum == want.partial_sum
    assert got.dropped == want.dropped
    assert got.dropped_weight == want.dropped_weight
    assert got.tail_bound == want.tail_bound


def _unit(angle):
    return cmath.exp(1j * angle)


@st.composite
def generic_presentations(draw):
    count = draw(st.integers(2, 3))
    angles = st.floats(0.0, 2.0 * math.pi)
    gens = [
        DiskAutomorphism(draw(st.floats(0.2, 0.8)) * _unit(draw(angles)),
                         _unit(draw(angles)))
        for _ in range(count)
    ]
    if draw(st.booleans()):
        # the rotation z -> exp(2 pi i / k) z, of finite order k
        k = draw(st.integers(2, 6))
        gens[0] = DiskAutomorphism(0j, -_unit(2.0 * math.pi / k))
    return generic_group(gens)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    group=generic_presentations(),
    depth=st.integers(1, 3),
    base=st.sampled_from([0j, 0.15 - 0.3j, 0.6 + 0.2j]),
    dedup_tol=st.sampled_from([1e-12, 1e-6]),
)
def test_generic_dedup_matches_all_pairs_reference(group, depth, base, dedup_tol):
    _assert_same_orbit(
        enumerate_orbit(group, base, depth, dedup_tol),
        _reference_orbit(group, base, depth, dedup_tol),
    )
    want = list(_all_pairs_elements(group, depth, 10**4))
    assert list(orbits._generic_elements(group, depth, 10**4)) == want


@pytest.mark.parametrize("dedup_tol", [1e-12, 1e-6])
@pytest.mark.parametrize("kind", ["cyclic", "z2z2"])
def test_closed_form_dedup_matches_all_pairs_reference(kind, dedup_tol):
    a = 0.5
    zf = complex((1.0 - math.sqrt(1.0 - a * a)) / a)  # fixed by the involution
    group = cyclic_group(a) if kind == "cyclic" else z2z2_group(a)
    for base in (0j, zf, 0.1 + 0.2j):
        _assert_same_orbit(
            enumerate_orbit(group, base, 120, dedup_tol),
            _reference_orbit(group, base, 120, dedup_tol),
        )


def _straddling_pair(center, direction, dedup_tol, factor):
    """Two points about ``factor * dedup_tol`` apart (pseudo-hyperbolic)
    on either side of the dedup grid corner nearest ``center``."""
    side = 4.0 * dedup_tol
    corner = complex(round(center.real / side) * side, round(center.imag / side) * side)
    half = 0.5 * factor * dedup_tol * (1.0 - abs(corner) ** 2) * direction
    return corner - half, corner + half


def _offer_all(collector, points):
    for k, p in enumerate(points):
        collector.offer(f"w{k}", p)
    return collector


@pytest.mark.parametrize("dedup_tol", [1e-12, 1e-6])
@pytest.mark.parametrize("factor", [0.5, 0.99, 1.01])
def test_dedup_across_a_cell_edge(factor, dedup_tol):
    side = 4.0 * dedup_tol
    for center in (0.3 + 0.2j, -0.45 - 0.1j, 0.05j):
        for direction in (1.0, 1j, _unit(math.pi / 4), _unit(-math.pi / 4)):
            p, q = _straddling_pair(center, direction, dedup_tol, factor)
            cell_p = (math.floor(p.real / side), math.floor(p.imag / side))
            cell_q = (math.floor(q.real / side), math.floor(q.imag / side))
            assert cell_p != cell_q
            col = _offer_all(orbits._Collector(dedup_tol, 10), [p, q])
            assert len(col.entries) == (1 if factor < 1.0 else 2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dedup_tol=st.sampled_from([1e-12, 1e-6]),
    pairs=st.lists(
        st.tuples(
            st.floats(0.0, 0.9),
            st.floats(0.0, 2.0 * math.pi),
            st.floats(0.0, 2.0 * math.pi),
            st.sampled_from([0.5, 0.99, 1.01]),
        ),
        max_size=8,
    ),
    rim=st.lists(
        st.tuples(st.floats(0.0, 1e-13), st.floats(0.0, 2.0 * math.pi)),
        max_size=6,
    ),
    repeats=st.lists(st.integers(0, 100), max_size=6),
)
def test_collector_matches_all_pairs_reference(dedup_tol, pairs, rim, repeats):
    points = []
    for radius, angle, turn, factor in pairs:
        center = radius * _unit(angle)
        points += _straddling_pair(center, _unit(turn), dedup_tol, factor)
    # points within 1e-13 of the unit circle, some past the drop margin
    points += [(1.0 - gap) * _unit(angle) for gap, angle in rim]
    if points:
        points += [points[k % len(points)] for k in repeats]
    got = _offer_all(orbits._Collector(dedup_tol, 10**4), points)
    want = _offer_all(_AllPairsCollector(dedup_tol, 10**4), points)
    assert got.entries == want.entries
    assert got.partial_sum == want.partial_sum
    assert got.dropped == want.dropped
    assert got.dropped_weight == want.dropped_weight


def test_subnormal_dedup_tolerance_matches_reference():
    group = z2z2_group(0.5)
    _assert_same_orbit(
        enumerate_orbit(group, 0j, 20, 5e-324),
        _reference_orbit(group, 0j, 20, 5e-324),
    )


# -- caps ----------------------------------------------------------------------


def _free_group():
    return generic_group([iterate_cyclic(0.5, 1), DiskAutomorphism(0.5j, 1.0 + 0j)])


@pytest.mark.parametrize("group,base,depth", [
    (cyclic_group(0.5), 0j, 30),
    # the involution's fixed point: coincident candidates arrive after
    # the last accepted point
    (z2z2_group(0.5), complex(2.0 - math.sqrt(3.0)), 12),
    (_free_group(), 0.1j, 4),
])
def test_point_cap_fires_at_the_exact_count(group, base, depth):
    full = enumerate_orbit(group, base, depth)
    size = len(full.entries)
    at_cap = enumerate_orbit(group, base, depth, max_points=size)
    assert at_cap.entries == full.entries
    with pytest.raises(OrbitExplosion):
        enumerate_orbit(group, base, depth, max_points=size - 1)


def test_element_cap_fires_at_the_exact_count():
    half_turn = DiskAutomorphism(0j, 1.0 + 0j)
    for group in (_free_group(), generic_group([half_turn, iterate_cyclic(0.4, 1)])):
        full = list(orbits._generic_elements(group, 4, 10**4))
        assert list(orbits._generic_elements(group, 4, len(full))) == full
        with pytest.raises(OrbitExplosion):
            list(orbits._generic_elements(group, 4, len(full) - 1))


def test_point_cap_counts_points_not_elements():
    # the half-turn fixes the base point, so the 13 elements up to length
    # 6 reach only 7 points; max_points bounds the points
    group = generic_group([DiskAutomorphism(0j, 1.0 + 0j), DiskAutomorphism(0.5, 1.0 + 0j)])
    orbit = enumerate_orbit(group, 0j, 6, max_points=7)
    assert len(orbit.entries) == 7
    assert orbit.entries == enumerate_orbit(group, 0j, 6).entries
    with pytest.raises(OrbitExplosion, match="accepted points"):
        enumerate_orbit(group, 0j, 6, max_points=6)
