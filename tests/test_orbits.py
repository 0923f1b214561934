import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from conftest import disk_points
from hypothesis import strategies as st

from orbitpick import orbits
from orbitpick.errors import InputError, NotDiskAutomorphism, OrbitExplosion
from orbitpick.kernels import OrbitGramKernel
from orbitpick.mobius import (
    DISK_BOUNDARY_MARGIN,
    DiskAutomorphism,
    canonicalize,
    iterate_cyclic,
    pseudo_hyperbolic,
)
from orbitpick.orbits import (
    GroupPresentation,
    cyclic_group,
    cyclic_orbit_weight,
    enumerate_orbit,
    generic_group,
    stabilizer_order_origin,
    z2z2_group,
)
from orbitpick.pick import PickProblem, assemble_pick


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
    group = z2z2_group(0.5)
    counts = {}
    for word, _elem in _element_pairs(group, 7, 10**4):
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


def test_a_stabilizer_order_searches_under_its_orbits_cap():
    # a Schottky group of three translations whose isometric circles are
    # disjoint: 117,187 orbit points at depth 7, within the orbit's cap
    # of 10**6 elements, so the count over the same elements succeeds too
    group = generic_group([
        canonicalize(1, -0.9 * cmath.exp(1j * t), -0.9 * cmath.exp(-1j * t), 1)
        for t in (0.0, 2.1, 4.2)
    ])
    assert len(enumerate_orbit(group, 0j, 7).entries) == 117187
    assert stabilizer_order_origin(group, 7) == 1


@pytest.mark.parametrize("group", [
    cyclic_group(0.5),
    z2z2_group(0.5),
    generic_group([iterate_cyclic(0.5, 1)]),
])
def test_stabilizer_order_rejects_negative_depth(group):
    with pytest.raises(InputError, match="max_word_length must be nonnegative"):
        stabilizer_order_origin(group, max_word_length=-3)


@pytest.mark.parametrize("kind, count, message", [
    ("dihedral", 1, "unknown group kind 'dihedral'"),
    ("generic", 0, "a group presentation needs at least one generator"),
    ("generic", 27, "at most 26 generators are supported"),
])
def test_group_presentations_refuse_a_malformed_list(kind, count, message):
    with pytest.raises(InputError) as info:
        GroupPresentation(kind, None, (iterate_cyclic(0.5, 1),) * count)
    assert str(info.value) == message


@pytest.mark.parametrize("depth, dedup_tol, message", [
    (-1, 1e-12, "max_word_length must be nonnegative"),
    (3, 0.0, "dedup_tol must lie in (0, 1e-6]"),
    (3, 2e-6, "dedup_tol must lie in (0, 1e-6]"),
])
def test_enumerate_orbit_refuses_a_bad_truncation(depth, dedup_tol, message):
    with pytest.raises(InputError) as info:
        enumerate_orbit(cyclic_group(0.5), 0j, depth, dedup_tol)
    assert str(info.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: cyclic_group(0.0), "cyclic parameter 0.0 must lie in (-1,1), nonzero"),
    (lambda: z2z2_group(-1.0), "z2z2 parameter -1.0 must lie in (-1,1), nonzero"),
    (lambda: cyclic_orbit_weight(0.0, 3), "parameter 0.0 must lie in (-1,1), nonzero"),
])
def test_closed_form_parameters_lie_in_the_open_interval(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


def test_generic_orbit_has_no_tail_bound():
    orbit = enumerate_orbit(generic_group([iterate_cyclic(0.5, 1)]), 0j, 3)
    assert orbit.tail_bound is None


def test_group_presentation_rejects_identity_generator():
    with pytest.raises(InputError):
        generic_group([DiskAutomorphism.identity()])
    with pytest.raises(InputError):
        cyclic_group(0.0)


@pytest.mark.parametrize("make", [cyclic_group, z2z2_group])
@pytest.mark.parametrize("a", [1e-12, 1e-17, -1e-300, 5e-324])
def test_a_parameter_too_small_to_translate_is_refused(make, a):
    # z -> (z - a)/(1 - a z) is then the identity map at double precision
    with pytest.raises(InputError, match="identity map"):
        make(a)


def test_cyclic_orbit_weight_matches_iterates():
    for a in (0.3, 0.5, 0.7):
        for n in range(1, 26):
            direct = 1.0 - iterate_cyclic(a, n).a.real
            stable = cyclic_orbit_weight(a, n)
            assert abs(direct - stable) <= 1e-12


# -- the orbit filter against an all-pairs reference ----------------------------


class _AllPairsCollector:
    """Reference for orbits._filter: candidates are taken one at a time,
    and every candidate is compared with every accepted point."""

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


def _element_pairs(group, n_max, cap):
    """orbits._generic_elements as the (word, element) pairs that
    _all_pairs_elements yields."""
    words, a, lam = orbits._generic_elements(group, n_max, cap)
    return [
        (word, DiskAutomorphism._trusted(x, y))
        for word, x, y in zip(words, a.tolist(), lam.tolist())
    ]


def _all_pairs_elements(group, n_max, cap):
    """Reference for orbits._generic_elements: each candidate in turn is
    compared by ``_same_element`` with every element kept before it.

    A scan of the parameters over all kept elements picks the ones
    within 2 * _ELEMENT_TOL, a superset of those ``_same_element`` can
    match, so the large cap tests stay fast.
    """
    letters = orbits._letters(group)
    identity = DiskAutomorphism.identity()
    seen = [identity]
    params = np.zeros(64, dtype=complex)  # params[k] = seen[k].a
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
                close = np.abs(params[:len(seen)] - cand.a) <= 2.0 * orbits._ELEMENT_TOL
                if any(orbits._same_element(cand.a, cand.lam, seen[k].a, seen[k].lam)
                       for k in np.flatnonzero(close)):
                    continue
                if len(seen) >= cap:
                    raise OrbitExplosion(f"group exploration exceeded the cap of {cap} elements")
                if len(seen) == params.size:
                    params = np.concatenate((params, np.zeros_like(params)))
                params[len(seen)] = cand.a
                seen.append(cand)
                if abs(cand.a) < 1.0 - DISK_BOUNDARY_MARGIN:
                    nxt.append((word + ch, cand))
                yield word + ch, cand
        frontier = nxt
        if not frontier:
            return


def _reference_candidates(group, base, depth):
    """(word, point) in enumeration order, one scalar map call each."""
    yield "", base
    a = group.a
    if group.kind == "cyclic":
        for n in range(1, depth + 1):
            yield "a" * n, iterate_cyclic(a, n)(base)
            yield "A" * n, iterate_cyclic(a, -n)(base)
    elif group.kind == "z2z2":
        for length in range(1, depth + 1):
            half = length // 2
            if length % 2 == 0:
                pa = iterate_cyclic(a, half)(base)
                pb = iterate_cyclic(a, -half)(base)
            else:
                pa = iterate_cyclic(a, half)(-base)
                pb = iterate_cyclic(a, -(half + 1))(-base)
            yield ("ab" * length)[:length], pa
            yield ("ba" * length)[:length], pb
    else:
        for word, elem in _all_pairs_elements(group, depth, orbits.DEFAULT_POINT_CAP):
            if word:
                yield word, elem(base)


def _reference_orbit(group, base, depth, dedup_tol):
    col = _offer_all(_AllPairsCollector(dedup_tol, orbits.DEFAULT_POINT_CAP),
                     _reference_candidates(group, base, depth))
    return orbits.Orbit(
        group=group,
        base=base,
        max_word_length=depth,
        dedup_tol=dedup_tol,
        entries=tuple(col.entries),
        partial_sum=col.partial_sum,
        tail_bound=orbits._tail_bound(group, base, depth, dedup_tol, col.dropped_weight),
        dropped=col.dropped,
        dropped_weight=col.dropped_weight,
    )


def _offer_all(collector, candidates):
    for word, point in candidates:
        collector.offer(word, point)
    return collector


def _assert_filters_like_reference(points, dedup_tol):
    """orbits._filter on the points as candidates, their entries given
    words w0, w1, ... as enumerate_orbit builds them, against the
    reference; returns the entries."""
    candidates = np.array(points, dtype=complex).reshape(-1)
    mod, accepted, dropped, dropped_weight = orbits._filter(candidates, dedup_tol, 10**4)
    entries = [
        orbits.OrbitEntry(f"w{k}", p, 1.0 - m)
        for k, p, m in zip(accepted.tolist(), candidates[accepted].tolist(),
                           mod[accepted].tolist())
    ]
    want = _offer_all(_AllPairsCollector(dedup_tol, 10**4),
                      ((f"w{k}", p) for k, p in enumerate(points)))
    assert entries == want.entries  # words, points and weights, bitwise
    assert dropped == want.dropped
    assert dropped_weight == want.dropped_weight
    return entries


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
    depth=st.integers(0, 4),
)
def test_stabilizer_count_is_the_per_element_count(group, depth):
    elements = _element_pairs(group, depth, 10**4)
    want = sum(abs(e(0j)) <= orbits.DEFAULT_DEDUP_TOL for _, e in elements)
    assert stabilizer_order_origin(group, depth) == want


_TWICE = DiskAutomorphism(0.5 * _unit(0.3), _unit(1.1))


# one generator listed twice: every candidate of one letter coincides
# with an earlier one
@example(
    group=generic_group([_TWICE, DiskAutomorphism(0j, -_unit(2.0 * math.pi / 3)), _TWICE]),
    depth=3, base=0.15 - 0.3j, dedup_tol=1e-12,
)
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
    assert _element_pairs(group, depth, 10**4) == want


def _linear_scan(pairs):
    """The (word, element) pairs kept when each is compared in turn with
    every pair kept before it."""
    kept = []
    for pair in pairs:
        if not any(orbits._same_element(pair[1].a, pair[1].lam, k[1].a, k[1].lam)
                   for k in kept):
            kept.append(pair)
    return kept


def _assert_admits_like_a_linear_scan(params):
    """orbits._admit on elements with the given (a, lam), split at every
    index into found elements and pending ones, against a linear scan;
    returns the kept pairs."""
    pairs = [(f"w{k}", DiskAutomorphism(a, lam)) for k, (a, lam) in enumerate(params)]
    want = _linear_scan(pairs)
    for split in range(len(pairs) + 1):
        found = _linear_scan(pairs[:split])
        pending = pairs[split:]
        keep = orbits._admit(*_params(found), *_params(pending))
        assert found + list(itertools.compress(pending, keep.tolist())) == want
    return want


def _params(pairs):
    """The arrays of a and of lam of the (word, element) pairs."""
    return (np.array([e.a for _, e in pairs], dtype=complex),
            np.array([e.lam for _, e in pairs], dtype=complex))


@pytest.mark.parametrize("order", [[0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 1, 0]])
@pytest.mark.parametrize("direction", [1.0, 1j, _unit(math.pi / 4), _unit(-2.0)])
def test_a_chain_of_near_elements_is_decided_in_order(direction, order):
    # A ~ B and B ~ C, but A and C differ by more than _ELEMENT_TOL
    step = 0.75 * orbits._ELEMENT_TOL * direction
    a = 0.3 + 0.2j
    chain = [(a, _unit(0.7)), (a + step, _unit(0.7)), (a + 2.0 * step, _unit(0.7))]
    elems = [DiskAutomorphism(*p) for p in chain]
    assert orbits._same_element(*chain[1], *chain[0])
    assert orbits._same_element(*chain[2], *chain[1])
    assert not orbits._same_element(*chain[2], *chain[0])
    kept = _assert_admits_like_a_linear_scan([chain[k] for k in order])
    if order == [0, 1, 2]:
        assert [e for _, e in kept] == [elems[0], elems[2]]


@pytest.mark.parametrize("order", [[0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 0, 1]])
@pytest.mark.parametrize("axis", [1.0, 1j])
def test_parameters_exactly_two_tolerances_apart(axis, order):
    # keys 0, tol and 2 tol apart in one coordinate: the middle one is
    # the same element as either end, the ends are not
    tol = orbits._ELEMENT_TOL
    base = 0.3j if axis == 1.0 else 0.3 + 0j
    params = [(base + k * tol * axis, 1j) for k in (0, 1, 2)]
    assert (params[2][0] - params[0][0]) == 2.0 * tol * axis
    kept = _assert_admits_like_a_linear_scan([params[k] for k in order])
    assert len(kept) == (1 if order[0] == 1 else 2)
    assert len(_assert_admits_like_a_linear_scan([params[0], params[2]])) == 2


def test_equal_parameters_with_distinct_factors_are_distinct_elements():
    a, tol = -0.2 + 0.45j, orbits._ELEMENT_TOL
    # a rotation of order 4 after a map gives four elements with one a
    rotations = [(a, 1j**k) for k in range(4)]
    assert len(_assert_admits_like_a_linear_scan(rotations)) == 4
    near_factors = [(a, _unit(0.2)), (a, _unit(0.2 + 3.0 * tol)), (a, _unit(0.2 + 0.5 * tol))]
    assert len(_assert_admits_like_a_linear_scan(near_factors)) == 2


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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["cyclic", "z2z2"]),
    a=st.floats(0.01, 0.95) | st.floats(-0.95, -0.01),
    base=disk_points(),
    depth=st.integers(0, 80),
    dedup_tol=st.sampled_from([1e-12, 1e-6]),
)
def test_closed_form_orbits_match_all_pairs_reference(kind, a, base, depth, dedup_tol):
    group = cyclic_group(a) if kind == "cyclic" else z2z2_group(a)
    _assert_same_orbit(
        enumerate_orbit(group, base, depth, dedup_tol),
        _reference_orbit(group, base, depth, dedup_tol),
    )


def _straddling_pair(center, direction, dedup_tol, factor):
    """Two points about ``factor * dedup_tol`` apart (pseudo-hyperbolic)
    on either side of the corner nearest ``center`` of a grid of side
    4 * dedup_tol."""
    side = 4.0 * dedup_tol
    corner = complex(round(center.real / side) * side, round(center.imag / side) * side)
    half = 0.5 * factor * dedup_tol * (1.0 - abs(corner) ** 2) * direction
    return corner - half, corner + half


@pytest.mark.parametrize("dedup_tol", [1e-12, 1e-6])
@pytest.mark.parametrize("factor", [0.5, 0.99, 1.01])
def test_dedup_across_a_cell_edge(factor, dedup_tol):
    for center in (0.3 + 0.2j, -0.45 - 0.1j, 0.05j):
        for direction in (1.0, 1j, _unit(math.pi / 4), _unit(-math.pi / 4)):
            p, q = _straddling_pair(center, direction, dedup_tol, factor)
            entries = _assert_filters_like_reference([p, q], dedup_tol)
            assert len(entries) == (1 if factor < 1.0 else 2)


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
    _assert_filters_like_reference(points, dedup_tol)


def _step(p, direction, distance):
    """A point about ``distance`` from p, pseudo-hyperbolically."""
    return p + distance * (1.0 - abs(p) ** 2) * direction


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dedup_tol=st.sampled_from([1e-12, 1e-6]),
    center=st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 2.0 * math.pi)),
    turn=st.floats(0.0, 2.0 * math.pi),
    order=st.permutations([0, 1, 2]),
)
def test_a_chain_of_near_points_is_decided_in_order(dedup_tol, center, turn, order):
    # A ~ B and B ~ C, but A and C are farther apart than dedup_tol: the
    # accepted set depends on which comes first, and in the order A, B, C
    # it is A and C; merging the whole chain would keep A alone.
    a = center[0] * _unit(center[1])
    b = _step(a, _unit(turn), 0.6 * dedup_tol)
    c = _step(b, _unit(turn), 0.6 * dedup_tol)
    assert pseudo_hyperbolic(b, a) <= dedup_tol and pseudo_hyperbolic(c, b) <= dedup_tol
    assert pseudo_hyperbolic(c, a) > dedup_tol
    chain = (a, b, c)
    entries = _assert_filters_like_reference([chain[k] for k in order], dedup_tol)
    if order == [0, 1, 2]:
        assert [e.point for e in entries] == [a, c]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    exponent=st.integers(20, 45),
    start=st.tuples(st.integers(-2**15, 2**15), st.integers(-2**15, 2**15)),
    steps=st.lists(st.sampled_from([1, 1j, -1, -1j, 1 + 1j]), min_size=1, max_size=12),
    near=st.lists(st.tuples(st.integers(0, 12), st.sampled_from([0.0, 0.4, 0.9, 1.1])),
                  max_size=6),
)
def test_gaps_of_exactly_four_tolerances(exponent, start, steps, near):
    # With dedup_tol a power of two, the points m * 4 * dedup_tol are
    # exact, so consecutive coordinates differ by exactly 4 * dedup_tol:
    # the largest gap that does not split a cluster.
    dedup_tol = 2.0**-exponent
    side = 4.0 * dedup_tol
    point = complex(start[0] * side, start[1] * side)
    points = [point]
    for step in steps:
        point = point + side * step
        points.append(point)
    steps_taken = {q - p for p, q in zip(points, points[1:])}
    assert steps_taken <= {side * s for s in (1, 1j, -1, -1j, 1 + 1j)}
    # near-duplicates of some of them, pseudo-hyperbolically factor * tol away
    points += [_step(points[k % len(points)], 1j, factor * dedup_tol)
               for k, factor in near]
    _assert_filters_like_reference(points, dedup_tol)


def test_subnormal_dedup_tolerance_matches_reference():
    group = z2z2_group(0.5)
    _assert_same_orbit(
        enumerate_orbit(group, 0j, 20, 5e-324),
        _reference_orbit(group, 0j, 20, 5e-324),
    )


def test_an_orbit_on_a_line_is_filtered_in_near_linear_time(monkeypatch):
    # Translations along the imaginary axis and the half-turn map it to
    # itself, so every candidate has real part +0.0 or -0.0: the real
    # parts alone would put them all in one cluster.
    group = generic_group([
        DiskAutomorphism(0j, 1.0 + 0j),
        DiskAutomorphism(0.5j, -1.0 + 0j),
        DiskAutomorphism(0.3j, -1.0 + 0j),
    ])
    depth = 5
    candidates = len(_element_pairs(group, depth, 10**4))
    calls = []

    def counted(z, w):
        calls.append(None)
        return pseudo_hyperbolic(z, w)

    monkeypatch.setattr(orbits, "pseudo_hyperbolic", counted)
    orbit = enumerate_orbit(group, 0j, depth)
    monkeypatch.undo()
    assert all(p.real == 0.0 for p in orbit.points)
    assert candidates > 100 and len(orbit.entries) < candidates
    assert len(calls) < 2 * candidates
    _assert_same_orbit(orbit, _reference_orbit(group, 0j, depth, orbit.dedup_tol))


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
        full = _element_pairs(group, 4, 10**4)
        assert _element_pairs(group, 4, len(full)) == full
        with pytest.raises(OrbitExplosion):
            _element_pairs(group, 4, len(full) - 1)


def test_point_cap_counts_points_not_elements():
    # the half-turn fixes the base point, so the 13 elements up to length
    # 6 reach only 7 points; max_points bounds the points
    group = generic_group([DiskAutomorphism(0j, 1.0 + 0j), DiskAutomorphism(0.5, 1.0 + 0j)])
    orbit = enumerate_orbit(group, 0j, 6, max_points=7)
    assert len(orbit.entries) == 7
    assert orbit.entries == enumerate_orbit(group, 0j, 6).entries
    with pytest.raises(OrbitExplosion, match="accepted points"):
        enumerate_orbit(group, 0j, 6, max_points=6)


# -- one element search per group -----------------------------------------------


def _shared_group():
    half_turn = DiskAutomorphism(0j, 1.0 + 0j)
    return generic_group(
        [half_turn, iterate_cyclic(0.4, 1), DiskAutomorphism(0.3j, 1j)]
    )


def test_generic_element_search_runs_once_per_group(monkeypatch):
    depth = 3
    nodes, targets = (0.1 + 0.2j, -0.3j, 0.25), (0.1, 0.05j, -0.1)
    group = _shared_group()
    first = enumerate_orbit(group, 0j, depth)

    def composed_again(*args):
        raise AssertionError("the element search ran again")

    with monkeypatch.context() as mp:
        mp.setattr(DiskAutomorphism, "compose", composed_again)
        mp.setattr(orbits, "_compose_grid", composed_again)
        orders = [stabilizer_order_origin(group, m) for m in range(depth + 1)]
        other = enumerate_orbit(group, 0.2 - 0.1j, depth)
        pick = assemble_pick(PickProblem(nodes, targets, OrbitGramKernel(group, depth)))
        mp.setattr(orbits, "DEFAULT_POINT_CAP", 5)
        with pytest.raises(OrbitExplosion, match="exceeded the cap of 5 elements"):
            stabilizer_order_origin(group, depth)

    _assert_same_orbit(first, enumerate_orbit(_shared_group(), 0j, depth))
    _assert_same_orbit(other, enumerate_orbit(_shared_group(), 0.2 - 0.1j, depth))
    assert orders == [stabilizer_order_origin(_shared_group(), m) for m in range(depth + 1)]
    assert orders[-1] == 2
    fresh = PickProblem(nodes, targets, OrbitGramKernel(_shared_group(), depth))
    assert np.array_equal(pick.entries, assemble_pick(fresh).entries)


def test_deeper_element_search_replaces_the_kept_one():
    group = _shared_group()
    shallow = _element_pairs(group, 2, 10**4)
    deep = _element_pairs(group, 4, 10**4)
    assert group._elements[0] == 4
    assert deep == list(_all_pairs_elements(_shared_group(), 4, 10**4))
    assert _element_pairs(group, 2, 10**4) == shallow
    assert group == _shared_group() and repr(group) == repr(_shared_group())


# -- a search past its cap ---------------------------------------------------


def _free_group_of_three():
    return generic_group([
        canonicalize(1, -0.4, -0.4, 1),
        canonicalize(1, -0.3j, 0.3j, 1),
        canonicalize(1, 0.2 - 0.2j, 0.2 + 0.2j, 1),
    ])


def _rotation_group():
    # z -> iz and z -> (z - 0.5)/(1 - 0.5 z)
    return generic_group([canonicalize(1j, 0, 0, 1), canonicalize(1, -0.5, -0.5, 1)])


def _composes(monkeypatch, owner, name, search):
    """(compositions asked of ``owner.name``, the elements or the
    OrbitExplosion message) of ``search()``.  ``name`` is the scalar
    ``compose``, one composition a call, or the batched composer, one a
    row."""
    calls = []
    compose = getattr(owner, name)

    def counted(*args):
        if name == "compose":
            calls.append(1)
        else:
            *_, start, stop = args
            calls.append(stop - start)
        return compose(*args)

    with monkeypatch.context() as mp:
        mp.setattr(owner, name, counted)
        try:
            result = search()
        except OrbitExplosion as exc:
            result = str(exc)
    return sum(calls), result


# 4687 elements have words of length at most 5 in the free group.  At
# cap 6 the half-turn's duplicate in _shared_group is filtered within
# level 1, and a search to depth 1 must stop at the end of that level.
@pytest.mark.parametrize("cap", [5, 6, 37, 100, 1000, 4000, 4687, 4688, 20000])
@pytest.mark.parametrize("make", [_free_group_of_three, _shared_group, _rotation_group])
@pytest.mark.parametrize("depth", [1, 7])
def test_a_search_past_its_cap_composes_no_more_than_one_at_a_time(
    monkeypatch, depth, make, cap
):
    got = _composes(monkeypatch, orbits, "_compose_grid",
                    lambda: _element_pairs(make(), depth, cap))
    want = _composes(monkeypatch, DiskAutomorphism, "compose",
                     lambda: list(_all_pairs_elements(make(), depth, cap)))
    assert got == want
