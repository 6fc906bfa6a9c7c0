import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qtoric import (Cone, DimensionError, PreconditionError, SizeLimitError,
                    Sublattice, cone_facets, hilbert_basis, lattice_of, linalg)
from qtoric import lattice_geometry
from qtoric.lattice_geometry import primitive, vdot

from .oracles import (GramSublattice, brute_cone_points, brute_facets,
                      brute_hilbert_basis, brute_members_by_degree,
                      exhaustive_hilbert_basis, rescan_double_description, same_lattice,
                      subset_scan_facets, sympy_rank)

# the 3D cone with facet normals (0,1,0),(0,0,1),(1,-1,0),(1,0,-1)
SQUARE_CONE = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((-2, -4)) == (-1, -2)  # direction is kept
    assert primitive((0, 3, 0)) == (0, 1, 0)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_lattice_of_examples():
    assert lattice_of([(2,), (3,)]).rank == 1
    assert lattice_of([(2,), (3,)]).basis == ((1,),)
    l = lattice_of([(1, 0), (1, 1), (1, 2)])
    assert l.rank == 2
    assert l.basis == ((1, 0), (0, 1))
    empty = lattice_of([], ambient_dim=2)
    assert empty.rank == 0
    assert empty.basis == ()
    assert not empty.contains((1, 0))
    assert empty.contains((0, 0))


def test_lattice_of_errors():
    with pytest.raises(DimensionError):
        lattice_of([])
    with pytest.raises(DimensionError):
        lattice_of([(1, 0), (1,)])
    with pytest.raises(DimensionError):
        lattice_of([(1, 0)], ambient_dim=3)


def test_lattice_of_idempotent():
    for vecs in [[(2,), (3,)], [(1, 0), (1, 2)], [(2, 0), (0, 3)],
                 [(2, 4, 6), (1, 3, 5), (0, 1, 1)], [(6, 10), (10, 15)]]:
        l = lattice_of(vecs)
        again = lattice_of(list(l.basis), ambient_dim=l.ambient_dim)
        assert again.rank == l.rank
        assert again.basis == l.basis
        assert same_lattice(l.basis, vecs if l.rank == len(vecs) else again.basis)
        assert all(l.contains(v) for v in vecs)


def test_sublattice_coordinates_round_trip():
    l = lattice_of([(2, 0), (0, 3)])
    assert l.coordinates((2, 3)) == (1, 1)
    assert l.coordinates((4, 0)) == (2, 0)
    assert l.from_coordinates((1, 1)) == (2, 3)
    # (1,0) is in the rational span but not in the lattice
    assert l.coordinates((1, 0)) is None
    assert l.ray_coordinates((1, 0)) == (1, 0)
    assert not l.contains((1, 0))
    assert l.contains((2, -3))


def test_sublattice_span_membership():
    l = lattice_of([(1, 1)])
    assert l.ray_coordinates((1, 0)) is None
    assert l.contains((3, 3))
    assert not l.contains((1, 2))


def test_transform_sends_basis_to_unit_vectors():
    for vecs in [[(2, 0), (0, 3)], [(1, 2, 3), (0, 4, 5)], [(2,), (3,)]]:
        l = lattice_of(vecs)
        for i, b in enumerate(l.basis):
            assert l.coordinates(b) == tuple(int(i == j) for j in range(l.rank))


def test_standard_lattice():
    l = Sublattice.standard(3)
    assert l.is_full()
    assert l.coordinates((4, -1, 7)) == (4, -1, 7)
    assert not lattice_of([(2, 0), (0, 3)]).is_full()
    assert lattice_of([(1, 0), (1, 1)]).is_full()
    # an echelon basis with unit pivots spans Z^d, reduced or not
    assert Sublattice(2, 2, ((1, 1), (0, 1))).is_full()


def test_sublattice_refuses_a_basis_not_in_echelon_form():
    for rank, basis in [(2, ((0, 1), (1, 0))), (2, ((1, 0), (2, 1))), (1, ((-1, 0),)),
                        (1, ((0, 0),)), (2, ((1, 0),)), (1, ((1, 0, 0),))]:
        with pytest.raises(ValueError, match="not in echelon form"):
            Sublattice(2, rank, basis)
    assert Sublattice(2, 2, ((2, 5), (0, 3))).coordinates((2, 8)) == (1, 1)


@st.composite
def lattice_queries(draw):
    """Generators in Z^d, d <= 6, of every rank including 0, entries -3..3,
    with repeated and dependent vectors; plus queries inside the lattice,
    inside the span only (rational combinations), and outside the span."""
    dim = draw(st.integers(1, 6))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    base = draw(st.lists(vec, max_size=dim))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    combine = lambda vs, cs: tuple(sum(c * v[j] for c, v in zip(cs, vs)) for j in range(dim))
    gens = base + [combine(base, draw(coeffs)) for _ in range(draw(st.integers(0, 3)))]
    gens += draw(st.lists(st.sampled_from(gens), max_size=2)) if gens else []
    gens = draw(st.permutations(gens))
    queries = [combine(gens, draw(st.lists(st.integers(-2, 2), min_size=len(gens),
                                           max_size=len(gens)))) for _ in range(2)]
    queries += [primitive(m) for m in queries if any(m)]
    queries += draw(st.lists(vec, min_size=1, max_size=2)) + base
    return gens, dim, queries


def test_sublattice_matches_gram_inverse_oracle():
    kinds = {"lattice": 0, "span only": 0, "outside": 0}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lattice_queries())
    def check(case):
        gens, dim, queries = case
        lat = lattice_of(gens, dim)
        old = GramSublattice(lat.basis, dim)
        for v in queries:
            assert lat.coordinates(v) == old.coordinates(v), (gens, v)
            assert lat.contains(v) == (old.coordinates(v) is not None)
            if any(v):
                assert lat.ray_coordinates(v) == old.ray_coordinates(v), (gens, v)
            kinds["outside" if old.rational_coordinates(v) is None else
                  "lattice" if lat.contains(v) else "span only"] += 1

    check()
    assert min(kinds.values()) >= 50, kinds


def test_cone_facets_orthant():
    facets = cone_facets(Cone(((1, 0), (0, 1)), 2))
    assert [f.inner_normal for f in facets] == [(0, 1), (1, 0)]
    assert facets[0].incident == frozenset({0})
    assert facets[1].incident == frozenset({1})


def test_cone_facets_widening_rays():
    facets = cone_facets(Cone(((1, 0), (1, 1), (1, 2)), 2))
    assert [f.inner_normal for f in facets] == [(0, 1), (2, -1)]
    assert facets[0].incident == frozenset({0})
    assert facets[1].incident == frozenset({2})


def test_cone_facets_square_base():
    facets = cone_facets(Cone(tuple(SQUARE_CONE), 3))
    assert {f.inner_normal for f in facets} == {
        (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1)}


def test_cone_facets_match_brute_force():
    cones = [
        [(1, 0), (0, 1)],
        [(1, 0), (1, 1), (1, 2)],
        [(1, 0), (1, 3)],
        [(1, 2), (2, 1)],  # both normals have a negative entry
        SQUARE_CONE,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    ]
    for gens in cones:
        dim = len(gens[0])
        got = {(f.inner_normal, f.incident)
               for f in cone_facets(Cone(tuple(gens), dim))}
        assert got == brute_facets(gens, dim)


def test_facet_invariants():
    for gens in [[(1, 0), (1, 1), (1, 2)], SQUARE_CONE, [(1, 2), (2, 1)]]:
        dim = len(gens[0])
        for f in cone_facets(Cone(tuple(gens), dim)):
            pairings = [vdot(f.inner_normal, g) for g in gens]
            assert all(p >= 0 for p in pairings)
            assert f.incident == frozenset(
                i for i, p in enumerate(pairings) if p == 0)
            assert linalg.int_rank([gens[i] for i in f.incident]) == dim - 1
            assert primitive(f.inner_normal) == f.inner_normal


def test_removing_a_facet_enlarges_the_cone():
    # for each facet there is a point violating only that inequality
    for gens in [[(1, 0), (0, 1)], [(1, 0), (1, 1), (1, 2)], SQUARE_CONE]:
        dim = len(gens[0])
        facets = cone_facets(Cone(tuple(gens), dim))
        normals = [f.inner_normal for f in facets]
        for k, n in enumerate(normals):
            others = [m for j, m in enumerate(normals) if j != k]
            witness = next(
                x for x in itertools.product(range(-3, 4), repeat=dim)
                if vdot(n, x) < 0 and all(vdot(m, x) >= 0 for m in others))
            assert vdot(n, witness) < 0


def test_cone_facets_requires_full_dimension():
    with pytest.raises(PreconditionError):
        cone_facets(Cone(((1, 1),), 2))
    with pytest.raises(PreconditionError):
        cone_facets(Cone(((1, 0, 0), (0, 1, 0)), 3))


@st.composite
def full_cones(draw):
    """Full cones in Z^d, d <= 5, entries -2..3, often with a line, with
    repeated, scaled, interior, negated and zero generators in any order."""
    dim = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(-2, 3)] * dim),
                         min_size=dim, max_size=dim + 4))
    assume(sympy_rank(gens) == dim)
    for extra in draw(st.lists(st.sampled_from(["repeat", "scale", "sum", "negate", "zero"]),
                               max_size=3)):
        g, h = gens[0], gens[-1]
        gens.append({"repeat": g, "scale": tuple(2 * x for x in g),
                     "sum": tuple(a + b for a, b in zip(g, h)),
                     "negate": tuple(-x for x in g), "zero": (0,) * dim}[extra])
    return draw(st.permutations(gens)), dim


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(full_cones())
def test_cone_facets_match_subset_scan_random(cone):
    gens, dim = cone
    c = Cone(tuple(gens), dim)
    assert cone_facets(c) == subset_scan_facets(c)


def _random_rays(seed, dim, count, entries):
    """count distinct primitive rays with the given entries, spanning R^dim."""
    rng = random.Random(seed)
    rays = set()
    while len(rays) < count:
        g = tuple(rng.choice(entries) for _ in range(dim))
        if any(g):
            rays.add(primitive(g))
    rays = sorted(rays)
    assert linalg.int_rank(rays) == dim
    return rays


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(full_cones())
def test_double_description_matches_the_rescan_pass_random(cone):
    # the same facets, incidence masks and simplices, in the same order
    gens, dim = cone
    rays = list(dict.fromkeys(primitive(g) for g in gens if any(g)))
    assert lattice_geometry._double_description(rays, dim) == \
        rescan_double_description(rays, dim)


def test_double_description_matches_the_rescan_pass_on_larger_cones():
    # 0/1 cones at height one and 0..2 boxes up to d = 7, 16 rays
    for seed, dim, count, entries in [(1, 4, 8, range(2)), (2, 5, 12, range(2)),
                                      (3, 6, 14, range(3)), (4, 7, 16, range(3))]:
        rays = _random_rays(seed, dim, count, entries)
        if entries == range(2):
            rays = list(dict.fromkeys((1,) + r[1:] for r in rays))
            assert linalg.int_rank(rays) == dim
        assert lattice_geometry._double_description(rays, dim) == \
            rescan_double_description(rays, dim), (seed, dim)


def test_placing_triangulation_covers_the_cone_once():
    # a generic interior point lies in exactly one closed simplicial cone
    rng = random.Random(0)
    for seed, dim, count in [(1, 3, 7), (2, 4, 9), (3, 5, 10), (4, 6, 11)]:
        rays = _random_rays(seed, dim, count, range(3))
        _, simplices = lattice_geometry._double_description(rays, dim)
        inverses = [linalg.adjugate(linalg.transpose([rays[i] for i in s]))
                    for s in simplices]
        for _ in range(20):
            weights = [rng.randint(1, 10**6) for _ in rays]
            x = [sum(w * r[j] for w, r in zip(weights, rays)) for j in range(dim)]
            assert sum(all(Fraction(vdot(row, x), det) >= 0 for row in adj)
                       for adj, det in inverses) == 1


def test_cone_facets_and_hilbert_basis_count_their_work(monkeypatch):
    # d = 7, 16 generators with entries 0..2: no kernel is computed for the
    # facets, and one determinant and at most one parallelepiped per simplex
    # of the triangulation, against C(16, 7) = 11,440 ray subsets
    gens = _random_rays(7, 7, 16, range(3))
    cone = Cone(tuple(gens), 7)
    calls = {"kernel_basis": 0, "det_int": 0, "_parallelepiped_points": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(linalg, "kernel_basis"), (linalg, "det_int"),
                         (lattice_geometry, "_parallelepiped_points")]:
        counted(module, name)
    facets = cone_facets(cone)
    assert calls["kernel_basis"] == 0
    hb = hilbert_basis(cone, Sublattice.standard(7))
    _, simplices = lattice_geometry._double_description(gens, 7)
    assert calls["det_int"] == len(simplices)
    assert calls["_parallelepiped_points"] <= len(simplices)
    assert 10 * len(simplices) < comb(16, 7)
    assert facets == subset_scan_facets(cone)
    assert len(hb) > len(gens)


def test_cone_size_limits():
    many = tuple((1, k) for k in range(21))
    with pytest.raises(SizeLimitError):
        cone_facets(Cone(many, 2))
    e = tuple(tuple(int(i == j) for j in range(8)) for i in range(8))
    with pytest.raises(SizeLimitError):
        cone_facets(Cone(e, 8))


def test_hilbert_basis_orthant():
    hb = hilbert_basis(Cone(((1, 0), (0, 1)), 2), Sublattice.standard(2))
    assert hb == [(0, 1), (1, 0)]


def test_hilbert_basis_widening_rays():
    z2 = Sublattice.standard(2)
    assert hilbert_basis(Cone(((1, 0), (1, 2)), 2), z2) == [
        (1, 0), (1, 1), (1, 2)]
    assert hilbert_basis(Cone(((1, 0), (1, 3)), 2), z2) == [
        (1, 0), (1, 1), (1, 2), (1, 3)]


def test_hilbert_basis_numerical():
    # R+ meets Z in N, generated by 1
    hb = hilbert_basis(Cone(((2,), (3,)), 1), lattice_of([(2,), (3,)]))
    assert hb == [(1,)]


def test_hilbert_basis_sublattice():
    # index-2 sublattice: only even second coordinates are visible
    l = lattice_of([(1, 0), (0, 2)])
    hb = hilbert_basis(Cone(((1, 0), (1, 2)), 2), l)
    assert hb == [(1, 0), (1, 2)]


def test_hilbert_basis_matches_brute_force():
    cones = [
        [(1, 0), (1, 1), (1, 2)],
        [(1, 0), (1, 3)],
        [(1, 2), (2, 1)],
        SQUARE_CONE,
    ]
    for gens in cones:
        dim = len(gens[0])
        hb = hilbert_basis(Cone(tuple(gens), dim), Sublattice.standard(dim))
        windowed = [h for h in hb if sum(h) <= 6]
        assert windowed == brute_hilbert_basis(gens, dim, 6)
        # degree-bounded saturation: HB generates every cone point of sum <= 6
        generated = brute_members_by_degree(hb, 6)
        assert generated == set(brute_cone_points(gens, dim, 6))


def test_hilbert_basis_duplicate_and_zero_generators():
    hb = hilbert_basis(
        Cone(((0, 0), (1, 0), (2, 0), (0, 1)), 2), Sublattice.standard(2))
    assert hb == [(0, 1), (1, 0)]


def test_hilbert_basis_trivial_lattice():
    trivial = lattice_of([], ambient_dim=2)
    assert hilbert_basis(Cone(((0, 0),), 2), trivial) == []
    with pytest.raises(PreconditionError):
        hilbert_basis(Cone(((1, 0),), 2), trivial)


def test_hilbert_basis_rejects_lines():
    with pytest.raises(PreconditionError) as exc:
        hilbert_basis(Cone(((1,), (-1,)), 1), Sublattice.standard(1))
    assert exc.value.certificate in ((1,), (-1,))
    with pytest.raises(PreconditionError) as exc:
        hilbert_basis(
            Cone(((1, 0), (-1, 0), (0, 1)), 2), Sublattice.standard(2))
    c = exc.value.certificate
    assert c is not None and c[1] == 0 and c[0] != 0


def test_hilbert_basis_generator_outside_lattice_span():
    l = lattice_of([(0, 1)])
    with pytest.raises(PreconditionError) as exc:
        hilbert_basis(Cone(((1, 0), (0, 1)), 2), l)
    assert exc.value.certificate == (1, 0)


def test_hilbert_basis_point_budget(monkeypatch):
    z2 = Sublattice.standard(2)
    with pytest.raises(SizeLimitError):
        hilbert_basis(Cone(((1, 0), (1, 300001)), 2), z2)
    monkeypatch.setattr(lattice_geometry, "MAX_PARALLELEPIPED_POINTS", 2)
    with pytest.raises(SizeLimitError):
        hilbert_basis(Cone(((1, 0), (1, 3)), 2), z2)


def test_hilbert_basis_budget_refusal_enumerates_nothing(monkeypatch):
    # the triangulation is {(1,0),(1,2)} (|det| 2) and {(1,2),(1,5)} (|det| 3):
    # the first simplex fits the budget and the total does not, and the
    # budget is charged in full before any parallelepiped is enumerated
    calls = []
    monkeypatch.setattr(lattice_geometry, "_parallelepiped_points",
                        lambda rays: calls.append(rays) or [])
    monkeypatch.setattr(lattice_geometry, "MAX_PARALLELEPIPED_POINTS", 4)
    cone = Cone(((1, 0), (1, 2), (1, 5)), 2)
    with pytest.raises(SizeLimitError) as exc:
        hilbert_basis(cone, Sublattice.standard(2))
    assert calls == []
    assert "exceeds 4 points" in str(exc.value)
    assert "reached 5" in str(exc.value)


def test_hilbert_basis_matches_exhaustive_oracle():
    cones = [
        [(2,), (3,)],
        [(1, 0), (1, 1), (1, 2)],
        [(1, 0), (1, 3)],
        [(1, 2), (2, 1)],
        [(2, 1), (1, 3), (1, 1)],
        SQUARE_CONE,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        [(3, 1, 2), (0, 2, 3), (1, 0, 0), (2, 3, 1)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 5)],
        # a height-one 0/1 cone with 12 generators and a cone with entries 0..2
        [(1, 0, 0, 0, 0), (1, 0, 0, 1, 0), (1, 0, 0, 1, 1), (1, 0, 1, 0, 1),
         (1, 0, 1, 1, 0), (1, 1, 0, 0, 1), (1, 1, 0, 1, 0), (1, 1, 0, 1, 1),
         (1, 1, 1, 0, 0), (1, 1, 1, 0, 1), (1, 1, 1, 1, 0), (1, 1, 1, 1, 1)],
        [(0, 0, 0, 1, 2, 2), (0, 0, 0, 2, 0, 1), (0, 0, 2, 0, 0, 0),
         (0, 1, 2, 0, 2, 0), (0, 2, 0, 0, 2, 2), (1, 0, 0, 2, 0, 2),
         (1, 2, 0, 0, 1, 1), (2, 0, 1, 0, 0, 0), (2, 0, 1, 2, 0, 0),
         (2, 2, 0, 1, 2, 0)],
    ]
    for gens in cones:
        dim = len(gens[0])
        got = hilbert_basis(Cone(tuple(gens), dim), Sublattice.standard(dim))
        assert got == exhaustive_hilbert_basis(gens, dim)


@st.composite
def small_cones(draw, extra=2):
    """Full-dimensional cones in N^d, d <= 4, entries 0..3, at most d + extra generators."""
    dim = draw(st.integers(2, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * dim),
                         min_size=dim, max_size=dim + extra, unique=True))
    assume(sympy_rank(gens) == dim)
    return gens, dim


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(small_cones())
def test_hilbert_basis_matches_exhaustive_oracle_random(cone):
    gens, dim = cone
    got = hilbert_basis(Cone(tuple(gens), dim), Sublattice.standard(dim))
    assert got == exhaustive_hilbert_basis(gens, dim)
