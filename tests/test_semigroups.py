import dataclasses
import gc
import inspect
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qtoric import (AffineSemigroup, Cone, DimensionError, Facet, FacetSemigroup,
                    Membership, NotNormalError, PreconditionError, QtoricError, SizeLimitError,
                    Sublattice, VerificationError, cone_facets, decompose, elements_by_degree,
                    facet_subsemigroup, hilbert_basis, hilbert_function,
                    lattice_geometry, linalg, load_model, regularity_report)
from qtoric.lattice_geometry import vdot
from qtoric.semigroups import MAX_NORMALITY_MULTIPLE, MAX_WITNESS_SUMMANDS

from .oracles import (all_posets_up_to, bounded_brute_membership, brute_members_by_degree,
                      brute_membership, brute_normality_witness, checked_regularity_report,
                      decomposition_mismatch,
                      embedded_facets, embedded_is_pointed, embedded_membership,
                      embedded_pointed_data,
                      embedded_normality, embedded_regularity_report,
                      facet_presentation_mismatch, gorenstein_candidate_works,
                      h_star_is_palindromic, reference_facet_subsemigroup,
                      reference_membership, walk_search)
from .test_lattice_geometry import small_cones

SQUARE_CONE = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]


def test_construction():
    s = AffineSemigroup([(1, 0), (0, 1)])
    assert s.ambient_dim == 2
    assert s.positive
    assert not s.is_trivial()
    t = AffineSemigroup([], ambient_dim=3)
    assert t.is_trivial() and t.rank == 0
    assert not AffineSemigroup([(1, -1)]).positive


def test_construction_errors():
    with pytest.raises(ValueError):
        AffineSemigroup([(0, 0)])
    with pytest.raises(DimensionError):
        AffineSemigroup([(1, 0), (1,)])
    with pytest.raises(DimensionError):
        AffineSemigroup([])


def test_membership_numerical(n23):
    m = n23.membership((7,))
    assert m.member
    assert sorted(n23.witness_vectors(m)) == [(2,), (2,), (3,)]
    assert n23.membership((1,)) == Membership(False, None)
    assert n23.membership((0,)) == Membership(True, ())


def test_membership_planar(a1):
    m = a1.membership((2, 2))
    assert m.member
    assert sorted(a1.witness_vectors(m)) == [(1, 1), (1, 1)]
    assert not a1.membership((0, 1)).member
    with pytest.raises(ValueError):
        a1.witness_vectors(a1.membership((0, 1)))


def test_membership_dimension_error(a1):
    with pytest.raises(DimensionError):
        a1.membership((1, 0, 0))


def test_membership_pointed_non_positive():
    s = AffineSemigroup([(1, -1), (1, 1)])
    assert s.is_pointed() and not s.positive
    m = s.membership((2, 0))
    assert m.member
    assert sorted(s.witness_vectors(m)) == [(1, -1), (1, 1)]
    assert s.membership((0, 2)) == Membership(False, None)


def test_membership_with_a_line():
    # a cone with a line is refused as normality() refuses it, not as a size
    # refusal, and with the same certificate v: v pairs to 0 with every inner
    # normal, so v and -v both lie in the cone
    for gens, x in (([(2,), (-2,)], (4,)), ([(1, 0), (-1, 0), (0, 1)], (0, 1))):
        s = AffineSemigroup(gens)
        assert not s.is_pointed()
        with pytest.raises(PreconditionError) as exc:
            s.membership(x)
        assert not isinstance(exc.value, SizeLimitError)
        assert str(exc.value).startswith(
            "membership needs a pointed cone: cone contains a line"), gens
        with pytest.raises(PreconditionError) as by_normality:
            s.normality()
        v = exc.value.certificate
        assert any(v) and v == by_normality.value.certificate, gens
        assert all(vdot(f.inner_normal, v) == 0 for f in cone_facets(s.cone)), gens


def test_membership_api_has_no_bound():
    assert list(inspect.signature(AffineSemigroup.membership).parameters) == ["self", "x"]
    assert [f.name for f in dataclasses.fields(Membership)] == ["member", "witness"]
    with pytest.raises(TypeError):
        AffineSemigroup([(2,), (-2,)]).membership((4,), bound=3)


def test_membership_matches_brute_force(a1, nonnorm_gap, nonnorm_half):
    for s in [a1, nonnorm_gap, nonnorm_half]:
        for x in itertools.product(range(5), repeat=2):
            assert s.contains(x) == brute_membership(s.generators, x)
    rng = random.Random(3)
    for _ in range(10):
        gens = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)]
        gens = [g for g in gens if any(g)] or [(1, 1)]
        s = AffineSemigroup(gens)
        for x in itertools.product(range(4), repeat=2):
            assert s.contains(x) == brute_membership(gens, x)


def _random_semigroup(rng, kind, dim):
    """Generators of a seeded semigroup in Z^dim: positive, pointed but not
    positive (a unimodular image of a positive one; in dimension 1 its
    negative), non-full (a positive one with its first coordinate doubled or,
    in dimension 2 or more, copied into the last; sometimes sheared so that
    it is not positive), or with a line (some g together with -g)."""
    gens = [tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
    if kind == "nonfull":
        if dim == 1 or rng.random() < 0.5:
            gens = [(2 * g[0],) + g[1:] for g in gens]
        else:
            gens = [g[:-1] + (g[0],) for g in gens]
        if dim > 1 and rng.random() < 0.5:
            gens = [(g[0] - g[1],) + g[1:] for g in gens]
    elif kind == "pointed" and dim == 1:
        gens = [(-g[0],) for g in gens]
    elif kind == "pointed":
        i, j = rng.sample(range(dim), 2)
        k = rng.choice((-2, -1))
        gens = [tuple(c + k * g[j] if r == i else c for r, c in enumerate(g)) for g in gens]
    elif kind == "line":
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, 3))]
        g = tuple(rng.randint(-3, 3) for _ in range(dim))
        gens += [g, tuple(-c for c in g)]
    return [g for g in gens if any(g)]


def _walk_answers(gens, queries):
    """The decisions of the replaced walk search, on a fresh semigroup."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AffineSemigroup, "_search", staticmethod(walk_search))
        s = AffineSemigroup(gens)
        return [s.membership(x) for x in queries]


def test_membership_matches_the_walk_search():
    # each answer is the reference search's complete answer, with its weight
    # test, depth bound and summands-left memo, and the walk's: the same
    # decision and the same witness; a cone with a line is refused.  On a
    # positive, non-full S many queries lie outside G(S)
    rng = random.Random(23)
    done = {"positive": 0, "positive non-full": 0, "pointed": 0, "line": 0}
    while min(done.values()) < 15:
        kind = rng.choice(sorted(done))
        dim = rng.randint(1, 3)
        gens = _random_semigroup(rng, "nonfull" if kind == "positive non-full" else kind, dim)
        if not gens:
            continue
        s = AffineSemigroup(gens)
        if (s.is_pointed() == (kind == "line") or s.positive != kind.startswith("positive")
                or (kind == "positive non-full" and s.is_full())):
            continue
        low = 0 if s.positive else -8
        queries = [tuple(rng.randint(low, 15) for _ in range(dim)) for _ in range(30)]
        if kind == "line":
            for x in queries:
                if any(x):
                    with pytest.raises(PreconditionError, match="^membership needs a pointed"):
                        s.membership(x)
        else:
            for x, got, old in zip(queries, [s.membership(x) for x in queries],
                                   _walk_answers(gens, queries)):
                assert got == reference_membership(s, x) == old, (gens, x)
        done[kind] += 1


def _no_search(target, gens):
    raise AssertionError(f"searched for {target}")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_negative_facet_heights_are_refuted_with_no_search(data):
    # a member has heights <n, k(x)> >= 0 under every inner normal n of the
    # cone, k(x) its coordinates in G(S): one negative height refutes x
    # before any search, on a positive S (possibly non-full) and on its
    # unimodular images, which are pointed but not positive
    dim = data.draw(st.integers(1, 3))
    gens = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * dim), min_size=1, max_size=4))
    u = _drawn_unimodular(data, dim)
    gens = [tuple(vdot(row, g) for row in u) for g in gens if any(g)]
    assume(gens)
    s = AffineSemigroup(gens)
    _, normals, _ = embedded_pointed_data(s)
    k = data.draw(st.tuples(*[st.integers(-10**6, 10**6)] * s.rank))
    assume(any(vdot(n, k) < 0 for n in normals))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AffineSemigroup, "_search", staticmethod(_no_search))
        assert s.membership(s.group.from_coordinates(k)) == Membership(False, None)


def test_a_non_member_near_the_cone_is_refuted_at_once():
    # just outside A1 = {0 <= x_1 <= 2 x_0}: the search once walked to
    # Python's recursion limit on the second point
    for x in [(301, 603), (1001, 2003), (10**6 + 1, 2 * 10**6 + 3)]:
        a1 = AffineSemigroup([(1, 0), (1, 1), (1, 2)])
        start = time.perf_counter()
        assert not a1.contains(x)
        assert time.perf_counter() - start < 0.01, x


def _outcome(fn):
    """What a call returns, or the type, message and certificate of its refusal."""
    try:
        return fn()
    except QtoricError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "certificate", None)


def test_cone_answers_match_the_embedded_copy():
    # each cone answer reads the semigroup's one pass; the oracle recomputes
    # it the way it was, on a copy of S in coordinates of G(S) with the public
    # per-call cone_facets and hilbert_basis, each running its own pass
    rng = random.Random(24)
    cases = [[(1, 0), (1, 300001), (0, 1)],  # the parallelepiped budget
             [tuple(int(j <= i) for j in range(8)) for i in range(8)],  # dimension 8
             [(1, k) for k in range(21)],  # 21 rays
             [(-1, 1)] * 21 + [(-2, 2)]]  # 22 generators on one ray
    done = {"positive": 0, "pointed": 0, "nonfull": 0, "line": 0}
    while min(done.values()) < 40:
        kind = rng.choice(sorted(done))
        gens = _random_semigroup(rng, kind, rng.randint(1, 3))
        if gens:
            cases.append(gens)
            done[kind] += 1
    for gens in cases:
        s = AffineSemigroup(gens)
        assert _outcome(s.is_pointed) == _outcome(lambda: embedded_is_pointed(s)), gens
        cert = _outcome(s.normality)
        assert cert == _outcome(lambda: embedded_normality(s)), gens
        assert _outcome(s.facets) == _outcome(lambda: embedded_facets(s)), gens
        assert _outcome(lambda: regularity_report(s)) == \
            _outcome(lambda: embedded_regularity_report(s)), gens
        if s.is_full() and getattr(cert, "normal", False):
            assert decompose(s, 4).facet_semigroups == tuple(
                facet_subsemigroup(s, f) for f in cone_facets(s.cone)), gens
        if not s.positive and _outcome(s.is_pointed) is True:
            dim = s.ambient_dim
            for _ in range(10):
                x = tuple(rng.randint(-8, 8) for _ in range(dim))
                assert s.membership(x) == embedded_membership(s, x), (gens, x)
    # 22 generators on one ray: the pass charges its distinct rays, so this
    # S answers where is_pointed and normality once charged the generators
    s = AffineSemigroup([(1, -1)] * 21 + [(2, -2)])
    assert s.is_pointed() and s.normality() == embedded_normality(s)
    assert s.normality().normal


def test_every_cone_entry_counts_rays():
    # one pass charges the distinct rays, whichever entry builds it; the
    # image under (x, y) -> (x, y - x) is not positive, so its is_pointed
    # and membership go through the pointed search
    for gens, member in (([(1, 0), (0, 1)] + [(1, 0)] * 20, (3, 1)),
                         ([(1, -1), (0, 1)] + [(1, -1)] * 20, (3, -2))):
        s = AffineSemigroup(gens)
        assert s.is_pointed() and s.normality().normal, gens
        assert s.facets() == cone_facets(s.cone) and len(s.facets()) == 2, gens
        assert s.contains(member) and not s.contains((-1, 0)), gens
    assert regularity_report(AffineSemigroup([(1, 0), (0, 1)] + [(1, 0)] * 20)).as_regular
    refusal = ("SizeLimitError", "21 generators exceed the supported limit of 20", None)
    positive = AffineSemigroup([(1, k) for k in range(21)])
    image = AffineSemigroup([(1, k - 10) for k in range(21)])
    for s in (positive, image):
        for call in (s.normality, s.facets, lambda: cone_facets(s.cone)):
            assert _outcome(call) == refusal, s
    assert _outcome(lambda: regularity_report(positive)) == refusal
    assert _outcome(image.is_pointed) == refusal
    assert positive.is_pointed()  # a positive S is pointed without a pass


def test_normality_line_certificate_is_ambient():
    # the certificate v lies in Z^(n+1), not in coordinates of G(S), and it is
    # the one hilbert_basis gives on the cone and G(S); v and -v are both in
    # the cone: positive multiples of each are sums of a few generators
    for gens, line in (([(2, 0, 0), (-2, 0, 0), (0, 2, 2)], {(2, 0, 0)}),
                       ([(1, 0), (-1, 0), (0, 1)], {(1, 0), (-1, 0)}),
                       ([(0, 3, 0), (1, 1, 1), (0, -6, 0), (2, 2, 2)], {(0, 3, 0), (0, -3, 0)})):
        s = AffineSemigroup(gens)
        with pytest.raises(PreconditionError) as exc:
            s.normality()
        with pytest.raises(PreconditionError) as by_hilbert_basis:
            hilbert_basis(s.cone, s.group)
        v = exc.value.certificate
        assert v in line and v == by_hilbert_basis.value.certificate, gens
        for w in (v, tuple(-c for c in v)):
            assert any(bounded_brute_membership(s.generators, tuple(k * c for c in w), 3)
                       for k in (1, 2, 3)), (gens, w)


def test_numerical_membership_at_ten_thousand_is_fast():
    # only the first generator is left at the last level, which is decided
    # as a divisibility instead of one call per summand
    for gens in ([(2,), (3,)], [(5,), (7,), (11,)]):
        s = AffineSemigroup(gens)
        t = time.perf_counter()
        m = s.membership((10**4,))
        assert time.perf_counter() - t < 0.1
        assert m.member and sum(s.generators[i][0] for i in m.witness) == 10**4


def test_witness_beyond_the_summand_limit_is_refused():
    # the last level lists its m summands of one generator, so m is charged
    # before the list is built
    for gens, x, m in (([(1,)], (10**20,), 10**20),
                       ([(1, 0), (1, 1), (1, 2)], (10**20, 0), 10**20 - 1),
                       ([(1, -1), (1, 1)], (10**20, -10**20), 10**20 - 1),
                       ([(1,)], (MAX_WITNESS_SUMMANDS + 1,), MAX_WITNESS_SUMMANDS + 1)):
        with pytest.raises(SizeLimitError) as exc:
            AffineSemigroup(gens).contains(x)
        assert str(exc.value) == \
            f"a witness of {m} summands exceeds the supported limit of 1000000", gens
    assert AffineSemigroup([(1,)]).membership((MAX_WITNESS_SUMMANDS,)).witness == \
        (0,) * MAX_WITNESS_SUMMANDS


def test_no_fraction_inverse_is_reached(monkeypatch, n2, a1, n23, rays13, nonnorm_gap,
                                        nonnorm_half):
    def refuse(rows):
        raise AssertionError("linalg.invert_fractions was called")

    monkeypatch.setattr(linalg, "invert_fractions", refuse)
    load_model(str(Path(__file__).parent / "golden" / "demo.model"))
    decomposed = 0
    for fixture in (n2, a1, n23, rays13, nonnorm_gap, nonnorm_half):
        s = AffineSemigroup(fixture.generators)  # rebuilt with the guard in place
        regularity_report(s)
        if s.normality().normal:
            decompose(s)
            decomposed += 1
    assert decomposed == 3


def test_membership_search_frees_its_memo_on_return(a1):
    # the search's closure refers to itself; without a broken cycle its memo
    # of failed states would wait for the cyclic garbage collector
    gc.collect()
    gc.disable()
    try:
        assert a1.contains((7, 5)) and not a1.contains((2, 5))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_normality_examples(n2, a1, n23):
    assert n2.normality().normal
    cert = n23.normality()
    assert not cert.normal
    assert cert.witness_g == (1,)
    assert cert.witness_p == 2
    assert cert.saturation_hilbert_basis == ((1,),)
    a1_cert = a1.normality()
    assert a1_cert.normal
    assert sorted(a1_cert.saturation_hilbert_basis) == [(1, 0), (1, 1), (1, 2)]


def test_normality_gap_fixtures(nonnorm_gap, nonnorm_half):
    cert = nonnorm_gap.normality()
    assert (not cert.normal) and cert.witness_g == (1, 1) and cert.witness_p == 2
    cert2 = nonnorm_half.normality()
    assert (not cert2.normal) and cert2.witness_g == (1, 0) and cert2.witness_p == 2


def test_normality_matches_brute_force(n2, a1, rays13, n23, nonnorm_gap, nonnorm_half):
    for s in [n2, a1, rays13, n23, nonnorm_gap, nonnorm_half]:
        cert = s.normality()
        brute = brute_normality_witness(s.generators, s.ambient_dim)
        assert cert.normal == (brute is None)
        if not cert.normal:
            g, p = cert.witness_g, cert.witness_p
            assert not brute_membership(s.generators, g) if all(
                c >= 0 for c in g) else not s.contains(g)
            assert s.contains(tuple(p * c for c in g))


def test_normality_size_refusal_passes_through_and_is_cached(monkeypatch):
    # full and pointed, but the subset {(1,0), (1,300001)} alone exceeds the
    # 200,000-point parallelepiped budget of the Hilbert-basis step
    s = AffineSemigroup([(1, 0), (1, 300001), (0, 1)])
    with pytest.raises(SizeLimitError) as exc:
        s.normality()
    assert type(exc.value) is SizeLimitError
    assert "200000" in str(exc.value) and "300001" in str(exc.value)
    assert "pointed" not in str(exc.value)

    def enumerate_again(*args, **kwargs):
        raise AssertionError("the refusal was not kept")

    monkeypatch.setattr(lattice_geometry.ConePass, "hilbert_basis", enumerate_again)
    with pytest.raises(SizeLimitError) as again:
        s.normality()
    assert again.value is exc.value
    with pytest.raises(SizeLimitError):
        regularity_report(s)


def test_normality_multiple_beyond_the_limit_is_a_size_refusal(monkeypatch):
    # the saturation's Hilbert basis is (1,), and the least p with p in S is
    # 10001: beyond the limit, so the answer is a size refusal naming the
    # limit and the element, and it is kept; p = 10000 is still answered
    cert = AffineSemigroup([(10000,), (10001,)]).normality()
    assert (cert.normal, cert.witness_g, cert.witness_p) == (False, (1,), 10000)
    s = AffineSemigroup([(10001,), (10002,)])
    with pytest.raises(SizeLimitError) as exc:
        s.normality()
    assert str(exc.value) == (
        f"no multiple p * [1] with p <= {MAX_NORMALITY_MULTIPLE} lies in S; the least p "
        f"exceeds the supported limit of {MAX_NORMALITY_MULTIPLE}")
    monkeypatch.setattr(AffineSemigroup, "_normality", None)
    with pytest.raises(SizeLimitError) as again:
        s.normality()
    assert again.value is exc.value


def test_cone_limits_are_checked_before_the_embedding(monkeypatch):
    # the cone pass, in coordinates of G(S), is the work the limits bound
    built = []
    real = lattice_geometry._double_description
    monkeypatch.setattr(lattice_geometry, "_double_description",
                        lambda rays, d: built.append(rays) or real(rays, d))
    # the Hibi semigroup of an 8-element chain: rank 8, 8 rays
    chain = AffineSemigroup([tuple(int(j <= i) for j in range(8)) for i in range(8)])
    with pytest.raises(SizeLimitError) as exc:
        chain.normality()
    assert str(exc.value) == "dimension 8 exceeds the supported limit of 7"
    assert built == []
    with pytest.raises(SizeLimitError) as again:
        chain.normality()
    assert again.value is exc.value
    # 22 generators on 21 distinct rays: the generator limit, which counts
    # rays, still comes before the dimension limit
    units = [tuple(int(j == i) for j in range(8)) for i in range(8)]
    many = AffineSemigroup(units + [(2,) + (0,) * 7]
                           + [(1, k) + (0,) * 6 for k in range(1, 14)])
    with pytest.raises(SizeLimitError) as exc:
        many.normality()
    assert str(exc.value) == "21 generators exceed the supported limit of 20"
    assert built == []


def test_normality_line_is_a_pointedness_failure():
    s = AffineSemigroup([(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(PreconditionError) as exc:
        s.normality()
    assert not isinstance(exc.value, SizeLimitError)
    assert str(exc.value).startswith("normality needs a pointed cone: cone contains a line")


def test_require_normal(n2, n23):
    assert n2.require_normal().normal
    with pytest.raises(NotNormalError) as exc:
        n23.require_normal()
    assert exc.value.witness_g == (1,)
    assert exc.value.witness_p == 2
    assert exc.value.certificate == ((1,), 2)


def test_normal_membership_is_cone_and_group(n2, a1, rays13):
    # Gordan: for normal S, being a member is a lattice + half-space condition
    for s in [n2, a1, rays13]:
        assert s.normality().normal
        normals = [f.inner_normal for f in s.facets()]
        for x in itertools.product(range(-1, 5), repeat=2):
            geometric = (s.group.contains(x)
                         and all(vdot(n, x) >= 0 for n in normals))
            assert s.contains(x) == geometric


def test_pointedness(n2, a1):
    assert n2.is_pointed() and a1.is_pointed()
    assert AffineSemigroup([(1, -1), (1, 1)]).is_pointed()
    assert not AffineSemigroup([(1,), (-1,)]).is_pointed()
    assert AffineSemigroup([], ambient_dim=1).is_pointed()


def test_facets_of_semigroup(n2, a1):
    assert [f.inner_normal for f in n2.facets()] == [(0, 1), (1, 0)]
    assert [f.inner_normal for f in a1.facets()] == [(0, 1), (2, -1)]
    not_full = AffineSemigroup([(2, 0), (0, 2)])
    with pytest.raises(PreconditionError):
        not_full.facets()


def test_facet_semigroup_orthant(n2):
    tau = n2.facets()[0]  # inner normal (0,1)
    fs = facet_subsemigroup(n2, tau)
    assert fs.unit_basis == ((1, 0),)
    assert vdot(fs.inner_normal, fs.transversal) == 1
    assert fs.positive_generators == ((0, 1),)
    assert not fs.used_auxiliary_basis
    assert fs.contains((-5, 0)) and fs.contains((3, 2))
    assert not fs.contains((0, -1))
    coords, h = fs.iso_coordinates((3, 2))
    assert (coords, h) == ((3,), 2)
    assert fs.from_iso_coordinates((3,), 2) == (3, 2)


def test_facet_semigroup_interior_generator(a1):
    tau = a1.facets()[0]  # inner normal (0,1), incident generator (1,0)
    fs = facet_subsemigroup(a1, tau)
    assert fs.unit_basis == ((1, 0),)
    assert set(fs.positive_generators) == {(1, 1), (1, 2)}
    assert not fs.used_auxiliary_basis
    # the half-space {b >= 0}: every unit-lattice shift of a member is one
    assert fs.contains((-7, 1))


def test_facet_semigroup_unit_rank_two():
    s = AffineSemigroup(SQUARE_CONE)
    tau = next(f for f in s.facets() if f.inner_normal == (0, 1, 0))
    fs = facet_subsemigroup(s, tau)
    assert len(fs.unit_basis) == 2
    assert fs.unit_basis == ((1, 0, 0), (0, 0, 1))
    assert not fs.used_auxiliary_basis
    for u in fs.unit_basis:
        assert fs.contains(u) and fs.contains(tuple(-c for c in u))
    coords, h = fs.iso_coordinates((2, 1, 1))
    assert fs.from_iso_coordinates(coords, h) == (2, 1, 1)


def test_facet_semigroup_iso_generators(n2):
    fs = facet_subsemigroup(n2, n2.facets()[0])
    assert fs.iso_generators == ((1, 0), (0, 1))
    with pytest.raises(PreconditionError):
        fs.iso_coordinates((0, -1))
    with pytest.raises(PreconditionError):
        fs.from_iso_coordinates((0,), -1)


def test_facet_semigroup_refusals(n2, n23):
    with pytest.raises(NotNormalError):
        facet_subsemigroup(n23, n23.facets()[0])
    fake = Facet((1, -1), frozenset({0}))
    with pytest.raises(PreconditionError):
        facet_subsemigroup(n2, fake)


def test_facet_semigroups_match_the_reference(n2, a1, rays13):
    # the unit basis, transversal, positive generators and flag of every
    # facet equal those of the reference's incident-or-kernel choice
    wide = hilbert_basis(Cone(((1, 0, 0), (1, 2, 0), (1, 0, 3)), 3), Sublattice.standard(3))
    for s in (n2, a1, rays13, AffineSemigroup(SQUARE_CONE), AffineSemigroup(wide)):
        assert s.normality().normal and s.is_full(), s
        for f in s.facets():
            assert facet_subsemigroup(s, f) == reference_facet_subsemigroup(s, f), (s, f)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(small_cones(extra=1))
def test_facet_semigroups_match_the_reference_random(cone):
    # the Hilbert basis of a full cone generates a normal full semigroup; one
    # of more than 20 elements is beyond the cone limit of its pass
    gens, dim = cone
    hb = hilbert_basis(Cone(tuple(gens), dim), Sublattice.standard(dim))
    assume(len(hb) <= lattice_geometry.MAX_CONE_GENERATORS)
    s = AffineSemigroup(hb)
    for f in s.facets():
        assert facet_subsemigroup(s, f) == reference_facet_subsemigroup(s, f), (gens, f)


def test_facet_semigroup_refuses_a_normal_off_the_cone_pass(n2):
    # (1, 1) is nonnegative on N^2 and has height 1 on both generators, so
    # the reference builds a wrong S_tau for it; (7, 11) has no generator of
    # height 1.  Neither is a facet normal of N^2
    for normal in ((1, 1), (7, 11)):
        with pytest.raises(PreconditionError) as exc:
            facet_subsemigroup(n2, Facet(normal, frozenset()))
        assert str(exc.value) == f"{list(normal)} is not the inner normal of a facet of S"
    assert reference_facet_subsemigroup(n2, Facet((1, 1), frozenset())).unit_basis == \
        ((1, -1),)
    with pytest.raises(VerificationError):
        reference_facet_subsemigroup(n2, Facet((7, 11), frozenset()))


def test_decompose_orthant(n2):
    dec = decompose(n2)
    assert len(dec.facet_semigroups) == 2
    assert dec.verified_to_degree == 6


def test_decompose_widening(a1):
    dec = decompose(a1)
    assert {fs.inner_normal for fs in dec.facet_semigroups} == {(0, 1), (2, -1)}
    # membership in S is exactly membership in both half-spaces
    for x in itertools.product(range(-2, 4), repeat=2):
        in_all = all(fs.contains(x) for fs in dec.facet_semigroups)
        assert in_all == a1.contains(x)


def test_decompose_refuses_non_normal(n23):
    with pytest.raises(NotNormalError) as exc:
        decompose(n23)
    assert exc.value.witness_g == (1,)


def test_decompose_requires_full():
    # normal and pointed, but G(S) = {x : x_0 + x_1 even}
    s = AffineSemigroup([(1, -1), (1, 1)])
    with pytest.raises(PreconditionError) as exc:
        decompose(s)
    assert str(exc.value) == "decomposition needs a full semigroup"


def test_facet_semigroups_match_box_scan(n2, a1, rays13):
    for s in [n2, a1, rays13, AffineSemigroup(SQUARE_CONE)]:
        for facet in s.facets():
            fs = facet_subsemigroup(s, facet)
            assert facet_presentation_mismatch(fs, 2) is None


def test_facet_certificate_refuses_where_box_scan_fails(n2):
    # <(7,11), x> >= 0 holds on N^2, but (7, 11) is no facet normal of N^2,
    # and the box scan finds where its presentation fails
    with pytest.raises(PreconditionError):
        facet_subsemigroup(n2, Facet((7, 11), frozenset()))
    bogus = FacetSemigroup(Facet((7, 11), frozenset()), 2, ((11, -7),), (-3, 2),
                           ((1, 0), (0, 1)), True)
    assert facet_presentation_mismatch(bogus, 2) is not None


def test_decompose_matches_composition_oracle(n2, a1, rays13):
    for s in [n2, a1, rays13, AffineSemigroup(SQUARE_CONE)]:
        dec = decompose(s, 9)
        assert dec.verified_to_degree == 9
        normals = [fs.inner_normal for fs in dec.facet_semigroups]
        assert normals == [f.inner_normal for f in s.facets()]
        assert decomposition_mismatch(s.generators, normals, 6) is None


def test_composition_oracle_sees_a_gap(nonnorm_gap):
    # the facet half-spaces of a non-normal S hold a point outside S
    normals = [f.inner_normal for f in nonnorm_gap.facets()]
    assert decomposition_mismatch(nonnorm_gap.generators, normals, 6) == (1, 1)


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(small_cones(extra=1))
def test_facet_certificates_match_oracles_random(cone):
    # the Hilbert basis of a full cone generates a normal full semigroup
    gens, dim = cone
    s = AffineSemigroup(hilbert_basis(Cone(tuple(gens), dim), Sublattice.standard(dim)))
    dec = decompose(s, 4)
    for fs in dec.facet_semigroups:
        assert facet_presentation_mismatch(fs, 1) is None
    normals = [fs.inner_normal for fs in dec.facet_semigroups]
    assert decomposition_mismatch(s.generators, normals, 4) is None


def test_regularity_orthant(n2):
    r = regularity_report(n2)
    assert r.normal and r.maximal_order
    assert r.as_cohen_macaulay == "yes"
    assert r.as_gorenstein == "yes"
    assert r.gorenstein_witness == (1, 1)
    assert r.as_regular
    assert r.has_balanced_dualizing_complex
    assert r.rank == 2


def test_second_regularity_report_runs_no_facet_search(rays13, monkeypatch):
    calls = []

    def counting(rays, d):
        calls.append(rays)
        return real(rays, d)

    real = lattice_geometry._double_description
    monkeypatch.setattr(lattice_geometry, "_double_description", counting)
    first = regularity_report(rays13)
    assert calls
    calls.clear()
    assert regularity_report(rays13) == first
    assert calls == []


def test_regularity_widening(a1):
    r = regularity_report(a1)
    assert r.normal and r.as_gorenstein == "yes"
    assert r.gorenstein_witness == (1, 1)
    assert not r.as_regular  # three Hilbert-basis elements in rank 2


def _down_sets(n, relations):
    below = {b: {a for a, c in relations if c == b} for b in range(n)}
    return [ideal for size in range(n + 1) for ideal in itertools.combinations(range(n), size)
            if all(below[b] <= set(ideal) for b in ideal)]


def test_gorenstein_matches_h_star_symmetry():
    # normal height-one cones with group Z^d, Gorenstein or not
    cones = [
        [(1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 1, 0), (1, 1, 1, 1)],
        [(1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)],
        [(1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)],
        [(1, 0, 0, 0, 0), (1, 0, 0, 1, 0), (1, 0, 1, 0, 0), (1, 0, 1, 1, 1), (1, 1, 0, 0, 0),
         (1, 1, 0, 1, 0), (1, 1, 1, 0, 0), (1, 1, 1, 1, 0), (1, 1, 1, 1, 1)],
        [(1, 0, 0, 0, 0), (1, 0, 0, 0, 1), (1, 0, 0, 1, 1), (1, 0, 1, 0, 1), (1, 0, 1, 1, 1),
         (1, 1, 1, 0, 1), (1, 1, 1, 1, 0)],
        [(1, 0, 0, 0, 0), (1, 0, 0, 0, 1), (1, 0, 0, 1, 1), (1, 0, 1, 0, 0), (1, 0, 1, 0, 1),
         (1, 0, 1, 1, 1), (1, 1, 0, 0, 0), (1, 1, 0, 0, 1), (1, 1, 0, 1, 1)],
        [(1, 0, 0, 0, 1), (1, 0, 0, 1, 0), (1, 0, 1, 0, 0), (1, 0, 1, 1, 0), (1, 1, 0, 0, 1),
         (1, 1, 0, 1, 0), (1, 1, 1, 1, 1)],
        SQUARE_CONE,
    ]
    # Hibi cones: (1, indicator of I) for every down-set I of a poset on 4 elements
    cones += [[(1,) + tuple(int(e in ideal) for e in range(n)) for ideal in _down_sets(n, rel)]
              for n, rel in all_posets_up_to(4) if n == 4]
    answers = set()
    for gens in cones:
        s = AffineSemigroup(gens)
        assert s.is_full() and s.normality().normal
        answer = regularity_report(s).as_gorenstein
        assert answer == ("yes" if h_star_is_palindromic(gens, s.ambient_dim) else "no")
        answers.add(answer)
    assert answers == {"yes", "no"}


def test_regularity_gorenstein_fails(rays13):
    r = regularity_report(rays13)
    assert r.normal
    assert r.as_cohen_macaulay == "yes"
    assert r.as_gorenstein == "no"
    assert r.gorenstein_witness is None
    assert not r.as_regular
    assert r.maximal_order


def test_regularity_not_normal(n23):
    r = regularity_report(n23)
    assert not r.normal and not r.maximal_order
    assert r.as_cohen_macaulay == "inapplicable"
    assert r.as_gorenstein == "inapplicable"
    assert not r.as_regular
    assert r.has_balanced_dualizing_complex
    assert r.normality_witness == ((1,), 2)


def test_regularity_trivial_and_non_full():
    triv = regularity_report(AffineSemigroup([], ambient_dim=2))
    assert triv.as_regular and triv.rank == 0
    grid = regularity_report(AffineSemigroup([(2, 0), (0, 3)]))
    assert grid.as_regular  # isomorphic to N^2 inside its own group
    assert grid.gorenstein_witness == (2, 3)


def test_regularity_invariants(n2, a1, rays13, n23, nonnorm_gap, nonnorm_half):
    order = {"yes": 2, "no": 1, "inapplicable": 0}
    for s in [n2, a1, rays13, n23, nonnorm_gap, nonnorm_half]:
        r = regularity_report(s)
        assert checked_regularity_report(s) == r
        assert r.maximal_order == r.normal
        assert (r.as_cohen_macaulay == "inapplicable") == (not r.normal)
        if r.as_regular:
            assert r.as_gorenstein == "yes"
        if r.as_gorenstein == "yes":
            assert r.as_cohen_macaulay == "yes"
        assert order[r.as_gorenstein] <= order[r.as_cohen_macaulay]
        if r.gorenstein_witness is not None and s.is_full():
            for f in s.facets():
                assert vdot(f.inner_normal, r.gorenstein_witness) == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_regular_semigroups_are_gorenstein_by_the_basis_sum(data):
    # regularity_report no longer checks that a regular S is Gorenstein (the
    # proof is in its docstring): the rows of a nonnegative unimodular
    # matrix, plus sums of them, generate a regular S whose Gorenstein
    # witness is the sum of its Hilbert basis, the rows
    dim = data.draw(st.integers(1, 4))
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    if dim > 1:
        for i, j in data.draw(st.lists(st.tuples(st.integers(0, dim - 1),
                                                 st.integers(0, dim - 1)), max_size=5)):
            if i != j:
                rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
    extra = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=dim, max_size=dim),
                               max_size=3))
    gens = [tuple(r) for r in rows] + [
        tuple(sum(c * r[k] for c, r in zip(cs, rows)) for k in range(dim))
        for cs in extra if any(cs)]
    s = AffineSemigroup(gens)
    r = checked_regularity_report(s)
    assert r == regularity_report(s) and r.as_regular
    assert sorted(s.normality().saturation_hilbert_basis) == sorted(map(tuple, rows))
    assert r.gorenstein_witness == tuple(map(sum, zip(*rows)))


def test_regularity_requires_a_pointed_cone():
    # a pointed S is answered, positive or not: this one is N^2 in
    # coordinates of G(S); a cone with a line is refused by normality()
    s = AffineSemigroup([(1, -1), (1, 1)])
    r = regularity_report(s)
    assert r == embedded_regularity_report(s) == checked_regularity_report(s)
    assert r.as_regular and r.gorenstein_witness == (2, 0)
    with pytest.raises(PreconditionError) as exc:
        regularity_report(AffineSemigroup([(1, 0), (-1, 0), (0, 1)]))
    assert str(exc.value).startswith("normality needs a pointed cone")


def _drawn_unimodular(data, dim):
    """A drawn U in GL_dim(Z): elementary row additions, then row sign flips."""
    u = [[int(i == j) for j in range(dim)] for i in range(dim)]
    index = st.integers(0, dim - 1)
    for i, j, k in data.draw(st.lists(st.tuples(index, index, st.sampled_from((-2, -1, 1, 2))),
                                      max_size=4)):
        if i != j:
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    for i, flip in enumerate(data.draw(st.lists(st.booleans(), min_size=dim, max_size=dim))):
        if flip:
            u[i] = [-a for a in u[i]]
    return u


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_unimodular_images_get_the_same_answers(data, n2, a1, n23, rays13, nonnorm_gap,
                                                nonnorm_half):
    # U in GL_d(Z) is an isomorphism S -> U S of semigroups and of cones, so
    # every decision is unchanged, the Gorenstein witness is U c, and the
    # facet normals of U S are the n U^(-1): each m of U S has m U among those of S
    decisions = lambda r: (r.normal, r.as_cohen_macaulay, r.as_gorenstein, r.as_regular,
                           r.maximal_order, r.rank)
    apply = lambda u, v: tuple(vdot(row, v) for row in u)
    fixtures = [n2, a1, n23, rays13, nonnorm_gap, nonnorm_half, AffineSemigroup(SQUARE_CONE),
                AffineSemigroup([(2, 0), (1, 1), (0, 2)])]
    for s in fixtures:
        u = _drawn_unimodular(data, s.ambient_dim)
        image = AffineSemigroup([apply(u, g) for g in s.generators])
        r, r_image = regularity_report(s), regularity_report(image)
        assert decisions(r_image) == decisions(r), (s, u)
        assert r_image.gorenstein_witness == (
            None if r.gorenstein_witness is None else apply(u, r.gorenstein_witness))
        if s.is_full():
            back = [(tuple(vdot(f.inner_normal, col) for col in zip(*u)), f.incident)
                    for f in image.facets()]
            assert sorted(back) == sorted((f.inner_normal, f.incident) for f in s.facets())
        # a refusal is compared by its type: its message cites ambient vectors
        count = lambda x: _outcome(lambda: len(decompose(x).facet_semigroups))
        kind = lambda outcome: outcome if isinstance(outcome, int) else outcome[0]
        assert kind(count(image)) == kind(count(s)), (s, u)


def test_gorenstein_witness_against_interior_points(n2, a1):
    # independent formulation: interior points == witness + members
    assert gorenstein_candidate_works(n2.generators, 2, (1, 1), 6)
    assert gorenstein_candidate_works(a1.generators, 2, (1, 1), 6)
    assert not gorenstein_candidate_works(a1.generators, 2, (1, 2), 6)


def test_hilbert_function_examples(n2, a1, n23):
    assert hilbert_function(n2, 2) == [1, 2, 3]
    assert hilbert_function(a1, 2) == [1, 1, 2]
    assert hilbert_function(n23, 6) == [1, 0, 1, 1, 1, 1, 1]
    assert hilbert_function(AffineSemigroup([], ambient_dim=2), 3) == [1, 0, 0, 0]


def test_hilbert_function_requires_positive():
    with pytest.raises(PreconditionError):
        hilbert_function(AffineSemigroup([(1, -1), (1, 1)]), 3)


def test_hilbert_function_refuses_a_large_degree_first(a1):
    start = time.monotonic()
    with pytest.raises(SizeLimitError) as exc:
        hilbert_function(a1, 100_000)
    assert time.monotonic() - start < 1.0
    assert str(exc.value) == (
        "degree 100000 in dimension 2 bounds the enumeration by "
        "C(100000 + 2, 2) = 5000150001 points, beyond the supported limit of 1000000")
    # C(1412 + 2, 2) = 998,991 is within the limit, C(1413 + 2, 2) is not
    sparse = AffineSemigroup([(1000, 0), (0, 1000)])
    assert hilbert_function(sparse, 1412)[1000] == 2
    with pytest.raises(SizeLimitError):
        hilbert_function(sparse, 1413)


def test_elements_by_degree_matches_membership(a1, rays13, nonnorm_gap):
    for s in [a1, rays13, nonnorm_gap]:
        layers = elements_by_degree(s, 6)
        flat = {x for layer in layers.values() for x in layer}
        assert flat == brute_members_by_degree(s.generators, 6)
        assert all(sum(x) == k for k, layer in layers.items() for x in layer)
    assert sorted(elements_by_degree(a1, 3)[3]) == [(1, 2), (2, 1), (3, 0)]
