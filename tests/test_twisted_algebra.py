import itertools
import random
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qtoric import (AffineSemigroup, Cocycle, DimensionError, NotNormalError,
                    PreconditionError, Scalar, ScalarMonomial, Sublattice, TwistedAlgebra,
                    TwistedElement, elements_by_degree)
from qtoric.lattice_geometry import vadd
from qtoric.lattice_algebras import straightening_semigroup
from qtoric.twisted_algebra import TwistingSystem, _lex_members

from .conftest import quantum_cocycle, shifted_cocycle, two_parameter_cocycle
from .oracles import (coordinate_copy, product_chain_torus_embedding,
                      scalar_chain_commutation_matrix, twisting_system_mismatch,
                      window_torus_embedding)


def test_element_basics():
    x = TwistedElement({(1, 0): 1, (0, 1): ScalarMonomial.param("q", -1)})
    assert x.support == ((0, 1), (1, 0))
    assert x.coefficient((1, 0)) == Scalar.of(1)
    assert x.coefficient((2, 2)).is_zero()
    assert str(x) == "X[1, 0] + q^-1*X[0, 1]"
    assert str(TwistedElement.zero()) == "0"
    assert TwistedElement({(1, 0): 0}).is_zero()
    assert (x - x).is_zero()
    assert x.scale(2).coefficient((1, 0)) == Scalar.of(2)


def test_leading_term():
    x = TwistedElement({(1, 0): 1, (0, 1): 1})
    c, s = x.leading_term()
    assert s == (1, 0) and c == Scalar.of(1)
    with pytest.raises(ValueError):
        TwistedElement.zero().leading_term()


def test_quantum_plane_product(n2, qplane):
    a = TwistedAlgebra(n2, qplane)
    x01, x10 = a.monomial((0, 1)), a.monomial((1, 0))
    assert a.product(x01, x10) == a.monomial((1, 1), ScalarMonomial.param("q", -1))
    assert str(a.product(x01, x10)) == "q^-1*X[1, 1]"
    assert a.product(x10, x01) == a.monomial((1, 1))


def test_unit_law(n2, qplane, triv2, shifted):
    for alpha in [qplane, triv2, shifted]:
        a = TwistedAlgebra(n2, alpha)
        for s in [(0, 0), (1, 0), (2, 3)]:
            x = a.monomial(s, ScalarMonomial.param("q", 2))
            assert a.product(x, a.one()) == x
            assert a.product(a.one(), x) == x


def test_mixed_association(n2, qplane):
    # (X1 X0) X1 = X1 (X0 X1)
    a = TwistedAlgebra(n2, qplane)
    x0, x1 = a.monomial((1, 0)), a.monomial((0, 1))
    left = a.product(a.product(x1, x0), x1)
    right = a.product(x1, a.product(x0, x1))
    assert left == right
    assert left == a.monomial((1, 2), ScalarMonomial.param("q", -1))


def test_associativity_on_monomials(n2, triv2, qplane, upper, shifted, double2):
    mons = [s for s in itertools.product(range(4), repeat=2) if sum(s) <= 3]
    for alpha in [triv2, qplane, upper, shifted, double2]:
        a = TwistedAlgebra(n2, alpha)
        for s, t, u in itertools.product(mons, repeat=3):
            xs, xt, xu = a.monomial(s), a.monomial(t), a.monomial(u)
            assert a.product(a.product(xs, xt), xu) == a.product(xs, a.product(xt, xu))


def test_associativity_on_sparse_elements(n2, qplane):
    a = TwistedAlgebra(n2, qplane)
    rng = random.Random(17)
    mons = [s for s in itertools.product(range(4), repeat=2) if sum(s) <= 3]

    def sparse():
        return TwistedElement(
            {rng.choice(mons): rng.randint(1, 3) for _ in range(2)})

    for _ in range(25):
        x, y, z = sparse(), sparse(), sparse()
        assert a.product(a.product(x, y), z) == a.product(x, a.product(y, z))


def test_product_distributes(n2, qplane):
    a = TwistedAlgebra(n2, qplane)
    x = a.monomial((1, 0)) + a.monomial((0, 1))
    y = a.monomial((1, 1)) - a.monomial((2, 0))
    z = a.monomial((0, 1), 3)
    assert a.product(x, y + z) == a.product(x, y) + a.product(x, z)
    assert a.product(x + y, z) == a.product(x, z) + a.product(y, z)


torus_elements = st.builds(
    TwistedElement,
    st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    st.integers(-3, 3).filter(bool), min_size=1, max_size=3))


@given(torus_elements, torus_elements)
def test_leading_term_is_multiplicative(x, y):
    alpha = Cocycle.bicharacter(2, {"q": [[0, 0], [-1, 0]]})
    torus = TwistedAlgebra(None, alpha, dim=2)
    cu, u = x.leading_term()
    cv, v = y.leading_term()
    cp, p = torus.product(x, y).leading_term()
    assert p == vadd(u, v)
    assert cp == cu * cv * Scalar.of(alpha(u, v))


def test_subalgebra_membership(a1, qplane):
    a = TwistedAlgebra(a1, qplane)
    assert a.contains(a.monomial((2, 2), ScalarMonomial.param("q", 2)))
    assert not a.contains(TwistedElement({(0, 1): 1}))
    assert a.contains(TwistedElement.zero())


def test_support_validation(a1, qplane):
    a = TwistedAlgebra(a1, qplane)
    with pytest.raises(PreconditionError):
        a.monomial((0, 1))
    outside = TwistedElement({(0, 1): 1})
    with pytest.raises(PreconditionError):
        a.product(outside, a.one())
    with pytest.raises(DimensionError):
        a.monomial((1, 0, 0))


def test_algebra_construction_errors(qplane):
    with pytest.raises(DimensionError):
        TwistedAlgebra(None, qplane)  # torus needs a dimension
    with pytest.raises(DimensionError):
        TwistedAlgebra(AffineSemigroup([(1, 0, 0)]), qplane)


def test_monomial_inverse(qplane):
    torus = TwistedAlgebra(None, qplane, dim=2)
    x = torus.monomial((1, 2), ScalarMonomial.make(3, {"q": 1}))
    inv = torus.monomial_inverse(x)
    assert torus.product(x, inv) == torus.one()
    assert torus.product(inv, x) == torus.one()
    assert torus.power(x, -2) == torus.product(inv, inv)
    assert torus.power(x, 0) == torus.one()


def test_monomial_inverse_errors(n2, qplane):
    torus = TwistedAlgebra(None, qplane, dim=2)
    two_terms = torus.monomial((1, 0)) + torus.monomial((0, 1))
    with pytest.raises(PreconditionError):
        torus.monomial_inverse(two_terms)
    binomial_coeff = TwistedElement(
        {(1, 0): Scalar.of(ScalarMonomial.param("q")) + Scalar.of(1)})
    with pytest.raises(PreconditionError):
        torus.monomial_inverse(binomial_coeff)
    a = TwistedAlgebra(n2, qplane)
    with pytest.raises(PreconditionError):
        a.monomial_inverse(a.monomial((1, 0)))  # -e0 is outside N^2


def test_torus_embedding_numerical(n23):
    a = TwistedAlgebra(n23, Cocycle.trivial(1))
    emb = a.torus_embedding()
    assert emb.pairs == (((3,), (2,)),)
    assert emb.y_monomials[0].support == ((1,),)
    assert emb.q_matrix[0][0].is_one()
    assert emb.generator_scalars[(2,)].is_one()
    assert emb.generator_scalars[(3,)].is_one()
    # X^2 maps to Y0^2 and X^3 to Y0^3 on the nose
    torus = a.torus()
    assert torus.power(emb.y_monomials[0], 2) == torus.monomial((2,))
    assert torus.power(emb.y_monomials[0], 3) == torus.monomial((3,))


def test_torus_embedding_planar(a1, qplane):
    a = TwistedAlgebra(a1, qplane)
    emb = a.torus_embedding()
    assert emb.pairs == (((1, 0), (0, 0)), ((1, 1), (1, 0)))
    assert emb.y_monomials[0] == a.torus().monomial((1, 0))
    assert emb.y_monomials[1] == a.torus().monomial((0, 1), ScalarMonomial.param("q"))
    assert emb.q_matrix[0][1] == ScalarMonomial.param("q")
    assert emb.q_matrix[1][0] == ScalarMonomial.param("q", -1)


def test_torus_embedding_generator_scalars(a1, n2, qplane, shifted):
    for s, alpha in [(a1, qplane), (n2, qplane), (a1, shifted)]:
        a = TwistedAlgebra(s, alpha)
        emb = a.torus_embedding()
        torus = a.torus()
        dim = a.dim
        for g in s.generators:
            y_pow = torus.one()
            for i in range(dim):
                y_pow = torus.product(y_pow, torus.power(emb.y_monomials[i], g[i]))
            assert y_pow.scale(emb.generator_scalars[g]) == torus.monomial(g)
        for i in range(dim):
            assert emb.q_matrix[i][i].is_one()
            for j in range(dim):
                assert (emb.q_matrix[i][j] * emb.q_matrix[j][i]).is_one()


def test_torus_embedding_of_a_non_full_semigroup(qplane):
    # one Y per basis vector of G(S) = 2Z x Z, each in S, so every t_i is 0
    s = AffineSemigroup([(2, 0), (0, 1)])
    emb = _assert_embedding_matches_product_chain(TwistedAlgebra(s, qplane))
    assert s.group.basis == ((2, 0), (0, 1))
    assert emb.pairs == (((2, 0), (0, 0)), ((0, 1), (0, 0)))
    assert [y.support for y in emb.y_monomials] == [((2, 0),), ((0, 1),)]
    assert str(emb.q_matrix[0][1]) == "q^2"


def _restricted(alpha, basis):
    """alpha_B(u, v) = alpha(uB, vB): the bicharacter B M_k B^T of each M_k."""
    return Cocycle.bicharacter(len(basis), {
        p: [[sum(u[i] * m[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))
             for v in basis] for u in basis]
        for p, m in zip(alpha.params, alpha.bichar)})


def _assert_embedding_matches_the_coordinate_copy(s, alpha):
    """The embedding of S equals that of its copy in coordinates of G(S) under
    the restricted cocycle: the same q-matrix and generator scalars, and pairs
    that the basis B of G(S) maps onto those of S."""
    emb = _assert_embedding_matches_product_chain(TwistedAlgebra(s, alpha))
    basis, copy = s.group.basis, coordinate_copy(s)
    assert copy.is_full()
    ref = TwistedAlgebra(copy, _restricted(alpha, basis)).torus_embedding()
    to_ambient = s.group.from_coordinates
    assert tuple((to_ambient(a), to_ambient(b)) for a, b in ref.pairs) == emb.pairs
    assert emb.q_matrix == ref.q_matrix
    assert {g: emb.generator_scalars[g] for g in s.generators} == \
        {g: ref.generator_scalars[c] for g, c in zip(s.generators, copy.generators)}
    return emb


def test_torus_of_the_group_of_a_non_full_semigroup():
    # G(S) = {x : x_0 + x_1 even} is a proper sublattice with the Hermite
    # basis B = ((1, 1), (0, 2)); the embedding of S agrees with that of its
    # full copy in coordinates of G(S) under alpha_B(u, v) = alpha(uB, vB)
    s = AffineSemigroup([(2, 0), (1, 1), (0, 2)])
    alpha = Cocycle.bicharacter(2, {"q": [[0, 1], [0, 0]], "r": [[1, 0], [2, 0]]})
    restricted = _restricted(alpha, s.group.basis)
    grid = list(itertools.product(range(-2, 3), repeat=2))
    for u, v in itertools.product(grid, repeat=2):
        assert restricted(u, v) == alpha(s.group.from_coordinates(u),
                                         s.group.from_coordinates(v))
    torus = _assert_embedding_matches_the_coordinate_copy(s, alpha)
    assert torus.pairs == (((1, 1), (0, 0)), ((0, 2), (0, 0)))
    assert str(torus.q_matrix[0][1]) == "q^2*r^-4"


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.data())
def test_torus_embedding_matches_the_coordinate_copy_on_drawn_sublattices(data):
    # S = C M for coordinates C and a map M of Z^r into Z^d (d >= r) that is
    # not onto, so G(S) is a proper sublattice; a non-positive S and copy both
    # solve for their pairs in the same coordinates, so the pairs correspond
    rank = data.draw(st.integers(1, 3))
    dim = data.draw(st.integers(rank, rank + 1))
    entries = lambda n, lo, hi: st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    m = data.draw(st.lists(entries(dim, -2, 2), min_size=rank, max_size=rank))
    coords = data.draw(st.lists(entries(rank, -3, 3).filter(any), min_size=1,
                                max_size=rank + 2))
    gens = [tuple(sum(c[i] * m[i][j] for i in range(rank)) for j in range(dim))
            for c in coords]
    assume(all(any(g) for g in gens))
    s = AffineSemigroup(gens)
    assume(not s.is_full() and not s.positive and not coordinate_copy(s).positive)
    assume(s.is_pointed())  # membership refuses a cone with a line
    params = data.draw(st.sampled_from([("q",), ("q", "r")]))
    alpha = Cocycle.bicharacter(
        dim, {p: data.draw(st.lists(entries(dim, -2, 2), min_size=dim, max_size=dim))
              for p in params})
    _assert_embedding_matches_the_coordinate_copy(s, alpha)


A1_GENS = [(1, 0), (1, 1), (1, 2)]


def _unimodular_image(seed, gens):
    """gens under a seeded unimodular matrix with a negative entry."""
    rng = random.Random(seed)
    dim = len(gens[0])
    while True:
        m = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for _ in range(dim + 1):
            i, j = rng.sample(range(dim), 2)
            k = rng.choice((-2, -1, 1))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        if any(x < 0 for row in m for x in row):
            return [tuple(sum(r[k] * g[k] for k in range(dim)) for r in m) for g in gens]


# No pair of degree <= 10 exists in <11, 12> or in the sheared A1; the two
# images of A1 are non-positive presentations of a full semigroup.
TOTALITY_CASES = [[(11,), (12,)], [(1, -12), (1, -11), (1, -10)],
                  _unimodular_image(4, A1_GENS), _unimodular_image(5, A1_GENS)]


def _assert_embedding_matches_product_chain(algebra):
    emb = algebra.torus_embedding()
    assert len(emb.pairs) == algebra.domain.rank
    for (s, t), b in zip(emb.pairs, algebra.domain.group.basis):
        assert tuple(a - c for a, c in zip(s, t)) == b
        assert algebra.domain.contains(s) and algebra.domain.contains(t)
    assert product_chain_torus_embedding(algebra, emb.pairs) == emb
    return emb


def test_torus_embedding_matches_product_chain(a1, n2, n23, rays13, qplane, shifted):
    s3 = AffineSemigroup([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)])
    p2h, plane = AffineSemigroup([(2, 0), (1, 1), (0, 2)]), AffineSemigroup([(1, 1, 0), (0, 1, 1)])
    for s, alpha in [(a1, qplane), (n2, qplane), (a1, shifted), (n23, quantum_cocycle(1)),
                     (rays13, shifted_cocycle(2)), (s3, shifted_cocycle(3)),
                     (p2h, shifted), (plane, shifted_cocycle(3)),
                     (AffineSemigroup([(4,), (6,)]), quantum_cocycle(1))]:
        a = TwistedAlgebra(s, alpha)
        # a positive S, full or not, keeps the pairs of the oracle's degree search
        assert product_chain_torus_embedding(a) == a.torus_embedding()


def test_torus_embedding_of_a_large_orthant_takes_t_zero():
    # every e_i is in N^10, so no degree window (C(20, 10) members) is built
    basis = [tuple(int(i == j) for j in range(10)) for i in range(10)]
    a = TwistedAlgebra(AffineSemigroup(basis), quantum_cocycle(10))
    start = time.perf_counter()
    emb = a.torus_embedding()
    assert time.perf_counter() - start < 0.5
    assert emb.pairs == tuple((e, (0,) * 10) for e in basis)


def test_torus_embedding_reads_the_kept_generator_coordinates(qplane, monkeypatch):
    # the generators' coordinates in G(S) are computed once per semigroup:
    # after a contains, the embedding of U1 adds no Sublattice.coordinates call
    calls = []
    real = Sublattice.coordinates
    monkeypatch.setattr(Sublattice, "coordinates",
                        lambda self, v: calls.append(tuple(v)) or real(self, v))
    u1 = AffineSemigroup([(1, 0), (-2, 1), (-5, 2)])
    assert u1.contains((-7, 3))
    before = len(calls)
    TwistedAlgebra(u1, qplane).torus_embedding()
    assert before == 4 and len(calls) == before


def test_torus_embedding_is_total():
    for gens in TOTALITY_CASES:
        s = AffineSemigroup(gens)
        assert s.is_full()
        algebra = TwistedAlgebra(s, shifted_cocycle(s.ambient_dim))
        emb = _assert_embedding_matches_product_chain(algebra)
        assert len(emb.generator_scalars) == len(gens)
        assert emb == window_torus_embedding(algebra)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_torus_embedding_matches_product_chain_on_drawn_cocycles(data):
    gens = data.draw(st.sampled_from(TOTALITY_CASES + [A1_GENS, [(2,), (3,)],
                                                       [(1, 0, 0), (1, 1, 0), (0, 1, 1)]]))
    dim = len(gens[0])
    params = data.draw(st.sampled_from([("q",), ("q", "r")]))
    fracs = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    square = lambda e: st.lists(st.lists(e, min_size=dim, max_size=dim),
                                min_size=dim, max_size=dim)
    alpha = Cocycle.bicharacter(
        dim, {p: data.draw(square(st.integers(-2, 2))) for p in params}).with_coboundary(
        quad={p: data.draw(square(fracs)) for p in params},
        lin={params[-1]: data.draw(st.lists(fracs, min_size=dim, max_size=dim))})
    _assert_embedding_matches_product_chain(TwistedAlgebra(AffineSemigroup(gens), alpha))


def _drawn_positive_semigroup(data):
    dim = data.draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(0, 3)] * dim).filter(any)
    return AffineSemigroup(data.draw(st.lists(vec, min_size=1, max_size=dim + 3)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_lex_walk_pops_the_sorted_degree_window(data):
    s = _drawn_positive_semigroup(data)
    degree = data.draw(st.integers(0, 8))
    window = sorted(v for layer in elements_by_degree(s, degree).values() for v in layer)
    assert list(_lex_members(s, degree)) == window


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.data())
def test_torus_embedding_matches_the_window_oracle(data):
    # the integer-numerator scalars and the lexicographic pair walk against
    # the sorted degree window and the Scalar chains
    s = _drawn_positive_semigroup(data)
    assume(s.is_full())
    fracs = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    alpha = two_parameter_cocycle(s.ambient_dim, lambda: data.draw(st.integers(-2, 2)),
                                  lambda: data.draw(fracs))
    algebra = TwistedAlgebra(s, alpha)
    emb, ref = algebra.torus_embedding(), window_torus_embedding(algebra)
    assert emb.pairs == ref.pairs
    assert list(map(str, emb.y_monomials)) == list(map(str, ref.y_monomials))
    assert [list(map(str, row)) for row in emb.q_matrix] == \
        [list(map(str, row)) for row in ref.q_matrix]
    assert {g: str(c) for g, c in emb.generator_scalars.items()} == \
        {g: str(c) for g, c in ref.generator_scalars.items()}
    assert emb == ref


def test_twisting_system_trivial(n2, triv2):
    ts = TwistedAlgebra(n2, triv2).twisting_system()
    x = TwistedElement({(1, 0): 1, (0, 1): 2})
    assert ts.apply((1, 1), x) == x
    y = TwistedElement({(1, 1): 1})
    assert ts.twisted_product(x, y) == ts.commutative_product(x, y)


def test_twisting_system_quantum_plane(n2, qplane):
    a = TwistedAlgebra(n2, qplane)
    ts = a.twisting_system()
    x01 = a.monomial((0, 1))
    assert ts.apply((1, 0), x01) == a.monomial((0, 1), ScalarMonomial.param("q", -1))
    # the twisted commutative product reproduces the algebra product
    assert ts.twisted_product(x01, a.monomial((1, 0))) == a.product(x01, a.monomial((1, 0)))


def test_twisting_axiom_instance(qplane):
    g, gp, gpp = (1, 0), (0, 1), (1, 1)
    lhs = qplane(g, gp) * qplane(vadd(g, gp), gpp)
    rhs = qplane(gp, gpp) * qplane(g, vadd(gp, gpp))
    assert lhs == rhs


def test_twist_reconstruction_pairs(n2, a1, n23, triv2, qplane, shifted):
    # the constructor verifies axiom and product agreement up to the bounds
    cases = [(n2, triv2), (n2, qplane), (n2, shifted), (a1, qplane),
             (n23, Cocycle.trivial(1))]
    for s, alpha in cases:
        ts = TwistedAlgebra(s, alpha).twisting_system()
        assert ts.cocycle is alpha


def test_twisting_system_matches_bounded_checks(n2, a1, n23, diamond):
    # the fixtures of acceptance criterion 2, checked by the degree loops
    diamond_s = straightening_semigroup(diamond).semigroup
    for s in (n2, a1, n23, diamond_s):
        dim = s.ambient_dim
        for alpha in (Cocycle.trivial(dim), quantum_cocycle(dim), shifted_cocycle(dim)):
            assert twisting_system_mismatch(TwistedAlgebra(s, alpha), 3, 5) is None


class _CorruptedCocycle(Cocycle):
    """A Cocycle whose value at (e_0, e_1) is off by one factor of q."""

    def __call__(self, s, t):
        value = super().__call__(s, t)
        if (tuple(s), tuple(t)) == ((1, 0), (0, 1)):
            return value * ScalarMonomial.param("q")
        return value


def test_twisting_checks_flag_a_corrupted_evaluator(n2, upper, monkeypatch):
    bad = _CorruptedCocycle(upper.dim, upper.params, upper.bichar)
    failure = twisting_system_mismatch(TwistedAlgebra(n2, bad), 3, 5)
    assert failure is not None and failure[0] == "axiom"
    g, gp, gpp = failure[1:]
    assert bad(g, gp) * bad(vadd(g, gp), gpp) != bad(gp, gpp) * bad(g, vadd(gp, gpp))
    # a twisting system that ignores the cocycle fails the product check
    monkeypatch.setattr(TwistingSystem, "apply", lambda self, t, x: x)
    assert twisting_system_mismatch(TwistedAlgebra(n2, upper), 3, 5)[0] == "product"


def test_twisting_system_preconditions(qplane):
    torus = TwistedAlgebra(None, qplane, 2)
    with pytest.raises(PreconditionError):
        torus.twisting_system()
    # a non-positive domain gets its system: nothing enumerates degrees
    pointed = AffineSemigroup([(1, 0), (-1, 1)])
    assert TwistedAlgebra(pointed, qplane).twisting_system().cocycle is qplane


def test_twisting_system_of_a_non_positive_semigroup(qplane):
    # the unimodular image (x, y) -> (x - 2y, y) of A1, whose degrees
    # twisting_system_mismatch cannot enumerate: the twisted commutative
    # product equals the algebra's on all sums of at most 3 generators
    s = AffineSemigroup([(1, 0), (-2, 1), (-5, 2)])
    sums = {tuple(map(sum, zip((0, 0), *combo)))
            for k in range(4) for combo in itertools.combinations_with_replacement(s.generators, k)}
    assert len(sums) == 16
    for alpha in (qplane, quantum_cocycle(2), shifted_cocycle(2)):
        algebra = TwistedAlgebra(s, alpha)
        system = algebra.twisting_system()
        for a, b in itertools.product(sorted(sums), repeat=2):
            x, y = algebra.monomial(a), algebra.monomial(b)
            assert system.twisted_product(x, y) == algebra.product(x, y), (alpha, a, b)


def test_localize_at_facet_quantum(n2, qplane):
    a = TwistedAlgebra(n2, qplane)
    tau = next(f for f in n2.facets() if f.inner_normal == (0, 1))
    loc = a.localize_at_facet(tau)
    assert loc.iso_generators == ((1, 0), (0, 1))
    assert loc.q_tau[0][1] == ScalarMonomial.param("q")
    assert loc.q_tau[1][0] == ScalarMonomial.param("q", -1)
    assert loc.q_tau[0][0].is_one() and loc.q_tau[1][1].is_one()
    # units on the facet are invertible in the localization
    assert loc.algebra.monomial((-3, 0)) is not None
    inv = loc.algebra.monomial_inverse(loc.algebra.monomial((1, 0)))
    assert inv.support == ((-1, 0),)
    with pytest.raises(PreconditionError):
        loc.algebra.monomial((0, -1))


def test_localize_at_facet_coboundary_invariant(n2, upper, shifted, triv2):
    tau = n2.facets()[0]
    q_plain = TwistedAlgebra(n2, upper).localize_at_facet(tau).q_tau
    q_shift = TwistedAlgebra(n2, shifted).localize_at_facet(tau).q_tau
    assert q_plain == q_shift
    q_triv = TwistedAlgebra(n2, triv2).localize_at_facet(tau).q_tau
    assert all(x.is_one() for row in q_triv for x in row)


def test_localized_q_tau_matches_the_scalar_division(a1, rays13):
    # the iso generators of a facet semigroup are not basis vectors
    s3 = AffineSemigroup([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)])
    for s in (a1, rays13, s3):
        alpha = shifted_cocycle(s.ambient_dim)
        for tau in s.facets():
            loc = TwistedAlgebra(s, alpha).localize_at_facet(tau)
            assert loc.q_tau == scalar_chain_commutation_matrix(alpha, loc.iso_generators)


def test_localize_requires_normal(n23):
    a = TwistedAlgebra(n23, Cocycle.trivial(1))
    fake_facet_source = AffineSemigroup([(1,)])
    tau = fake_facet_source.facets()[0] if fake_facet_source.facets() else None
    with pytest.raises(NotNormalError):
        a.localize_at_facet(tau)


def test_twisted_dimensions_match_untwisted(a1, qplane, triv2):
    # graded components have the same monomial count under any twist
    twisted = TwistedAlgebra(a1, qplane)
    plain = TwistedAlgebra(a1, triv2)
    layers = elements_by_degree(a1, 5)
    for k, layer in layers.items():
        for s, t in itertools.islice(itertools.product(layer, repeat=2), 30):
            p1 = twisted.product(twisted.monomial(s), twisted.monomial(t))
            p2 = plain.product(plain.monomial(s), plain.monomial(t))
            assert p1.support == p2.support


def test_power_of_binomial(n2, qplane):
    # (X0 + X1)^2 = X0^2 + (1+q^-1) X0X1 + X1^2 in the quantum plane
    a = TwistedAlgebra(n2, qplane)
    x = a.monomial((1, 0)) + a.monomial((0, 1))
    sq = a.power(x, 2)
    one_plus = Scalar.of(1) + Scalar.of(ScalarMonomial.param("q", -1))
    assert sq.coefficient((2, 0)) == Scalar.of(1)
    assert sq.coefficient((0, 2)) == Scalar.of(1)
    assert sq.coefficient((1, 1)) == one_plus
