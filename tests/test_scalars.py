from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import qtoric
from qtoric import (Cocycle, Scalar, ScalarMonomial, TwistedAlgebra, straighten,
                    straightening_semigroup)

from . import oracles


def test_product_examples():
    q = ScalarMonomial.param("q")
    assert q * q.inverse() == ScalarMonomial.one()
    half = Fraction(1, 2)
    a = ScalarMonomial.make(2, {"q": half})
    b = ScalarMonomial.make(3, {"q": half})
    assert a * b == ScalarMonomial.make(6, {"q": 1})
    m = ScalarMonomial.make(-1, {"q": 2})
    assert m.inverse() == ScalarMonomial.make(-1, {"q": -2})
    assert m * m.inverse() == ScalarMonomial.one()


def test_canonical_form():
    # zero exponents are dropped, names sorted, so equality is structural
    assert ScalarMonomial.make(1, {"q": 0}) == ScalarMonomial.one()
    assert ScalarMonomial.make(2, {"r": 1, "q": 3}).exponents == (
        ("q", Fraction(3)), ("r", Fraction(1)))
    with pytest.raises(ValueError):
        ScalarMonomial.make(0)
    with pytest.raises(TypeError):
        ScalarMonomial.make(0.5)


def test_division_and_powers():
    q = ScalarMonomial.param("q")
    assert q / q == ScalarMonomial.one()
    assert q ** 3 == ScalarMonomial.make(1, {"q": 3})
    assert q ** 0 == ScalarMonomial.one()
    assert (ScalarMonomial.make(2) ** -1) == ScalarMonomial.make(Fraction(1, 2))


def test_str_forms():
    assert str(ScalarMonomial.one()) == "1"
    assert str(ScalarMonomial.param("q")) == "q"
    assert str(ScalarMonomial.param("q", -1)) == "q^-1"
    assert str(ScalarMonomial.make(6, {"q": 1})) == "6*q"
    assert str(ScalarMonomial.make(2, {"q": Fraction(1, 2)})) == "2*q^(1/2)"
    assert str(ScalarMonomial.make(-1, {"q": -2})) == "-1*q^-2"


monomials = st.builds(
    ScalarMonomial.make,
    st.fractions(min_value=-4, max_value=4).filter(bool),
    st.dictionaries(st.sampled_from(["q", "r"]),
                    st.fractions(min_value=-3, max_value=3), max_size=2))


@given(monomials, monomials, monomials)
def test_group_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * ScalarMonomial.one() == a
    assert a * a.inverse() == ScalarMonomial.one()


@given(monomials, st.integers(-3, 3), st.integers(-3, 3))
def test_power_law(m, i, j):
    assert m ** i * m ** j == m ** (i + j)


def test_scalar_sums():
    q = Scalar.of(ScalarMonomial.param("q"))
    one = Scalar.of(1)
    assert (q + q).as_monomial() == ScalarMonomial.make(2, {"q": 1})
    assert (q - q).is_zero()
    assert str(q + one) == "1 + q"
    assert str(Scalar.zero()) == "0"
    # (q + 1)(q - 1) = q^2 - 1
    prod = (q + one) * (q - one)
    assert prod == Scalar.of(ScalarMonomial.param("q", 2)) - one


def test_scalar_monomial_round_trip():
    m = ScalarMonomial.make(Fraction(3, 4), {"q": -2})
    s = Scalar.of(m)
    assert s.is_monomial()
    assert s.as_monomial() == m
    with pytest.raises(ValueError):
        (s + Scalar.of(1)).as_monomial()
    with pytest.raises(ValueError):
        Scalar.zero().as_monomial()


def test_scalar_of_numbers():
    assert Scalar.of(0).is_zero()
    assert Scalar.of(Fraction(2, 3)).as_monomial() == ScalarMonomial.make(Fraction(2, 3))
    assert Scalar.of(Scalar.of(5)) == Scalar.of(5)


def test_one_scalar_class():
    assert qtoric.ScalarMonomial is qtoric.Scalar
    with pytest.raises(ValueError):
        Scalar.make(0)


def test_only_monomials_are_units():
    one_plus_q = Scalar.param("q") + Scalar.of(1)
    for refused in (one_plus_q.inverse, lambda: one_plus_q ** 2,
                    lambda: Scalar.of(1) / one_plus_q):
        with pytest.raises(ValueError, match=r"^scalar 1 \+ q is not a single monomial"):
            refused()


def test_every_producer_returns_a_scalar(diamond, n2, qplane):
    tri = Cocycle.bicharacter(3, {"q": [[0, 1, 0], [0, 0, 0], [1, 0, 0]]})
    sg = straightening_semigroup(diamond)
    emb = TwistedAlgebra(n2, qplane).torus_embedding()
    tau = next(f for f in n2.facets() if f.inner_normal == (0, 1))
    loc = TwistedAlgebra(n2, qplane).localize_at_facet(tau)
    produced = [qplane((0, 1), (1, 0)), qplane.word_scalar([(0, 1), (1, 0), (1, 1)]),
                straighten(sg, tri, [2, 1])[0], *emb.generator_scalars.values(),
                *(x for row in emb.q_matrix for x in row),
                *(x for row in loc.q_tau for x in row)]
    assert all(type(x) is Scalar for x in produced)


# -- the merged class against the two-class oracle ------------------------------

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
unit_scalars = st.builds(Scalar.make, small.filter(bool),
                         st.dictionaries(st.sampled_from(["q", "r"]), small, max_size=2))
sum_scalars = st.lists(unit_scalars, max_size=4).map(lambda ms: sum(ms, Scalar.zero()))


def as_sum(x):
    return oracles.MonomialSum(x.terms)


def as_unit(x):
    (key, c), = x.terms
    return oracles.MonomialUnit(c, key)


@settings(derandomize=True, max_examples=150)
@given(sum_scalars, sum_scalars)
@example(Scalar.one() + Scalar.param("q"), Scalar.param("q", -1) - Scalar.one())
def test_sums_agree_with_the_two_class_oracle(a, b):
    oa, ob = as_sum(a), as_sum(b)
    assert str(a) == str(oa)
    assert (a == b) == (oa == ob)
    rebuilt = sum((Scalar.make(c, dict(k)) for k, c in oa.terms), Scalar.zero())
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert as_sum(a + b) == oa + ob
    assert as_sum(a - b) == oa - ob
    assert as_sum(a * b) == oa * ob


@settings(derandomize=True, max_examples=150)
@given(unit_scalars, unit_scalars, st.integers(-3, 3))
@example(Scalar.one(), Scalar.one(), 0)
def test_monomials_agree_with_the_two_class_oracle(a, b, k):
    ua, ub = as_unit(a), as_unit(b)
    assert str(a) == str(ua)
    assert (a == b) == (ua == ub)
    assert as_sum(a + b) == as_sum(a) + as_sum(b)
    assert as_sum(a - b) == as_sum(a) - as_sum(b)
    assert as_unit(a * b) == ua * ub
    assert as_unit(a / b) == ua / ub
    assert as_unit(a.inverse()) == ua.inverse()
    assert as_unit(a ** k) == ua ** k
