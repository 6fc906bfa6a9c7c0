from fractions import Fraction

import pytest

from qtoric import AffineSemigroup, Cocycle, DistLattice


# -- semigroups ---------------------------------------------------------------

@pytest.fixture
def n2():
    return AffineSemigroup([(1, 0), (0, 1)])


@pytest.fixture
def a1():
    """Cone over (1,0) and (1,2) including the interior generator."""
    return AffineSemigroup([(1, 0), (1, 1), (1, 2)])


@pytest.fixture
def n23():
    return AffineSemigroup([(2,), (3,)])


@pytest.fixture
def rays13():
    return AffineSemigroup([(1, 0), (1, 1), (1, 2), (1, 3)])


@pytest.fixture
def nonnorm_gap():
    """rays13 with the Hilbert-basis element (1,1) removed; not normal."""
    return AffineSemigroup([(1, 0), (1, 2), (1, 3)])


@pytest.fixture
def nonnorm_half():
    """(1,0) is in the group and doubles into S, but is not a member."""
    return AffineSemigroup([(2, 0), (0, 1), (1, 1)])


# -- lattices -----------------------------------------------------------------

@pytest.fixture
def chain2():
    return DistLattice.from_covers(["a", "b"], [("a", "b")])


@pytest.fixture
def chain3():
    return DistLattice.from_covers(["a", "m", "b"], [("a", "m"), ("m", "b")])


@pytest.fixture
def diamond():
    return DistLattice.from_covers(
        ["bot", "x", "y", "top"],
        [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")])


M3_COVERS = (["bot", "a", "b", "c", "top"],
             [("bot", "a"), ("bot", "b"), ("bot", "c"),
              ("a", "top"), ("b", "top"), ("c", "top")])

N5_COVERS = (["bot", "a", "b", "c", "top"],
             [("bot", "a"), ("bot", "c"), ("a", "b"),
              ("b", "top"), ("c", "top")])


# -- cocycles -----------------------------------------------------------------

def quantum_cocycle(dim: int) -> Cocycle:
    """Superdiagonal bicharacter: q_(i,i+1) exponent 1, rest zero."""
    b = [[1 if j == i + 1 else 0 for j in range(dim)] for i in range(dim)]
    return Cocycle.bicharacter(dim, {"q": b})


def two_parameter_cocycle(dim: int, integer, fraction) -> Cocycle:
    """A cocycle in q and r with both coboundary parts: its bicharacter entries
    come from ``integer()``, its quadratic forms and the linear form of r from
    ``fraction()``.
    """
    square = lambda entry: [[entry() for _ in range(dim)] for _ in range(dim)]
    return Cocycle.bicharacter(dim, {p: square(integer) for p in "qr"}).with_coboundary(
        quad={p: square(fraction) for p in "qr"}, lin={"r": [fraction() for _ in range(dim)]})


def shifted_cocycle(dim: int) -> Cocycle:
    """The quantum cocycle composed with a symmetric quadratic coboundary."""
    half = Fraction(1, 2)
    quad = [[half if i != j else 0 for j in range(dim)] for i in range(dim)]
    return quantum_cocycle(dim).with_coboundary(quad={"q": quad})


@pytest.fixture
def triv2():
    return Cocycle.trivial(2)


@pytest.fixture
def upper():
    return Cocycle.bicharacter(2, {"q": [[0, 1], [0, 0]]})


@pytest.fixture
def lower():
    return Cocycle.bicharacter(2, {"q": [[0, 0], [-1, 0]]})


@pytest.fixture
def shifted(upper):
    half = Fraction(1, 2)
    return upper.with_coboundary(quad={"q": [[0, half], [half, 0]]})


@pytest.fixture
def sym2():
    return Cocycle.bicharacter(2, {"q": [[0, 1], [1, 0]]})


@pytest.fixture
def double2():
    return Cocycle.bicharacter(2, {"q": [[0, 2], [0, 0]]})


@pytest.fixture
def qplane(lower):
    """Quantum-plane convention q_01 = q: alpha(s,t) = q^(-s1 t0)."""
    return lower
