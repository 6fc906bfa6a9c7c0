"""Cocycle-twisted semigroup algebras and their quantum-torus geometry.

Elements are finite sums of monomials X^s with ``Scalar`` coefficients;
the product is X^s X^t = alpha(s, t) X^(s+t) extended bilinearly.  The
monomials range over one domain that decides its own membership: an affine
semigroup S (a straightening semigroup among them), a facet semigroup S_tau,
or a ``Sublattice`` for a quantum torus, which is k^alpha[Z^d] on
``Sublattice.standard(d)``.  The module
also builds the left twisting system that recovers the algebra from its
commutative degeneration, the quantum-torus embedding on the group of
fractions, and facet localizations.  The twisting system needs no
verification: for the closed-form cocycles its axiom is the cocycle
identity of a bilinear form, and tau_t(X^s) = alpha(s, t) X^s reproduces
the product by definition, so the proof is exact in every degree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from . import linalg
from .errors import DimensionError, PreconditionError
from .lattice_geometry import Facet, IntVec, Sublattice, as_vec, vadd, vneg, vsub, zero_vec
from .scalars_cocycles import Cocycle, Scalar, commutation_matrix
from .semigroups import AffineSemigroup, FacetSemigroup, facet_subsemigroup

PAIR_SEARCH_DEGREE = 10  # the degree window of the canonical pairs of a positive S


class TwistedElement:
    """Finite k-linear combination of monomials X^s, s in Z^(n+1).

    Canonical: zero coefficients are dropped, so equality is structural.
    Addition is cocycle-free; multiplication lives on the algebra.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[IntVec, Scalar | int]):
        canon: dict[IntVec, Scalar] = {}
        for s, c in terms.items():
            c = Scalar.of(c)
            if not c.is_zero():
                canon[as_vec(s)] = c
        self.terms = dict(sorted(canon.items()))

    @staticmethod
    def zero() -> "TwistedElement":
        return TwistedElement({})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> tuple[IntVec, ...]:
        return tuple(self.terms)

    def coefficient(self, s: Sequence[int]) -> Scalar:
        return self.terms.get(as_vec(s), Scalar.zero())

    def __add__(self, other: "TwistedElement") -> "TwistedElement":
        acc = dict(self.terms)
        for s, c in other.terms.items():
            acc[s] = acc.get(s, Scalar.zero()) + c
        return TwistedElement(acc)

    def __neg__(self) -> "TwistedElement":
        return TwistedElement({s: -c for s, c in self.terms.items()})

    def __sub__(self, other: "TwistedElement") -> "TwistedElement":
        return self + (-other)

    def scale(self, c) -> "TwistedElement":
        c = Scalar.of(c)
        return TwistedElement({s: c * v for s, v in self.terms.items()})

    def leading_term(self) -> tuple[Scalar, IntVec]:
        """The lexicographically maximal term (coefficient, exponent)."""
        if self.is_zero():
            raise ValueError("zero element has no leading term")
        s = max(self.terms)
        return self.terms[s], s

    def __eq__(self, other) -> bool:
        return isinstance(other, TwistedElement) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(self.terms.items()))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for s in sorted(self.terms, reverse=True):
            c = self.terms[s]
            mono = f"X{list(s)}"
            if c.is_one():
                parts.append(mono)
            elif c.is_monomial():
                parts.append(f"{c}*{mono}")
            else:
                parts.append(f"({c})*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


class TwistedAlgebra:
    """k^alpha[S]: monomials indexed by a domain, product twisted by alpha.

    ``domain`` is an AffineSemigroup, a FacetSemigroup, or a Sublattice (the
    quantum torus on it); each has ``ambient_dim`` and decides ``contains``.
    Supports of operands are validated against the domain on every product.
    """

    def __init__(self, domain: AffineSemigroup | FacetSemigroup | Sublattice,
                 cocycle: Cocycle):
        dim = domain.ambient_dim
        if cocycle.dim != dim:
            raise DimensionError(
                f"cocycle on Z^{cocycle.dim} cannot twist a dimension-{dim} algebra")
        self.domain = domain
        self.cocycle = cocycle
        self.dim = dim

    def __repr__(self) -> str:
        return f"TwistedAlgebra({self.domain!r}, params={list(self.cocycle.params)})"

    def _check_support(self, x: TwistedElement) -> None:
        """Every domain refuses a vector of the wrong length with ``DimensionError``."""
        for s in x.terms:
            if not self.domain.contains(s):
                raise PreconditionError(
                    f"support vector {list(s)} lies outside the monomial domain",
                    certificate=s)

    def monomial(self, s: Sequence[int], coeff=1) -> TwistedElement:
        x = TwistedElement({as_vec(s): Scalar.of(coeff)})
        self._check_support(x)
        return x

    def one(self) -> TwistedElement:
        return self.monomial(zero_vec(self.dim))

    def generators(self) -> list[TwistedElement]:
        if not isinstance(self.domain, AffineSemigroup):
            raise PreconditionError("generator monomials need an affine semigroup domain")
        return [self.monomial(g) for g in self.domain.generators]

    def product(self, x: TwistedElement, y: TwistedElement) -> TwistedElement:
        self._check_support(x)
        self._check_support(y)
        acc: dict[IntVec, Scalar] = {}
        for s, cx in x.terms.items():
            for t, cy in y.terms.items():
                st = vadd(s, t)
                c = cx * cy * self.cocycle(s, t)
                acc[st] = acc.get(st, Scalar.zero()) + c
        return TwistedElement(acc)

    def power(self, x: TwistedElement, k: int) -> TwistedElement:
        if k < 0:
            x, k = self.monomial_inverse(x), -k
        out = self.one()
        for _ in range(k):
            out = self.product(out, x)
        return out

    def monomial_inverse(self, x: TwistedElement) -> TwistedElement:
        """Inverse of a single invertible monomial: requires -s in the domain."""
        if len(x.terms) != 1:
            raise PreconditionError("only single monomials are invertible")
        (s, c), = x.terms.items()
        if not c.is_monomial():
            raise PreconditionError("coefficient is not an invertible monomial")
        neg = vneg(s)
        if not self.domain.contains(neg):
            raise PreconditionError(
                f"X{list(neg)} is outside the monomial domain; not invertible here")
        coeff = c.inverse() * self.cocycle(s, neg).inverse()
        return self.monomial(neg, coeff)

    def contains(self, x: TwistedElement) -> bool:
        """Whether every support vector belongs to the monomial domain."""
        return all(self.domain.contains(s) for s in x.terms)

    def torus(self) -> "TwistedAlgebra":
        return TwistedAlgebra(Sublattice.standard(self.dim), self.cocycle)

    # -- twisting system -----------------------------------------------------

    def twisting_system(self) -> "TwistingSystem":
        """The left twisting system tau with tau_t(X^s) = alpha(s, t) X^s.

        Exact for every degree, with no point checked: the twisting-system
        axiom alpha(g, g') alpha(g + g', g'') = alpha(g', g'') alpha(g, g' + g'')
        is the cocycle identity, which every closed-form cocycle satisfies
        because its exponent is a bilinear form, and the twisted product
        tau_t(X^s) X^t = alpha(s, t) X^(s+t) is this algebra's product by
        definition.  Needs an affine semigroup domain, positive or not.
        """
        if not isinstance(self.domain, AffineSemigroup):
            raise PreconditionError("twisting systems are built over semigroup algebras")
        return TwistingSystem(self.cocycle, self.dim)

    # -- quantum torus embedding ---------------------------------------------

    def torus_embedding(self) -> "TorusEmbedding":
        """Embed A into its quantum torus on G(S): one Y_i per basis vector b_i of G(S).

        Total on every affine semigroup.  b_0..b_(r-1) is the Hermite basis
        ``S.group.basis``, which is e_0..e_n when G(S) = Z^(n+1).
        Y_i = X^(s_i) (X^(t_i))^(-1) for a pair s_i - t_i = b_i in S: a
        positive S takes the lexicographically smallest t of degree
        <= PAIR_SEARCH_DEGREE with t + b_i in S, found by a lexicographic walk
        of S (``_lex_members``); otherwise s_i and t_i are the positive and the
        negative part of b_i = sum_j lambda_j g_j, for an integer solution
        e_i = sum_j lambda_j k(g_j) in the coordinates k(g) of G(S).  All data
        are exact closed forms in alpha:
        Y_i = alpha(s_i, -t_i) / alpha(t_i, -t_i) X^(b_i) = alpha(b_i, t_i)^(-1) X^(b_i),
        q_ij = alpha(b_i, b_j) / alpha(b_j, b_i) and, with k = k(g),
        X^g = c Y_0^(k_0)...Y_(r-1)^(k_(r-1)), where 1/c is the product of the
        Y_i scalars to the k_i, the word scalar of (k_0 b_0, ..., k_(r-1) b_(r-1))
        and the alpha(b_i, b_i)^(k_i (k_i - 1) / 2).  Each scalar is built once,
        from its sum of integer exponent numerators (``Cocycle.numerators``).
        ``q_matrix`` needs no check: q_ji has the negated exponents of q_ij and
        q_ii zero ones (``commutation_matrix``).
        """
        if not isinstance(self.domain, AffineSemigroup):
            raise PreconditionError("torus embedding starts from a semigroup algebra")
        s_gp = self.domain
        alpha, dim, gens, basis = self.cocycle, self.dim, s_gp.generators, s_gp.group.basis
        coords = s_gp._coordinates
        pairs: list[tuple[IntVec, IntVec]] = []
        for i, b_i in enumerate(basis):
            walk = _lex_members(s_gp, PAIR_SEARCH_DEGREE) if s_gp.positive else ()
            pair = next(((s, t) for t in walk if s_gp.contains(s := vadd(t, b_i))), None)
            if pair is None:
                # s_i collects the positive terms of b_i = sum_j lambda_j g_j
                e_i = tuple(int(j == i) for j in range(len(basis)))
                lam = linalg.solve_integer(linalg.transpose(coords), e_i)
                s = tuple(sum(l * g[k] for l, g in zip(lam, gens) if l > 0) for k in range(dim))
                pair = (s, vsub(s, b_i))
            pairs.append(pair)
        y_nums = [[-x for x in alpha.numerators(b, t)] for b, (_, t) in zip(basis, pairs)]
        q_matrix = commutation_matrix(alpha, basis)
        diagonal = [alpha.numerators(b, b) for b in basis]
        gen_scalars = {}
        for g, ks in zip(gens, coords):
            c = alpha.word_numerators([tuple(k * x for x in b) for k, b in zip(ks, basis)])
            for k, y, d in zip(ks, y_nums, diagonal):
                c = [x + k * y_x + k * (k - 1) // 2 * d_x for x, y_x, d_x in zip(c, y, d)]
            gen_scalars[g] = alpha.monomial([-x for x in c])
        ys = tuple(TwistedElement({b: alpha.monomial(y)}) for b, y in zip(basis, y_nums))
        return TorusEmbedding(q_matrix, tuple(pairs), ys, gen_scalars)

    # -- facet localization ----------------------------------------------------

    def localize_at_facet(self, facet: Facet) -> "FacetLocalization":
        """Invert the monomials on a facet: k^alpha[S_tau] with its torus-line shape.

        The underlying semigroup must be normal and full.  Returns the algebra
        on S_tau together with the commutation matrix q_tau of the canonical
        Z^n + N generators, skew-symmetric with unit diagonal by construction:
        ``commutation_matrix`` gives q_ji the negated exponents of q_ij, q_ii zero.
        """
        if not isinstance(self.domain, AffineSemigroup):
            raise PreconditionError("localization starts from a semigroup algebra")
        fs = facet_subsemigroup(self.domain, facet)
        t_vecs = fs.iso_generators
        q_tau = commutation_matrix(self.cocycle, t_vecs)
        algebra = TwistedAlgebra(fs, self.cocycle)
        return FacetLocalization(algebra, fs, q_tau, t_vecs)


def _lex_members(semigroup: AffineSemigroup, degree: int):
    """The members of a positive S of coordinate sum <= degree, lazily and in
    increasing lexicographic order.

    A heap walk from 0 that adds each nonzero generator while the degree stays
    <= ``degree``.  Such a generator has no negative entry, so it raises a
    vector lexicographically, and every member but 0 is one such step above a
    smaller member: the walk pops the sorted degree window without building it.
    """
    steps = [(g, sum(g)) for g in semigroup.generators if any(g)]
    start = zero_vec(semigroup.ambient_dim)
    heap, seen = [(start, 0)], {start}
    while heap:
        t, d = heapq.heappop(heap)
        yield t
        for g, dg in steps:
            if d + dg <= degree and (u := vadd(t, g)) not in seen:
                seen.add(u)
                heapq.heappush(heap, (u, d + dg))


@dataclass(frozen=True)
class TwistingSystem:
    """Left twisting system tau_t(X^s) = alpha(s, t) X^s on the commutative k[S]."""

    cocycle: Cocycle
    dim: int

    def apply(self, t: Sequence[int], x: TwistedElement) -> TwistedElement:
        t = as_vec(t)
        return TwistedElement({s: c * self.cocycle(s, t) for s, c in x.terms.items()})

    @cached_property
    def _commutative(self) -> TwistedAlgebra:
        return TwistedAlgebra(Sublattice.standard(self.dim),
                              Cocycle.trivial(self.dim, self.cocycle.params))

    def commutative_product(self, x: TwistedElement, y: TwistedElement) -> TwistedElement:
        """The product of k[Z^dim]: the torus product under the trivial cocycle."""
        return self._commutative.product(x, y)

    def twisted_product(self, x: TwistedElement, y: TwistedElement) -> TwistedElement:
        """x o y = sum over degrees t of y: tau_t(x) * y_t (commutative product)."""
        out = TwistedElement.zero()
        for t, cy in y.terms.items():
            piece = self.commutative_product(
                self.apply(t, x), TwistedElement({t: cy}))
            out = out + piece
        return out


@dataclass(frozen=True)
class TorusEmbedding:
    """Exact data of the embedding into a quantum torus on G(S); every S has one.

    ``pairs[i]`` is (s_i, t_i) in S with s_i - t_i = b_i, the i-th vector of
    ``S.group.basis``: for a positive S the lexicographically smallest t_i of
    degree <= 10 with t_i + b_i in S, which a lexicographic heap walk of S
    finds without building the degree window (the pairs are those of the
    sorted window), else the positive and negative parts of an integer
    solution b_i = sum_j lambda_j g_j.  ``y_monomials[i]`` is the resulting
    unit Y_i (a monomial with exponent b_i); ``q_matrix`` the commutation
    scalars of the Y's; ``generator_scalars[g]`` the scalar with
    X^g = scalar * Y^k for the coordinates k of g in G(S) (ordered product).
    All scalars are exact closed forms in the cocycle, each one monomial of a
    sum of integer exponent numerators.
    The inverse direction is monomial: Y_i is literally a Laurent monomial in
    the X's via pairs[i].
    """

    q_matrix: tuple[tuple[Scalar, ...], ...]
    pairs: tuple[tuple[IntVec, IntVec], ...]
    y_monomials: tuple[TwistedElement, ...]
    generator_scalars: dict[IntVec, Scalar]


@dataclass(frozen=True)
class FacetLocalization:
    """k^alpha[S_tau] presented as a twisted group-line algebra Z^n + N."""

    algebra: TwistedAlgebra
    facet_semigroup: FacetSemigroup
    q_tau: tuple[tuple[Scalar, ...], ...]
    iso_generators: tuple[IntVec, ...]
