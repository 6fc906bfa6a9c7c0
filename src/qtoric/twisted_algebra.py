"""Cocycle-twisted semigroup algebras and their quantum-torus geometry.

Elements are finite sums of monomials X^s with ``Scalar`` coefficients;
the product is X^s X^t = alpha(s, t) X^(s+t) extended bilinearly.  The module
also builds the left twisting system that recovers the algebra from its
commutative degeneration, the full quantum-torus embedding, and facet
localizations.  The twisting system needs no verification: for the
closed-form cocycles its axiom is the cocycle identity of a bilinear form,
and tau_t(X^s) = alpha(s, t) X^s reproduces the product by definition, so
the proof is exact in every degree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from . import linalg
from .errors import DimensionError, PreconditionError
from .lattice_geometry import Facet, IntVec, as_vec, vadd, vneg, vsub, zero_vec
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
    """k^alpha[S]: monomials indexed by a semigroup, product twisted by alpha.

    ``domain`` is an AffineSemigroup, a FacetSemigroup, or None for the full
    quantum torus on Z^dim.  Supports of operands are validated against the
    domain on every product.
    """

    def __init__(self, domain: AffineSemigroup | FacetSemigroup | None,
                 cocycle: Cocycle, dim: int | None = None):
        if domain is not None:
            dim = domain.ambient_dim
        if dim is None:
            raise DimensionError("torus algebra needs an explicit dimension")
        if cocycle.dim != dim:
            raise DimensionError(
                f"cocycle on Z^{cocycle.dim} cannot twist a dimension-{dim} algebra")
        self.domain = domain
        self.cocycle = cocycle
        self.dim = dim

    def __repr__(self) -> str:
        kind = "torus" if self.domain is None else repr(self.domain)
        return f"TwistedAlgebra({kind}, params={list(self.cocycle.params)})"

    def in_domain(self, s: Sequence[int]) -> bool:
        if self.domain is None:
            return len(s) == self.dim
        return self.domain.contains(s)

    def _check_support(self, x: TwistedElement) -> None:
        for s in x.terms:
            if len(s) != self.dim:
                raise DimensionError(f"monomial X{list(s)} has wrong dimension")
            if not self.in_domain(s):
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
        if self.domain is None or isinstance(self.domain, FacetSemigroup):
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
        if not self.in_domain(neg):
            raise PreconditionError(
                f"X{list(neg)} is outside the monomial domain; not invertible here")
        coeff = c.inverse() * self.cocycle(s, neg).inverse()
        return self.monomial(neg, coeff)

    def contains(self, x: TwistedElement) -> bool:
        """Whether every support vector belongs to the monomial domain."""
        return all(self.in_domain(s) for s in x.terms)

    def torus(self) -> "TwistedAlgebra":
        return TwistedAlgebra(None, self.cocycle, self.dim)

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
        if self.domain is None or isinstance(self.domain, FacetSemigroup):
            raise PreconditionError("twisting systems are built over semigroup algebras")
        return TwistingSystem(self.cocycle, self.dim)

    # -- quantum torus embedding ---------------------------------------------

    def torus_embedding(self) -> "TorusEmbedding":
        """Embed A into a quantum torus on Y_0..Y_n, one Y per lattice direction.

        Total on every full semigroup.  Y_i = X^(s_i) (X^(t_i))^(-1) for a pair
        s_i - t_i = e_i in S: a positive S takes the lexicographically smallest
        t of degree <= PAIR_SEARCH_DEGREE with t + e_i in S, found by a
        lexicographic walk of S (``_lex_members``); otherwise s_i and t_i are
        the positive and the negative part of an integer solution
        e_i = sum_j lambda_j g_j.  All data are exact closed forms in alpha:
        Y_i = alpha(s_i, -t_i) / alpha(t_i, -t_i) X^(e_i) = alpha(e_i, t_i)^(-1) X^(e_i),
        q_ij = alpha(e_i, e_j) / alpha(e_j, e_i) and X^g = c Y_0^(g_0)...Y_n^(g_n),
        where 1/c is the product of the Y_i scalars to the g_i, the word scalar
        of (g_0 e_0, ..., g_n e_n) and the alpha(e_i, e_i)^(g_i (g_i - 1) / 2).
        Each scalar is built once, from its sum of integer exponent numerators
        (``Cocycle.numerators``).  ``q_matrix`` needs no check: q_ji has the
        negated exponents of q_ij and q_ii zero ones (``commutation_matrix``).
        """
        if self.domain is None or isinstance(self.domain, FacetSemigroup):
            raise PreconditionError("torus embedding starts from a semigroup algebra")
        s_gp = self.domain
        if not s_gp.is_full():
            raise PreconditionError(
                f"semigroup group of fractions has rank {s_gp.rank} inside "
                f"Z^{s_gp.ambient_dim} or is a proper sublattice; embed fully first",
                certificate=s_gp.group)
        alpha, dim, gens = self.cocycle, self.dim, s_gp.generators
        basis = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
        pairs: list[tuple[IntVec, IntVec]] = []
        for e_i in basis:
            walk = _lex_members(s_gp, PAIR_SEARCH_DEGREE) if s_gp.positive else ()
            pair = next(((s, t) for t in walk if s_gp.contains(s := vadd(t, e_i))), None)
            if pair is None:
                # s_i collects the positive terms of e_i = sum_j lambda_j g_j
                lam = linalg.solve_integer(linalg.transpose(gens), e_i)
                s = tuple(sum(l * g[k] for l, g in zip(lam, gens) if l > 0) for k in range(dim))
                pair = (s, vsub(s, e_i))
            pairs.append(pair)
        y_nums = [[-x for x in alpha.numerators(e, t)] for e, (_, t) in zip(basis, pairs)]
        q_matrix = commutation_matrix(alpha, basis)
        diagonal = [alpha.numerators(e, e) for e in basis]
        gen_scalars = {}
        for g in gens:
            c = alpha.word_numerators([tuple(k * x for x in e) for k, e in zip(g, basis)])
            for k, y, d in zip(g, y_nums, diagonal):
                c = [x + k * y_x + k * (k - 1) // 2 * d_x for x, y_x, d_x in zip(c, y, d)]
            gen_scalars[g] = alpha.monomial([-x for x in c])
        ys = tuple(TwistedElement({e: alpha.monomial(y)}) for e, y in zip(basis, y_nums))
        return TorusEmbedding(q_matrix, tuple(pairs), ys, gen_scalars)

    # -- facet localization ----------------------------------------------------

    def localize_at_facet(self, facet: Facet) -> "FacetLocalization":
        """Invert the monomials on a facet: k^alpha[S_tau] with its torus-line shape.

        The underlying semigroup must be normal and full.  Returns the algebra
        on S_tau together with the commutation matrix q_tau of the canonical
        Z^n + N generators, skew-symmetric with unit diagonal by construction:
        ``commutation_matrix`` gives q_ji the negated exponents of q_ij, q_ii zero.
        """
        if self.domain is None or isinstance(self.domain, FacetSemigroup):
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
        return TwistedAlgebra(None, Cocycle.trivial(self.dim, self.cocycle.params), self.dim)

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
    """Exact data of the embedding into a quantum torus; every full S has one.

    ``pairs[i]`` is (s_i, t_i) in S with s_i - t_i = e_i: for a positive S the
    lexicographically smallest t_i of degree <= 10 with t_i + e_i in S, which
    a lexicographic heap walk of S finds without building the degree window
    (the pairs are those of the sorted window), else the positive and
    negative parts of an integer solution e_i = sum_j lambda_j g_j.
    ``y_monomials[i]`` is the resulting unit Y_i
    (a monomial with exponent e_i); ``q_matrix`` the commutation scalars of
    the Y's; ``generator_scalars[g]`` the scalar with X^g = scalar * Y^g
    (ordered product).  All scalars are exact closed forms in the cocycle,
    each one monomial of a sum of integer exponent numerators.
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
