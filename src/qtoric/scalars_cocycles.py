"""Scalar coefficients and normalized 2-cocycles on Z^(n+1).

One scalar type carries the twisted layer.  A ``Scalar`` is a finite
rational linear combination of parameter monomials c * prod_k c_k^(e_k),
with c a nonzero rational and rational exponents e_k.  The monomials are the
one-term scalars and the only units: every cocycle value is one, and only
they invert, divide and take integer powers.  Cocycles are stored in closed
form: one integer bicharacter matrix per parameter, optionally composed with
the coboundary of f(s) = prod_k c_k^(s^T Q_k s + L_k . s).  This family is
closed under the coboundary relation, so cohomology questions reduce to
exact matrix comparisons verified by evaluation.

Every scalar a cocycle produces is prod_k c_k^(s^T C_k t) with the bilinear
form C_k = B_k - Q_k - Q_k^T.  A cocycle compiles these forms once, on its
first evaluation, into integer matrices over one common denominator; its
values, its ordered word products and ``full_form`` all read that data.
``numerators`` and ``word_numerators`` give those exponents as integer
numerator vectors over that denominator, so a caller that combines several
values (straightening, the torus embedding, a commutation matrix) adds and
subtracts integers and builds one monomial per result with ``monomial``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul, sub
from typing import Mapping, Sequence

from .errors import DimensionError, QtoricError
from .lattice_geometry import IntVec

ExpKey = tuple[tuple[str, Fraction], ...]
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {x!r}")


def _format_exponent(e: Fraction) -> str:
    if e.denominator == 1:
        return str(e.numerator)
    return f"({e})"


@dataclass(frozen=True)
class Scalar:
    """A finite rational linear combination of parameter monomials.

    A monomial c * prod(params^exponents), with c a nonzero rational and
    rational exponents, is a one-term Scalar.  ``terms`` holds (exponent key,
    coefficient) pairs sorted by key with no zero coefficient, and a key holds
    (name, exponent) pairs sorted by name with no zero exponent, so equality
    and hashing are structural.  The ring is a domain (the exponent group is
    totally ordered) whose units are exactly the monomials: only they invert,
    divide and take integer powers.
    """

    terms: tuple[tuple[ExpKey, Fraction], ...]

    @staticmethod
    def make(coeff=1, exponents: Mapping[str, object] | None = None) -> "Scalar":
        """The monomial coeff * prod(name^exponent); a zero coefficient is refused."""
        c = _as_fraction(coeff)
        if c == 0:
            raise ValueError("scalar monomials are units; zero coefficient refused")
        exps = {name: _as_fraction(e) for name, e in (exponents or {}).items()}
        return Scalar(((tuple(sorted((name, e) for name, e in exps.items() if e)), c),))

    @staticmethod
    def one() -> "Scalar":
        return Scalar.make(1)

    @staticmethod
    def param(name: str, exponent=1) -> "Scalar":
        return Scalar.make(1, {name: exponent})

    @staticmethod
    def zero() -> "Scalar":
        return Scalar(())

    @staticmethod
    def of(x: "Scalar | int | Fraction") -> "Scalar":
        if isinstance(x, Scalar):
            return x
        c = _as_fraction(x)
        return Scalar((((), c),) if c else ())

    @staticmethod
    def _sum_terms(terms: Sequence[tuple[ExpKey, Fraction]]) -> "Scalar":
        """The Scalar of nonzero (key, coefficient) pairs, like terms added; a
        single pair is canonical as it stands."""
        if len(terms) == 1:
            return Scalar(tuple(terms))
        acc: dict[ExpKey, Fraction] = {}
        for key, c in terms:
            acc[key] = acc[key] + c if key in acc else c
        return Scalar(tuple(sorted((k, c) for k, c in acc.items() if c)))

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == (((), _ONE),)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def _unit_term(self) -> tuple[ExpKey, Fraction]:
        if len(self.terms) != 1:
            raise ValueError(f"scalar {self} is not a single monomial, so not a unit")
        return self.terms[0]

    def as_monomial(self) -> "Scalar":
        """This scalar when it is a monomial, that is a unit; else ValueError."""
        self._unit_term()
        return self

    @property
    def exponents(self) -> ExpKey:
        """The exponent key of a monomial."""
        return self._unit_term()[0]

    def inverse(self) -> "Scalar":
        key, c = self._unit_term()
        return Scalar(((tuple((name, -e) for name, e in key), 1 / c),))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __pow__(self, k: int) -> "Scalar":
        key, c = self._unit_term()
        return Scalar.make(c ** k, {name: e * k for name, e in key})

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar._sum_terms(self.terms + other.terms)

    def __neg__(self) -> "Scalar":
        return Scalar(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        products = []
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                exps = dict(k1)
                for name, e in k2:
                    e = exps.pop(name) + e if name in exps else e
                    if e:
                        exps[name] = e
                products.append((tuple(sorted(exps.items())), c1 * c2))
        return Scalar._sum_terms(products)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(_format_monomial(c, key) for key, c in self.terms)

    __repr__ = __str__


ScalarMonomial = Scalar  # the name of the monomials, which are one-term scalars


def _format_monomial(c: Fraction, key: ExpKey) -> str:
    parts = [name if e == 1 else f"{name}^{_format_exponent(e)}" for name, e in key]
    if c != 1 or not key:
        parts.insert(0, str(c))
    return "*".join(parts)


def _as_int_matrix(rows, dim: int):
    mat = tuple(tuple(int(x) for x in row) for row in rows)
    if len(mat) != dim or any(len(r) != dim for r in mat):
        raise DimensionError(f"expected a {dim}x{dim} matrix")
    for row, orig in zip(mat, rows):
        for x, y in zip(row, orig):
            if x != y:
                raise TypeError("bicharacter matrices must have integer entries")
    return mat


def _as_frac_matrix(rows, dim: int):
    mat = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
    if len(mat) != dim or any(len(r) != dim for r in mat):
        raise DimensionError(f"expected a {dim}x{dim} matrix")
    return mat


def _as_frac_vector(row, dim: int):
    v = tuple(_as_fraction(x) for x in row)
    if len(v) != dim:
        raise DimensionError(f"expected a vector of length {dim}")
    return v


def _bilinear(s: Sequence, mat, t: Sequence):
    return sum(si * sum(map(mul, row, t)) for si, row in zip(s, mat) if si)


@dataclass(frozen=True)
class Cocycle:
    """Normalized 2-cocycle alpha on Z^dim in closed form.

    alpha(s, t) = prod_k c_k^(s^T B_k t) * (f(s) f(t) / f(s+t)) with
    f(s) = prod_k c_k^(s^T Q_k s + L_k . s).  B_k integer, Q_k and L_k
    rational; parameters are ordered and matrices aligned with them.
    The cocycle identity holds for every member of this family, and
    alpha(s, 0) = alpha(0, t) = 1 structurally.
    """

    dim: int
    params: tuple[str, ...]
    bichar: tuple[tuple[tuple[int, ...], ...], ...]
    quad: tuple[tuple[tuple[Fraction, ...], ...], ...] | None = None
    lin: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        if len(set(self.params)) != len(self.params):
            raise ValueError("duplicate parameter names")
        if len(self.bichar) != len(self.params):
            raise DimensionError("one bicharacter matrix per parameter required")
        for m in self.bichar:
            _as_int_matrix(m, self.dim)
        if self.quad is not None and len(self.quad) != len(self.params):
            raise DimensionError("one quadratic form per parameter required")
        if self.lin is not None and len(self.lin) != len(self.params):
            raise DimensionError("one linear form per parameter required")

    @staticmethod
    def trivial(dim: int, params: Sequence[str] = ("q",)) -> "Cocycle":
        zero = tuple(tuple(0 for _ in range(dim)) for _ in range(dim))
        return Cocycle(dim, tuple(params), tuple(zero for _ in params))

    @staticmethod
    def bicharacter(dim: int, matrices: Mapping[str, Sequence[Sequence[int]]]) -> "Cocycle":
        params = tuple(sorted(matrices))
        return Cocycle(dim, params,
                       tuple(_as_int_matrix(matrices[p], dim) for p in params))

    @staticmethod
    def from_commutation(dim: int, skew: Mapping[str, Sequence[Sequence[int]]]) -> "Cocycle":
        """Cocycle of the normal-ordering convention X^s = X_0^(s_0)...X_n^(s_n).

        ``skew`` gives, per parameter, the integer exponent matrix m with
        q_ij = prod_k c_k^(m_k[i][j]); each m must be skew-symmetric.  The
        induced cocycle multiplies X^s X^t by prod_(i>j) q_ij^(s_i t_j), i.e.
        its bicharacter matrix is the strictly lower triangle of m.
        """
        params = tuple(sorted(skew))
        mats = []
        for p in params:
            m = _as_int_matrix(skew[p], dim)
            for i in range(dim):
                for j in range(dim):
                    if m[i][j] != -m[j][i]:
                        raise ValueError(
                            f"commutation exponents for {p} are not skew-symmetric")
            mats.append(tuple(tuple(m[i][j] if i > j else 0 for j in range(dim))
                              for i in range(dim)))
        return Cocycle(dim, params, tuple(mats))

    def with_coboundary(self, quad: Mapping[str, Sequence[Sequence]] | None = None,
                        lin: Mapping[str, Sequence] | None = None) -> "Cocycle":
        zero_m = tuple(tuple(Fraction(0) for _ in range(self.dim)) for _ in range(self.dim))
        zero_v = tuple(Fraction(0) for _ in range(self.dim))
        quad = quad or {}
        lin = lin or {}
        for name in itertools.chain(quad, lin):
            if name not in self.params:
                raise QtoricError(f"unknown parameter {name!r} in coboundary data")
        return Cocycle(
            self.dim, self.params, self.bichar,
            tuple(_as_frac_matrix(quad[p], self.dim) if p in quad else zero_m
                  for p in self.params),
            tuple(_as_frac_vector(lin[p], self.dim) if p in lin else zero_v
                  for p in self.params))

    def _check_vec(self, v: Sequence[int]) -> None:
        if len(v) != self.dim:
            raise DimensionError(f"cocycle on Z^{self.dim} applied to length-{len(v)} vector")

    @cached_property
    def _compiled(self) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
        """(den, forms) with forms[k] == den * C_k, all integers, C_k = B_k - Q_k - Q_k^T."""
        quads = self.quad if self.quad is not None else (None,) * len(self.params)
        idx = range(self.dim)
        forms = [[[Fraction(b[i][j]) - (q[i][j] + q[j][i] if q is not None else 0) for j in idx]
                  for i in idx] for b, q in zip(self.bichar, quads)]
        den = math.lcm(1, *(x.denominator for c in forms for row in c for x in row))
        return den, tuple(tuple(tuple(int(x * den) for x in row) for row in c) for c in forms)

    def monomial(self, numerators: Sequence[int]) -> Scalar:
        """The monomial prod_k c_k^(numerators[k] / den), den the common denominator."""
        den = self._compiled[0]
        return Scalar(((tuple(sorted(
            (p, Fraction(e, den)) for p, e in zip(self.params, numerators) if e)), _ONE),))

    def numerators(self, s: IntVec, t: IntVec) -> list[int]:
        """The exponents of alpha(s, t) times the common denominator: s^T (den C_k) t."""
        self._check_vec(s)
        self._check_vec(t)
        return [_bilinear(s, c, t) for c in self._compiled[1]]

    def __call__(self, s: IntVec, t: IntVec) -> Scalar:
        return self.monomial(self.numerators(s, t))

    def word_numerators(self, vectors: Sequence[IntVec]) -> list[int]:
        """The exponents E of ``word_scalar`` times the common denominator.

        E_k = sum_(i<j) v_i^T C_k v_j, accumulated against the prefix sums of
        the word.
        """
        forms = self._compiled[1]
        exps = [0] * len(forms)
        prefix = (0,) * self.dim
        for v in vectors:
            self._check_vec(v)
            for k, c in enumerate(forms):
                exps[k] += _bilinear(prefix, c, v)
            prefix = tuple(a + b for a, b in zip(prefix, v))
        return exps

    def word_scalar(self, vectors: Sequence[IntVec]) -> Scalar:
        """The scalar q^E of the ordered product X^(v_1)...X^(v_k) = q^E X^(v_1+...+v_k)."""
        return self.monomial(self.word_numerators(vectors))

    def coboundary_value(self, s: Sequence[int]) -> Scalar:
        """f(s) for the coboundary part (1 when there is none)."""
        self._check_vec(s)
        if self.quad is None:
            return Scalar.one()
        exps = {}
        for k, p in enumerate(self.params):
            e = _bilinear(s, self.quad[k], s)
            if self.lin is not None:
                e += sum(self.lin[k][i] * s[i] for i in range(self.dim))
            if e:
                exps[p] = e
        return Scalar.make(1, exps)

    def full_form(self, param_index: int):
        """The rational bilinear form C_k with alpha's k-exponent == s^T C_k t."""
        den, forms = self._compiled
        return tuple(tuple(Fraction(x, den) for x in row) for row in forms[param_index])

    def skew_form(self, param_index: int):
        c = self.full_form(param_index)
        return tuple(tuple(c[i][j] - c[j][i] for j in range(self.dim))
                     for i in range(self.dim))


def check_cocycle_identity(alpha: Cocycle, triples: Sequence[tuple[IntVec, IntVec, IntVec]],
                           eval_fn=None):
    """Check alpha(s,t)alpha(s+t,u) == alpha(t,u)alpha(s,t+u) on the triples.

    Returns None if every triple passes, else the first failing triple.
    ``eval_fn`` overrides the evaluation (used to prove the check can detect
    corruption).
    """
    ev = eval_fn if eval_fn is not None else alpha
    for s, t, u in triples:
        st = tuple(a + b for a, b in zip(s, t))
        tu = tuple(a + b for a, b in zip(t, u))
        if ev(s, t) * ev(st, u) != ev(t, u) * ev(s, tu):
            return (s, t, u)
    return None


def commutation_matrix(alpha: Cocycle, gens: Sequence[IntVec]):
    """q_ij = alpha(g_i, g_j) / alpha(g_j, g_i); multiplicatively skew-symmetric.

    Each entry is one monomial of the numerator difference.
    """
    return tuple(tuple(alpha.monomial(list(map(sub, alpha.numerators(a, b),
                                               alpha.numerators(b, a))))
                       for b in gens) for a in gens)


@dataclass(frozen=True)
class CohomologyResult:
    cohomologous: bool
    witness: Cocycle | None          # coboundary on basis coordinates: alpha == witness * beta
    distinguishing_pair: tuple[IntVec, IntVec] | None

    def witness_f(self, s: Sequence[int]) -> Scalar:
        if self.witness is None:
            raise ValueError("no witness: cocycles are not cohomologous")
        return self.witness.coboundary_value(s)


def are_cohomologous(alpha: Cocycle, beta: Cocycle,
                     group_basis: Sequence[IntVec] | None = None) -> CohomologyResult:
    """Decide alpha ~ beta over the same parameters on the lattice spanned by
    ``group_basis`` (default: the standard basis of Z^dim); exact.

    With B the r basis rows, closed-form cocycles are cohomologous there iff
    the restricted differences D_k = B (C_k(alpha) - C_k(beta)) B^T are
    symmetric (their skew parts agree); else the first basis pair with an
    asymmetric entry distinguishes them.  The witness is the coboundary on
    Z^r, in B-coordinates, of f(x) = prod_k c_k^(-x^T (D_k/2) x).  It needs
    no check on sample points: its form is C_k = -Q_k - Q_k^T = D_k/2 + D_k^T/2
    = D_k for a symmetric D_k, so witness(x, y) = prod_k c_k^(x^T D_k y),
    which is alpha(xB, yB) / beta(xB, yB) for every x, y in Z^r.
    """
    if alpha.dim != beta.dim:
        raise DimensionError("cocycles live on different lattices")
    if alpha.params != beta.params:
        raise QtoricError(
            f"parameter lists differ: {list(alpha.params)} vs {list(beta.params)}")
    dim = alpha.dim
    if group_basis is None:
        group_basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    if any(len(b) != dim for b in group_basis):
        raise DimensionError(f"group basis vectors must have length {dim}")
    diffs = []
    for k in range(len(alpha.params)):
        ca, cb = alpha.full_form(k), beta.full_form(k)
        d = [[ca[i][j] - cb[i][j] for j in range(dim)] for i in range(dim)]
        diffs.append([[_bilinear(u, d, v) for v in group_basis] for u in group_basis])
    for (i, u), (j, v) in itertools.product(enumerate(group_basis), repeat=2):
        if any(d[i][j] != d[j][i] for d in diffs):
            return CohomologyResult(False, None, (u, v))
    r = len(group_basis)
    quad = {p: [[-Fraction(x, 2) for x in row] for row in d]
            for p, d in zip(alpha.params, diffs) if any(x for row in d for x in row)}
    witness = Cocycle.trivial(r, alpha.params).with_coboundary(quad=quad)
    return CohomologyResult(True, witness, None)
