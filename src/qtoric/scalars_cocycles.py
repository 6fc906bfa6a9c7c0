"""Scalar coefficients and normalized 2-cocycles on Z^(n+1).

Scalars live in the multiplicative group generated by nonzero rationals and
formal parameters raised to rational exponents.  Cocycles are stored in
closed form: one integer bicharacter matrix per parameter, optionally
composed with the coboundary of f(s) = prod_k c_k^(s^T Q_k s + L_k . s).
This family is closed under the coboundary relation, so cohomology questions
reduce to exact matrix comparisons verified by evaluation.

Every scalar a cocycle produces is prod_k c_k^(s^T C_k t) with the bilinear
form C_k = B_k - Q_k - Q_k^T.  A cocycle compiles these forms once, on its
first evaluation, into integer matrices over one common denominator; its
values, its ordered word products and ``full_form`` all read that data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
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
class ScalarMonomial:
    """A unit c * prod(params^exponents) with c a nonzero rational.

    Instances are canonical: zero exponents are dropped and parameter names
    sorted, so equality and hashing are structural.
    """

    coeff: Fraction
    exponents: ExpKey

    @staticmethod
    def make(coeff=1, exponents: Mapping[str, object] | None = None) -> "ScalarMonomial":
        c = _as_fraction(coeff)
        if c == 0:
            raise ValueError("scalar monomials are units; zero coefficient refused")
        exps = {}
        for name, e in (exponents or {}).items():
            e = _as_fraction(e)
            if e:
                exps[name] = e
        return ScalarMonomial(c, tuple(sorted(exps.items())))

    @staticmethod
    def one() -> "ScalarMonomial":
        return ScalarMonomial.make(1)

    @staticmethod
    def param(name: str, exponent=1) -> "ScalarMonomial":
        return ScalarMonomial.make(1, {name: exponent})

    def __mul__(self, other: "ScalarMonomial") -> "ScalarMonomial":
        exps = dict(self.exponents)
        for name, e in other.exponents:
            exps[name] = exps.get(name, Fraction(0)) + e
        return ScalarMonomial.make(self.coeff * other.coeff, exps)

    def __truediv__(self, other: "ScalarMonomial") -> "ScalarMonomial":
        return self * other.inverse()

    def inverse(self) -> "ScalarMonomial":
        return ScalarMonomial.make(1 / self.coeff, {n: -e for n, e in self.exponents})

    def __pow__(self, k: int) -> "ScalarMonomial":
        return ScalarMonomial.make(self.coeff ** k, {n: e * k for n, e in self.exponents})

    def is_one(self) -> bool:
        return self.coeff == 1 and not self.exponents

    def __str__(self) -> str:
        parts = []
        if self.coeff != 1 or not self.exponents:
            parts.append(str(self.coeff))
        for name, e in self.exponents:
            parts.append(name if e == 1 else f"{name}^{_format_exponent(e)}")
        return "*".join(parts)

    __repr__ = __str__


@dataclass(frozen=True)
class Scalar:
    """A finite rational linear combination of scalar monomials.

    This is the coefficient ring for algebra elements: sums arise when two
    product terms land on the same exponent vector.  It is a domain (the
    exponent group is totally ordered), and single-term values convert back
    to ScalarMonomial for the group-level operations.
    """

    terms: tuple[tuple[ExpKey, Fraction], ...]

    @staticmethod
    def from_terms(items: Mapping[ExpKey, Fraction]) -> "Scalar":
        return Scalar(tuple(sorted((k, c) for k, c in items.items() if c)))

    @staticmethod
    def of(m: "ScalarMonomial | Scalar | int | Fraction") -> "Scalar":
        if isinstance(m, Scalar):
            return m
        if isinstance(m, ScalarMonomial):
            return Scalar(((m.exponents, m.coeff),))
        c = _as_fraction(m)
        return Scalar((((), c),) if c else ())

    @staticmethod
    def zero() -> "Scalar":
        return Scalar(())

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def as_monomial(self) -> ScalarMonomial:
        if not self.is_monomial():
            raise ValueError(f"scalar {self} is not a single monomial")
        key, c = self.terms[0]
        return ScalarMonomial.make(c, dict(key))

    def __add__(self, other: "Scalar") -> "Scalar":
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, Fraction(0)) + c
        return Scalar.from_terms(acc)

    def __neg__(self) -> "Scalar":
        return Scalar(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        acc: dict[ExpKey, Fraction] = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                exps = dict(k1)
                for name, e in k2:
                    new = exps.get(name, Fraction(0)) + e
                    if new:
                        exps[name] = new
                    else:
                        del exps[name]
                key = tuple(sorted(exps.items()))
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return Scalar.from_terms(acc)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(ScalarMonomial.make(c, dict(k))) for k, c in self.terms)

    __repr__ = __str__


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

    def _monomial(self, numerators: Sequence[int]) -> ScalarMonomial:
        den = self._compiled[0]
        return ScalarMonomial(_ONE, tuple(sorted(
            (p, Fraction(e, den)) for p, e in zip(self.params, numerators) if e)))

    def __call__(self, s: IntVec, t: IntVec) -> ScalarMonomial:
        self._check_vec(s)
        self._check_vec(t)
        return self._monomial([_bilinear(s, c, t) for c in self._compiled[1]])

    def word_scalar(self, vectors: Sequence[IntVec]) -> ScalarMonomial:
        """The scalar q^E of the ordered product X^(v_1)...X^(v_k) = q^E X^(v_1+...+v_k).

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
        return self._monomial(exps)

    def coboundary_value(self, s: Sequence[int]) -> ScalarMonomial:
        """f(s) for the coboundary part (1 when there is none)."""
        self._check_vec(s)
        if self.quad is None:
            return ScalarMonomial.one()
        exps = {}
        for k, p in enumerate(self.params):
            e = _bilinear(s, self.quad[k], s)
            if self.lin is not None:
                e += sum(self.lin[k][i] * s[i] for i in range(self.dim))
            if e:
                exps[p] = e
        return ScalarMonomial.make(1, exps)

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
    """q_ij = alpha(g_i, g_j) / alpha(g_j, g_i); multiplicatively skew-symmetric."""
    return tuple(tuple(alpha(a, b) / alpha(b, a) for b in gens) for a in gens)


@dataclass(frozen=True)
class CohomologyResult:
    cohomologous: bool
    witness: Cocycle | None          # coboundary on basis coordinates: alpha == witness * beta
    distinguishing_pair: tuple[IntVec, IntVec] | None

    def witness_f(self, s: Sequence[int]) -> ScalarMonomial:
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
    Z^r, in B-coordinates, of f(x) = prod_k c_k^(-x^T (D_k/2) x), and
    alpha(xB, yB) == witness(x, y) * beta(xB, yB) is re-verified on the unit
    vectors and a small grid.
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
    sample = [tuple(int(i == j) for j in range(r)) for i in range(r)] + [
        tuple(2 if i == j else -1 for j in range(r)) for i in range(r)]
    through_b = {x: tuple(sum(c * b[k] for c, b in zip(x, group_basis)) for k in range(dim))
                 for x in sample}
    for x, y in itertools.product(sample, repeat=2):
        if witness(x, y) * beta(through_b[x], through_b[y]) != alpha(through_b[x], through_b[y]):
            raise QtoricError("coboundary witness failed verification")
    return CohomologyResult(True, witness, None)
