"""Distributive lattices, their embedding semigroups, and straightening laws.

A finite distributive lattice embeds into N^(n+1) by sending each element to
the indicator vector of the join-irreducibles below it (plus a homogenizing
first coordinate).  The image generates the semigroup cut out by the
staircase inequalities, every product of two lattice monomials straightens to
a scalar times the monomial of a standard (weakly increasing) word, and the
resulting twisted algebras inherit the exact regularity theory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionError, PreconditionError, QtoricError, VerificationError
from .lattice_geometry import IntVec, as_vec, vadd, vsub, zero_vec
from .scalars_cocycles import Cocycle, ScalarMonomial
from .semigroups import AffineSemigroup, RegularityReport, regularity_report
from .twisted_algebra import TwistedAlgebra


class DistLattice:
    """Finite distributive lattice on elements 0..size-1.

    Ingested as cover relations; the order is their reflexive-transitive
    closure.  Meets and joins are computed by closure and distributivity is
    checked eagerly on all triples (a witness triple is reported on failure).
    """

    def __init__(self, size: int, leq: Sequence[Sequence[bool]],
                 labels: Sequence[str] | None = None):
        if size < 1:
            raise ValueError("a lattice needs at least one element")
        self.size = size
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(size))
        if len(self.labels) != size or len(set(self.labels)) != size:
            raise ValueError("labels must be distinct and match the element count")
        self.leq = tuple(tuple(bool(x) for x in row) for row in leq)
        self._validate_order()
        self.meet, self.join = self._tables()
        self._check_distributive()

    @staticmethod
    def from_covers(labels: Sequence[str], covers: Sequence[tuple[str, str]]) -> "DistLattice":
        """Build from labeled Hasse-diagram edges (lower, upper)."""
        labels = tuple(labels)
        index = {name: i for i, name in enumerate(labels)}
        n = len(labels)
        leq = [[i == j for j in range(n)] for i in range(n)]
        for lo, hi in covers:
            if lo not in index or hi not in index:
                raise QtoricError(f"cover ({lo}, {hi}) references an unknown element")
            leq[index[lo]][index[hi]] = True
        # transitive closure
        for k in range(n):
            for i in range(n):
                if leq[i][k]:
                    row_k = leq[k]
                    leq[i] = [a or b for a, b in zip(leq[i], row_k)]
        return DistLattice(n, leq, labels)

    def _validate_order(self):
        n = self.size
        for i in range(n):
            if not self.leq[i][i]:
                raise QtoricError("order is not reflexive")
        for i in range(n):
            for j in range(n):
                if i != j and self.leq[i][j] and self.leq[j][i]:
                    raise QtoricError(
                        f"order is not antisymmetric: {self.labels[i]} and {self.labels[j]}")
                if self.leq[i][j]:
                    for k in range(n):
                        if self.leq[j][k] and not self.leq[i][k]:
                            raise QtoricError("order is not transitive")

    def _bound(self, a: int, b: int, lower: bool) -> int | None:
        n = self.size
        if lower:
            cands = [c for c in range(n) if self.leq[c][a] and self.leq[c][b]]
            best = [c for c in cands if all(self.leq[d][c] for d in cands)]
        else:
            cands = [c for c in range(n) if self.leq[a][c] and self.leq[b][c]]
            best = [c for c in cands if all(self.leq[c][d] for d in cands)]
        return best[0] if len(best) == 1 else None

    def _tables(self):
        n = self.size
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                m = self._bound(a, b, lower=True)
                j = self._bound(a, b, lower=False)
                if m is None or j is None:
                    kind = "meet" if m is None else "join"
                    raise QtoricError(
                        f"not a lattice: {self.labels[a]} and {self.labels[b]} have no {kind}")
                meet[a][b] = m
                join[a][b] = j
        return tuple(map(tuple, meet)), tuple(map(tuple, join))

    def _check_distributive(self):
        for a, b, c in itertools.product(range(self.size), repeat=3):
            lhs = self.meet[a][self.join[b][c]]
            rhs = self.join[self.meet[a][b]][self.meet[a][c]]
            if lhs != rhs:
                raise QtoricError(
                    "lattice is not distributive; witness triple "
                    f"({self.labels[a]}, {self.labels[b]}, {self.labels[c]})")

    # -- structure ----------------------------------------------------------

    @property
    def minimum(self) -> int:
        return next(i for i in range(self.size)
                    if all(self.leq[i][j] for j in range(self.size)))

    @property
    def maximum(self) -> int:
        return next(i for i in range(self.size)
                    if all(self.leq[j][i] for j in range(self.size)))

    def lower_covers(self, a: int) -> list[int]:
        below = [b for b in range(self.size) if b != a and self.leq[b][a]]
        return [b for b in below
                if not any(c != b and c != a and self.leq[b][c] and self.leq[c][a]
                           for c in below)]

    def join_irreducibles(self) -> list[int]:
        """Elements with exactly one lower cover (the minimum has none)."""
        return [a for a in range(self.size) if len(self.lower_covers(a)) == 1]

    def label(self, a: int) -> str:
        return self.labels[a]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise QtoricError(f"unknown lattice element {label!r}") from None

    def __repr__(self) -> str:
        return f"DistLattice({list(self.labels)})"


def _down_sets(leq_pairs: set[tuple[int, int]], elements: Sequence[int]) -> list[frozenset]:
    ideals = []
    elems = list(elements)
    for mask in itertools.product((False, True), repeat=len(elems)):
        subset = frozenset(e for e, keep in zip(elems, mask) if keep)
        if all(not ((a, b) in leq_pairs and b in subset and a not in subset)
               for a in elems for b in elems):
            ideals.append(subset)
    return ideals


def ideal_lattice(num_elements: int, relations: Sequence[tuple[int, int]],
                  label_prefix: str = "I") -> DistLattice:
    """The lattice of down-closed subsets of a finite poset, ordered by inclusion.

    ``relations`` lists pairs (a, b) meaning a <= b; the reflexive-transitive
    closure is taken.  Always distributive.
    """
    leq_pairs = {(a, a) for a in range(num_elements)} | set(relations)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(leq_pairs), repeat=2):
            if b == c and (a, d) not in leq_pairs:
                leq_pairs.add((a, d))
                changed = True
    for a, b in leq_pairs:
        if a != b and (b, a) in leq_pairs:
            raise QtoricError("relations are not antisymmetric")
    ideals = sorted(_down_sets(leq_pairs, range(num_elements)),
                    key=lambda s: (len(s), sorted(s)))
    labels = [label_prefix + "".join(str(e) for e in sorted(s)) for s in ideals]
    n = len(ideals)
    leq = [[ideals[i] <= ideals[j] for j in range(n)] for i in range(n)]
    return DistLattice(n, leq, labels)


@dataclass(frozen=True)
class BirkhoffData:
    """The lattice recovered as the ideal lattice of its join-irreducibles.

    ``irreducibles`` is ordered by a fixed linear extension of the induced
    order; ``ideal_of`` maps each lattice element to the set of irreducibles
    below it, a bijection onto the down-sets verified exhaustively.
    """

    lattice: DistLattice
    irreducibles: tuple[int, ...]
    ideal_of: dict[int, frozenset[int]]
    element_of: dict[frozenset[int], int]


def birkhoff(lattice: DistLattice, order: Sequence[int] | None = None) -> BirkhoffData:
    """Compute the join-irreducibles and verify the Birkhoff bijection.

    ``order`` optionally fixes the linear extension of the irreducibles
    (default: sorted topologically with ties by element id).
    """
    irr = lattice.join_irreducibles()
    if order is None:
        order = _linear_extension(lattice, irr)
    else:
        order = list(order)
        if sorted(order) != sorted(irr):
            raise PreconditionError("order must list exactly the join-irreducibles")
        for i, a in enumerate(order):
            for b in order[i + 1:]:
                if lattice.leq[b][a] and a != b:
                    raise PreconditionError(
                        f"order is not a linear extension: {lattice.label(b)} < "
                        f"{lattice.label(a)} comes later")
    ideal_of = {a: frozenset(p for p in irr if lattice.leq[p][a])
                for a in range(lattice.size)}
    element_of = {}
    for a, ideal in ideal_of.items():
        if ideal in element_of:
            raise VerificationError("ideal map is not injective")
        element_of[ideal] = a
    induced = {(a, b) for a in irr for b in irr if lattice.leq[a][b]}
    expected = set(_down_sets(induced, irr))
    if set(element_of) != expected:
        raise VerificationError("ideal map is not onto the down-sets of the irreducibles")
    for a, b in itertools.product(range(lattice.size), repeat=2):
        if lattice.leq[a][b] != (ideal_of[a] <= ideal_of[b]):
            raise VerificationError("ideal map does not preserve/reflect order")
    return BirkhoffData(lattice, tuple(order), ideal_of, element_of)


def _linear_extension(lattice: DistLattice, irr: list[int]) -> list[int]:
    remaining = sorted(irr)
    out = []
    while remaining:
        nxt = next(a for a in remaining
                   if not any(b != a and lattice.leq[b][a] for b in remaining))
        remaining.remove(nxt)
        out.append(nxt)
    return out


@dataclass(frozen=True)
class StandardWord:
    """A weakly increasing word in the lattice order; the normal form."""

    chain: tuple[int, ...]

    def labels(self, lattice: DistLattice) -> tuple[str, ...]:
        return tuple(lattice.label(a) for a in self.chain)


class StrSemigroup:
    """The embedding semigroup of a distributive lattice inside N^(n+1).

    n is the number of join-irreducibles; element alpha maps to
    e_0 + sum of e_i over irreducibles p_i <= alpha.  The image generates
    exactly the set cut out by s_i >= 0, s_0 >= s_i, and s_i >= s_j for each
    consecutive pair p_i < p_j of irreducibles, which gives an exact
    membership test and the standard-word normal form.
    """

    def __init__(self, birkhoff_data: BirkhoffData):
        self.birkhoff = birkhoff_data
        self.lattice = birkhoff_data.lattice
        irr = birkhoff_data.irreducibles
        self.rank = len(irr)
        self.ambient_dim = self.rank + 1
        self._position = {p: i + 1 for i, p in enumerate(irr)}
        self.vector_of = {
            a: tuple([1] + [int(p in birkhoff_data.ideal_of[a]) for p in irr])
            for a in range(self.lattice.size)}
        self.semigroup = AffineSemigroup(
            [self.vector_of[a] for a in range(self.lattice.size)], self.ambient_dim)
        self.consecutive_pairs = self._consecutive()

    def _consecutive(self) -> list[tuple[int, int]]:
        """Pairs (i, j) of coordinate positions with p_i < p_j consecutive."""
        irr = self.birkhoff.irreducibles
        leq = self.lattice.leq
        out = []
        for a in irr:
            for b in irr:
                if a != b and leq[a][b] and not any(
                        c != a and c != b and leq[a][c] and leq[c][b] for c in irr):
                    out.append((self._position[a], self._position[b]))
        return sorted(out)

    def contains(self, s: Sequence[int]) -> bool:
        s = as_vec(s)
        if len(s) != self.ambient_dim:
            return False
        if any(x < 0 for x in s) or any(s[i] > s[0] for i in range(1, self.ambient_dim)):
            return False
        return all(s[i] >= s[j] for i, j in self.consecutive_pairs)

    def standard_word(self, s: Sequence[int]) -> StandardWord:
        """Invert the embedding: the unique standard word with vector sum s.

        Peels the support ideal s_0 times; the supports weakly decrease, so
        reversing gives the weakly increasing standard word.
        """
        s = as_vec(s)
        if not self.contains(s):
            raise PreconditionError(
                f"{list(s)} is not in the lattice semigroup", certificate=s)
        irr = self.birkhoff.irreducibles
        reversed_chain = []
        cur = s
        while cur[0] > 0:
            support = frozenset(p for p in irr if cur[self._position[p]] != 0)
            element = self.birkhoff.element_of.get(support)
            if element is None:
                raise VerificationError(f"support of {list(cur)} is not an ideal")
            reversed_chain.append(element)
            cur = vsub(cur, self.vector_of[element])
            if any(x < 0 for x in cur):
                raise VerificationError("peeling left the semigroup")
        if cur != zero_vec(self.ambient_dim):
            raise VerificationError("peeling terminated off zero")
        return StandardWord(tuple(reversed(reversed_chain)))

    def vector_of_word(self, word: Sequence[int]) -> IntVec:
        total = zero_vec(self.ambient_dim)
        for a in word:
            total = vadd(total, self.vector_of[a])
        return total

    def is_standard(self, word: Sequence[int]) -> bool:
        return all(self.lattice.leq[a][b] for a, b in zip(word, word[1:]))


def straightening_semigroup(lattice: DistLattice, order: Sequence[int] | None = None,
                            image_bound: int = 4) -> StrSemigroup:
    """Build and verify the embedding semigroup of a distributive lattice.

    Verifies exactly that the embedding turns products into meet/join pairs
    (i(a) + i(b) == i(a^b) + i(avb) for all pairs), and boundedly (first
    coordinate <= image_bound) that the inequality description coincides with
    the embedded image via standard-word round trips.
    """
    data = birkhoff(lattice, order)
    sg = StrSemigroup(data)
    for a, b in itertools.product(range(lattice.size), repeat=2):
        lhs = vadd(sg.vector_of[a], sg.vector_of[b])
        rhs = vadd(sg.vector_of[lattice.meet[a][b]], sg.vector_of[lattice.join[a][b]])
        if lhs != rhs:
            raise VerificationError(
                f"embedding is not valuation-like at ({lattice.label(a)}, {lattice.label(b)})")
    values = set(sg.vector_of.values())
    if len(values) != lattice.size:
        raise VerificationError("embedding is not injective")
    for a in range(lattice.size):
        if not sg.contains(sg.vector_of[a]):
            raise VerificationError(
                f"image of {lattice.label(a)} violates the staircase inequalities")
    for s in _staircase_points(sg, image_bound):
        word = sg.standard_word(s)
        if sg.vector_of_word(word.chain) != s:
            raise VerificationError(f"standard word of {list(s)} does not re-sum to it")
    return sg


def _staircase_points(sg: StrSemigroup, bound: int):
    for s0 in range(bound + 1):
        for rest in itertools.product(range(s0 + 1), repeat=sg.rank):
            s = (s0,) + rest
            if sg.contains(s):
                yield s


def straighten(sg: StrSemigroup, cocycle: Cocycle,
               word: Sequence[int]) -> tuple[ScalarMonomial, StandardWord]:
    """Rewrite a product of lattice monomials as scalar * standard monomial.

    ``word`` lists lattice elements (ids); the product of their monomials in
    k^alpha[S] equals the returned scalar times the monomial of the returned
    standard word.  The scalar is q^(E(word) - E(standard)) in closed form,
    E being the exponent of an ordered word product (``Cocycle.word_scalar``).
    """
    if cocycle.dim != sg.ambient_dim:
        raise DimensionError(
            f"cocycle on Z^{cocycle.dim} cannot twist a dimension-{sg.ambient_dim} algebra")
    for a in word:
        if not 0 <= a < sg.lattice.size:
            raise PreconditionError(f"word element {a} is not a lattice element id")
    if not word:
        return ScalarMonomial.one(), StandardWord(())
    expo = sg.vector_of_word(word)
    standard = sg.standard_word(expo)
    if sg.vector_of_word(standard.chain) != expo:
        raise VerificationError("standard word re-sum disagrees with the product")
    scalar = (cocycle.word_scalar([sg.vector_of[a] for a in word])
              / cocycle.word_scalar([sg.vector_of[a] for a in standard.chain]))
    return scalar, standard


@dataclass(frozen=True)
class LatticeAlgebraReport:
    """Everything the pipeline proves about one lattice algebra."""

    semigroup: StrSemigroup
    regularity: RegularityReport
    algebra: TwistedAlgebra


def lattice_algebra_report(lattice: DistLattice, cocycle: Cocycle,
                           image_bound: int = 4) -> LatticeAlgebraReport:
    """Full pipeline: embed, verify, assert normality, and profile regularity.

    Lattice semigroups are always normal and full, hence maximal orders; a
    failure of those assertions indicates a bug, not bad input.
    """
    sg = straightening_semigroup(lattice, image_bound=image_bound)
    if cocycle.dim != sg.ambient_dim:
        raise PreconditionError(
            f"cocycle dimension {cocycle.dim} does not match rank+1 = {sg.ambient_dim}")
    if not sg.semigroup.is_full():
        raise VerificationError("lattice semigroup failed to be full")
    report = regularity_report(sg.semigroup)
    if not report.normal or not report.maximal_order:
        raise VerificationError("lattice semigroup failed to be normal")
    algebra = TwistedAlgebra(sg.semigroup, cocycle)
    return LatticeAlgebraReport(sg, report, algebra)
