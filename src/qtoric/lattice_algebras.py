"""Distributive lattices, their embedding semigroups, and straightening laws.

A finite distributive lattice embeds into N^(n+1) by sending each element to
the indicator vector of the join-irreducibles below it (plus a homogenizing
first coordinate).  Lattices are certified by Birkhoff's representation
theorem; by Hibi's theorem the image generates the semigroup cut out by the
staircase inequalities, every product of two lattice monomials straightens to
a scalar times the monomial of a standard (weakly increasing) word, and the
resulting twisted algebras inherit the exact regularity theory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import sub
from typing import Sequence

from .errors import DimensionError, PreconditionError, QtoricError, VerificationError
from .lattice_geometry import IntVec, as_vec, vadd, vsub, zero_vec
from .scalars_cocycles import Cocycle, Scalar
from .semigroups import AffineSemigroup, RegularityReport, regularity_report
from .twisted_algebra import TwistedAlgebra


class DistLattice:
    """Finite distributive lattice on elements 0..size-1.

    Ingested as cover relations; the order is their reflexive-transitive
    closure.  Meets and joins are read off down-set and up-set bitmasks, and
    distributivity is proved by Birkhoff's representation theorem; only a
    refused lattice is scanned on all triples, to report a witness triple.
    """

    def __init__(self, size: int, leq: Sequence[Sequence[bool]],
                 labels: Sequence[str] | None = None):
        if size < 1:
            raise ValueError("a lattice needs at least one element")
        self.size = size
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(size))
        if len(self.labels) != size or len(set(self.labels)) != size:
            raise ValueError("labels must be distinct and match the element count")
        self.leq = tuple(tuple(map(bool, row)) for row in leq)
        up = self._validate_order()
        down = [_mask(column) for column in zip(*self.leq)]
        self.meet, self.join = self._tables(up, down)
        if not self._birkhoff_certificate(up, down):
            self._check_distributive()
            raise VerificationError("Birkhoff's certificate refused a distributive lattice")

    @staticmethod
    def from_covers(labels: Sequence[str], covers: Sequence[tuple[str, str]]) -> "DistLattice":
        """Build from labeled Hasse-diagram edges (lower, upper)."""
        labels = tuple(labels)
        index = {name: i for i, name in enumerate(labels)}
        for lo, hi in covers:
            if lo not in index or hi not in index:
                raise QtoricError(f"cover ({lo}, {hi}) references an unknown element")
        n = len(labels)
        up = _up_sets(n, [(index[lo], index[hi]) for lo, hi in covers])
        return DistLattice(n, [[row >> j & 1 for j in range(n)] for row in up], labels)

    def _validate_order(self) -> list[int]:
        """Check reflexivity, antisymmetry and transitivity; return the up-set bitmasks."""
        n, leq = self.size, self.leq
        for i in range(n):
            if not leq[i][i]:
                raise QtoricError("order is not reflexive")
        up = [_mask(row) for row in leq]
        for i in range(n):
            for j in range(n):
                if leq[i][j]:
                    if i != j and leq[j][i]:
                        raise QtoricError(
                            f"order is not antisymmetric: {self.labels[i]} and {self.labels[j]}")
                    if up[j] & ~up[i]:
                        raise QtoricError("order is not transitive")
        return up

    def _tables(self, up: list[int], down: list[int]):
        """Meet and join tables: a ^ b is the element whose down-set is down(a) & down(b)."""
        by_down = {d: c for c, d in enumerate(down)}
        by_up = {u: c for c, u in enumerate(up)}
        meet = tuple(tuple(by_down.get(x & y) for y in down) for x in down)
        join = tuple(tuple(by_up.get(x & y) for y in up) for x in up)
        for a, b in itertools.product(range(self.size), repeat=2):
            if meet[a][b] is None or join[a][b] is None:
                kind = "meet" if meet[a][b] is None else "join"
                raise QtoricError(
                    f"not a lattice: {self.labels[a]} and {self.labels[b]} have no {kind}")
        return meet, join

    def _birkhoff_certificate(self, up: list[int], down: list[int]) -> bool:
        """Birkhoff: with J the elements that have exactly one lower cover, a
        finite lattice is distributive iff a -> {j in J : j <= a} is onto the
        down-sets of J.  Every element is the join of the members of J below
        it, so the map is injective and preserves and reflects order; the
        down-sets of J are counted, stopping past the size.  Keeps J and the
        lower-cover bitmasks.
        """
        n = self.size
        self._covers = covers = []
        for a in range(n):
            rest = strict = down[a] ^ 1 << a
            through = 0
            while rest:
                low = rest & -rest
                through |= down[low.bit_length() - 1] ^ low
                rest ^= low
            covers.append(strict & ~through)
        self._irreducibles = [a for a in range(n) if covers[a].bit_count() == 1]
        jmask = sum(1 << j for j in self._irreducibles)
        ideals = [d & jmask for d in down]
        return len(set(ideals)) == n and len(
            _down_set_masks(jmask, ideals, [u & jmask for u in up], limit=n)) == n

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
        return [b for b in range(self.size) if self._covers[a] >> b & 1]

    def join_irreducibles(self) -> list[int]:
        """Elements with exactly one lower cover (the minimum has none)."""
        return list(self._irreducibles)

    def label(self, a: int) -> str:
        return self.labels[a]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise QtoricError(f"unknown lattice element {label!r}") from None

    def __repr__(self) -> str:
        return f"DistLattice({list(self.labels)})"


def _mask(flags: Sequence[bool]) -> int:
    """The bitmask with bit i set iff flags[i]."""
    return int("".join(map("01".__getitem__, reversed(flags))), 2)


def _up_sets(n: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Up-set bitmasks of the reflexive-transitive closure of pairs a <= b on 0..n-1."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return up


def _down_set_masks(universe: int, down: Sequence[int], up: Sequence[int],
                    limit: int | None = None) -> list[int]:
    """Bitmasks of the down-sets of an order on the bits of ``universe``.

    ``down[x]``/``up[x]`` mask the elements of ``universe`` below/above x, x
    included.  Each branch decides the lowest undecided x, leaving up[x] out
    or taking down[x] in; neither clashes with earlier decisions, so the
    leaves are distinct down-sets.  Stops once more than ``limit`` are found.
    """
    found, stack = [], [(0, 0)]
    while stack and (limit is None or len(found) <= limit):
        inside, outside = stack.pop()
        free = universe & ~(inside | outside)
        if not free:
            found.append(inside)
            continue
        x = (free & -free).bit_length() - 1
        stack.append((inside, outside | up[x]))
        stack.append((inside | down[x], outside))
    return found


def ideal_lattice(num_elements: int, relations: Sequence[tuple[int, int]],
                  label_prefix: str = "I") -> DistLattice:
    """The lattice of down-closed subsets of a finite poset, ordered by inclusion.

    ``relations`` lists pairs (a, b) of elements 0..num_elements-1 meaning
    a <= b; the reflexive-transitive closure is taken.  Always distributive.
    """
    elems = range(num_elements)
    if any(x not in elems for pair in relations for x in pair):
        raise QtoricError(f"relations must name elements 0..{num_elements - 1}")
    up = _up_sets(num_elements, relations)
    down = [sum(1 << a for a in elems if up[a] >> b & 1) for b in elems]
    if any(up[a] & down[a] != 1 << a for a in elems):
        raise QtoricError("relations are not antisymmetric")
    ideals = sorted((frozenset(a for a in elems if m >> a & 1)
                     for m in _down_set_masks((1 << num_elements) - 1, down, up)),
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
    below it, a bijection onto the down-sets that the lattice's Birkhoff
    certificate proved when it was built.
    """

    lattice: DistLattice
    irreducibles: tuple[int, ...]
    ideal_of: dict[int, frozenset[int]]
    element_of: dict[frozenset[int], int]


def birkhoff(lattice: DistLattice, order: Sequence[int] | None = None) -> BirkhoffData:
    """The join-irreducibles and the Birkhoff bijection of a certified lattice.

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
    element_of = {ideal: a for a, ideal in ideal_of.items()}
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
        reversing gives the weakly increasing standard word, with vector sum s.
        Once ``contains(s)`` holds nothing can fail: s_i >= s_j > 0 for p_i < p_j
        makes the support a down-set, the ideal of an element (``element_of``),
        and peeling 1 at s_0 and on the support keeps 0 <= s_i <= s_0 (a zero
        s_i stays 0 <= s_0 - 1) and s_i >= s_j (both drop, or s_j stays 0), so
        s_0 peels end at zero.
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
            element = self.birkhoff.element_of[support]
            reversed_chain.append(element)
            cur = vsub(cur, self.vector_of[element])
        return StandardWord(tuple(reversed(reversed_chain)))

    def vector_of_word(self, word: Sequence[int]) -> IntVec:
        total = zero_vec(self.ambient_dim)
        for a in word:
            total = vadd(total, self.vector_of[a])
        return total

    def is_standard(self, word: Sequence[int]) -> bool:
        return all(self.lattice.leq[a][b] for a, b in zip(word, word[1:]))


def straightening_semigroup(lattice: DistLattice,
                            order: Sequence[int] | None = None) -> StrSemigroup:
    """The embedding semigroup of a distributive lattice; nothing to verify.

    The lattice's Birkhoff certificate proved that a -> ideal_of(a) is a
    bijection onto the down-sets of the irreducibles, so the embedding i is
    injective and each image, a down-set indicator, meets the staircase
    inequalities; i(a) + i(b) == i(a^b) + i(avb) as ideal_of(a^b) is the
    intersection of ideal_of(a) and ideal_of(b) in any lattice and ideal_of(avb)
    their union, irreducibles being join-prime in a distributive one.  That
    the images generate the whole staircase set is Hibi's theorem ("Distributive
    lattices, affine semigroup rings and algebras with straightening laws",
    1987), so membership and standard words are exact in every degree.
    """
    return StrSemigroup(birkhoff(lattice, order))


def straighten(sg: StrSemigroup, cocycle: Cocycle,
               word: Sequence[int]) -> tuple[Scalar, StandardWord]:
    """Rewrite a product of lattice monomials as scalar * standard monomial.

    ``word`` lists lattice elements (ids); the product of their monomials in
    k^alpha[S] equals the returned scalar times the monomial of the returned
    standard word.  The scalar is q^(E(word) - E(standard)) in closed form,
    E being the exponent of an ordered word product (``Cocycle.word_scalar``):
    one monomial of the difference of the two integer numerator vectors
    (``Cocycle.word_numerators``).  ``standard_word`` proves the sums agree.
    """
    if cocycle.dim != sg.ambient_dim:
        raise DimensionError(
            f"cocycle on Z^{cocycle.dim} cannot twist a dimension-{sg.ambient_dim} algebra")
    for a in word:
        if not 0 <= a < sg.lattice.size:
            raise PreconditionError(f"word element {a} is not a lattice element id")
    if not word:
        return Scalar.one(), StandardWord(())
    expo = sg.vector_of_word(word)
    standard = sg.standard_word(expo)
    exps = map(sub, cocycle.word_numerators([sg.vector_of[a] for a in word]),
               cocycle.word_numerators([sg.vector_of[a] for a in standard.chain]))
    return cocycle.monomial(list(exps)), standard


@dataclass(frozen=True)
class LatticeAlgebraReport:
    """Everything the pipeline proves about one lattice algebra."""

    semigroup: StrSemigroup
    regularity: RegularityReport
    algebra: TwistedAlgebra


def lattice_algebra_report(lattice: DistLattice, cocycle: Cocycle) -> LatticeAlgebraReport:
    """Full pipeline: embed, verify, and profile regularity.

    Lattice semigroups are always normal and full, hence maximal orders.
    """
    return algebra_report(straightening_semigroup(lattice), cocycle)


def algebra_report(sg: StrSemigroup, cocycle: Cocycle) -> LatticeAlgebraReport:
    """``lattice_algebra_report`` from a straightening semigroup built earlier.

    A semigroup kept across calls keeps its normality and facet certificates,
    so a second report on it repeats no cone computation.  It is full: with
    p_1..p_n in linear-extension order, v(p_k) - v(min) is e_k plus some e_i
    with i < k, unitriangular, and with v(min) = e_0 these generate Z^(n+1).
    It is normal, so the report needs no check: its generators (1, chi_I),
    chi_I the indicator of a down-set I, are the lattice points of
    {1} x the order polytope, and the semigroup they generate is the Hibi
    ring's, which is normal (Hibi, "Distributive lattices, affine semigroup
    rings and algebras with straightening laws", 1987).
    """
    if cocycle.dim != sg.ambient_dim:
        raise PreconditionError(
            f"cocycle dimension {cocycle.dim} does not match rank+1 = {sg.ambient_dim}")
    return LatticeAlgebraReport(sg, regularity_report(sg.semigroup),
                                TwistedAlgebra(sg.semigroup, cocycle))
