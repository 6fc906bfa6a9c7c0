"""Finitely generated affine semigroups and their ring-theoretic reports.

An AffineSemigroup is a finite generating set inside Z^(n+1).  Membership is
decided by one exact search on heights, linear forms on G(S) that are
nonnegative on S: the ambient coordinates of a positive S, the inner facet
normals of any other pointed one (a cone with a line is refused with a
certificate); a vector outside G(S), or of negative height on a facet of
the cone, is refuted before any search.  A subclass whose membership has a
closed form (the straightening semigroups of ``lattice_algebras``) overrides
``contains`` and ``membership``.  Normality is decided by comparing against
the Hilbert basis of the saturation, facet semigroups read the facets of the
one cone pass, and the regularity report turns polyhedral certificates into
exact Cohen-Macaulay / Gorenstein / regular / maximal-order decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import mul, sub
from typing import Sequence

from . import linalg
from .errors import (DimensionError, NotNormalError, PreconditionError,
                     SizeLimitError, VerificationError)
from .lattice_geometry import (Cone, ConePass, Facet, IntVec, _incident_facets, as_vec,
                               is_zero, lattice_of, vadd, vdot, vsub, zero_vec)

# hilbert_function enumerates every member up to its degree N; in dimension d
# there are at most C(N + d, d) of them (the nonnegative vectors of coordinate
# sum <= N).  A million members of A1 take about 1 s on a 2-core Xeon VM.
MAX_DEGREE_POINTS = 1_000_000
# The membership search lists every summand of its witness: a witness of
# 3 * 10^6 summands raises the peak RSS by about 53 MiB (64-bit CPython 3.11),
# so a multiple of one generator beyond this many summands is refused before
# its list is built.
MAX_WITNESS_SUMMANDS = 1_000_000
# A non-normal S has a Hilbert-basis element h of its saturation outside S;
# normality() then searches p = 2, 3, ... for the least p with p * h in S,
# and refuses a p beyond this many.
MAX_NORMALITY_MULTIPLE = 10_000


def _charge_witness(summands: int) -> None:
    """Refuse a witness of more than ``MAX_WITNESS_SUMMANDS`` summands before
    it is built."""
    if summands > MAX_WITNESS_SUMMANDS:
        raise SizeLimitError(f"a witness of {summands} summands exceeds the supported "
                             f"limit of {MAX_WITNESS_SUMMANDS}")


@dataclass(frozen=True)
class Membership:
    """Decision for one membership query; a negative decision is a proof.

    ``witness`` is a sorted tuple of generator indices summing to the query
    vector, or None on a negative decision.
    """

    member: bool
    witness: tuple[int, ...] | None


class AffineSemigroup:
    """Subsemigroup of (Z^(n+1), +) given by finitely many nonzero generators.

    Pointedness, the heights of a non-positive S, the refutation of a
    non-member below a facet, the facets, normality and the regularity report
    all read one double-description pass (``_cone``); a positive S needs none
    to be pointed.
    """

    def __init__(self, generators: Sequence[Sequence[int]], ambient_dim: int | None = None):
        gens = tuple(as_vec(g) for g in generators)
        for g in gens:
            if is_zero(g):
                raise ValueError("zero generator refused (it is implicit)")
        if not gens and ambient_dim is None:
            raise DimensionError("ambient dimension required for the trivial semigroup")
        if gens:
            dims = {len(g) for g in gens}
            if ambient_dim is not None:
                dims.add(ambient_dim)
            if len(dims) != 1:
                raise DimensionError(f"mixed ambient dimensions {sorted(dims)}")
            ambient_dim = dims.pop()
        self.generators = gens
        self.ambient_dim = int(ambient_dim)
        self.group = lattice_of(gens, self.ambient_dim)
        self.cone = Cone(gens if gens else (zero_vec(self.ambient_dim),), self.ambient_dim)
        self.positive = bool(gens) and all(all(x >= 0 for x in g) for g in gens)
        self._member_cache: dict[IntVec, Membership] = {}
        self._normality_cache: NormalityCertificate | None = None
        self._normality_refusal: SizeLimitError | None = None

    # -- basic structure ---------------------------------------------------

    @property
    def rank(self) -> int:
        return self.group.rank

    def is_trivial(self) -> bool:
        return not self.generators

    def is_full(self) -> bool:
        """Whether the group of fractions is all of Z^(n+1)."""
        return self.group.is_full()

    def __repr__(self) -> str:
        gens = ",".join(str(list(g)) for g in self.generators)
        return f"AffineSemigroup([{gens}], dim={self.ambient_dim})"

    @cached_property
    def _coordinates(self) -> list[IntVec]:
        """The generators' coordinates in G(S), which they span."""
        return [self.group.coordinates(g) for g in self.generators]

    @cached_property
    def _cone(self) -> ConePass:
        """The one cone pass over ``_coordinates``; ``ConePass`` charges the
        size limits on its distinct rays before the work."""
        return ConePass(self._coordinates, self.rank)

    def _pointed_cone(self, need: str) -> ConePass:
        """The cone pass, or a refusal of ``need`` certified by v, -v in the cone."""
        cone = self._cone
        if cone.line is not None:
            raise PreconditionError(f"{need} needs a pointed cone: cone contains a line",
                                    certificate=self.group.from_coordinates(cone.line))
        return cone

    def is_pointed(self) -> bool:
        return self.is_trivial() or self.positive or self._cone.line is None

    # -- membership --------------------------------------------------------

    @cached_property
    def _heights(self) -> tuple[Sequence[IntVec], Sequence[IntVec]]:
        """Linear forms on G(S), nonnegative on S and injective on G(S), and
        the generators' values under them.

        A positive S takes its ambient coordinates, the columns of the
        Hermite basis of G(S), so it needs no cone pass; any other S takes
        the inner normals of ``_cone``, which span the dual of G(S) exactly
        when the cone is pointed.  A cone with a line is refused.
        """
        if self.positive:
            return linalg.transpose(self.group.basis), self.generators
        normals = self._pointed_cone("membership").normals
        return normals, [tuple(vdot(n, k) for n in normals) for k in self._coordinates]

    @cached_property
    def _facet_normals(self) -> Sequence[IntVec]:
        """The inner normals of ``_cone``, or none when the pass is refused for
        size; the search then decides alone."""
        try:
            return self._cone.normals
        except SizeLimitError:
            return ()

    def membership(self, x: Sequence[int]) -> Membership:
        """Decide x in S with a generator-multiset witness; a refutation is a proof.

        x is refuted when it has no coordinates k in G(S), or when <n, k> < 0
        for an inner facet normal n of the cone, which every member meets with
        <n, k> >= 0; otherwise its heights are searched.  A cone with a line
        is refused, before these tests, as ``normality()`` refuses it.
        """
        x = as_vec(x)
        if len(x) != self.ambient_dim:
            raise DimensionError(f"expected dimension {self.ambient_dim}, got {len(x)}")
        if is_zero(x):
            return Membership(True, ())
        if self.is_trivial():
            return Membership(False, None)
        cached = self._member_cache.get(x)
        if cached is not None:
            return cached
        forms, images = self._heights
        coords = self.group.coordinates(x)
        if coords is None or any(vdot(n, coords) < 0 for n in self._facet_normals):
            result = Membership(False, None)
        else:
            result = self._search(tuple(sum(map(mul, f, coords)) for f in forms), images)
        self._member_cache[x] = result
        return result

    @staticmethod
    def _search(target, gens):
        """Exhaustive subtraction search over generator multisets, on heights.

        A state (v, max_idx) may still subtract gens[0..max_idx], and only
        into a state with no negative entry.  It terminates: every generator
        is nonzero with no negative entry, so the coordinate sum is at least
        1 on it, falls at each step and is nonnegative on every state that is
        admitted.  The last level, max_idx == 0, is decided in closed form:
        only gens[0] is left, so v is reached iff v = m * gens[0] for an
        integer m >= 1, and the witness is the path plus m zeros.  That is
        what subtracting gens[0] one summand at a time decides: every state
        (m - j) * gens[0] on the way has no negative entry, and a
        non-multiple never reaches zero.  An m beyond ``MAX_WITNESS_SUMMANDS``
        is refused before the witness is built.  ``failed`` holds the failed
        states.  The heights are injective on G(S), so this search decides
        x in S with the same states, in the same order, as a search in any
        coordinates of G(S).
        """
        failed: set = set()
        g0 = gens[0]
        lead = next(i for i, c in enumerate(g0) if c != 0)

        def rec(v, max_idx, path):
            if not any(v):
                return tuple(sorted(path))
            if max_idx == 0:
                m, r = divmod(v[lead], g0[lead])
                if r or m < 1 or any(a != m * b for a, b in zip(v, g0)):
                    return None
                _charge_witness(m)
                return tuple(sorted(path + [0] * m))
            key = (v, max_idx)
            if key in failed:
                return None
            for i in range(max_idx + 1):
                nxt = tuple(map(sub, v, gens[i]))
                if min(nxt) >= 0:
                    got = rec(nxt, i, path + [i])
                    if got is not None:
                        return got
            failed.add(key)
            return None

        try:
            witness = rec(tuple(target), len(gens) - 1, [])
        finally:
            rec = None  # rec refers to itself; break that cycle so `failed` is freed now
        return Membership(witness is not None, witness)

    def contains(self, x: Sequence[int]) -> bool:
        return self.membership(x).member

    def witness_vectors(self, m: Membership) -> tuple[IntVec, ...]:
        """The generator multiset of a positive membership decision."""
        if not m.member:
            raise ValueError("no witness on a negative decision")
        return tuple(self.generators[i] for i in m.witness)

    # -- saturation ---------------------------------------------------------

    def normality(self) -> "NormalityCertificate":
        """Exact normality decision with certificate.

        S is normal iff every Hilbert-basis element of (cone ∩ group) belongs
        to S.  On failure the certificate carries g in the group with g not in
        S but p*g in S.  A cone with a line is refused with a certificate v in
        Z^(n+1), v and -v in the cone.  A ``SizeLimitError``, of the cone pass
        or of a least p beyond ``MAX_NORMALITY_MULTIPLE``, passes through and
        is kept, so a repeated call refuses at once.
        """
        if self._normality_refusal is not None:
            raise self._normality_refusal
        if self._normality_cache is None:
            try:
                self._normality_cache = self._normality()
            except SizeLimitError as exc:
                # a size refusal is final for this semigroup: keep it
                self._normality_refusal = exc
                raise
        return self._normality_cache

    def _normality(self) -> "NormalityCertificate":
        if self.is_trivial() or self.rank == 0:
            return NormalityCertificate(True, (), None, None)
        cone = self._pointed_cone("normality")
        hb = tuple(map(self.group.from_coordinates, sorted(cone.hilbert_basis())))
        for g in hb:
            if not self.contains(g):
                p = 2
                while not self.contains(tuple(p * c for c in g)):
                    p += 1
                    if p > MAX_NORMALITY_MULTIPLE:
                        raise SizeLimitError(
                            f"no multiple p * {list(g)} with p <= {MAX_NORMALITY_MULTIPLE} "
                            f"lies in S; the least p exceeds the supported limit of "
                            f"{MAX_NORMALITY_MULTIPLE}")
                return NormalityCertificate(False, hb, g, p)
        return NormalityCertificate(True, hb, None, None)

    def require_normal(self) -> "NormalityCertificate":
        cert = self.normality()
        if not cert.normal:
            raise NotNormalError(
                f"semigroup is not normal: {list(cert.witness_g)} is in the group, "
                f"not in S, but {cert.witness_p} times it is",
                cert.witness_g, cert.witness_p)
        return cert

    def facets(self) -> list[Facet]:
        """Facets of the cone of S in ambient coordinates (S must be full)."""
        if not self.is_full():
            raise PreconditionError(
                "facets in ambient coordinates need a full semigroup", certificate=self.rank)
        # the Hermite basis of G(S) = Z^d is the identity: the pass is ambient
        return _incident_facets(self._cone.normals, self.generators)


@dataclass(frozen=True)
class NormalityCertificate:
    normal: bool
    saturation_hilbert_basis: tuple[IntVec, ...]
    witness_g: IntVec | None
    witness_p: int | None


@dataclass(frozen=True)
class FacetSemigroup:
    """S_tau = {x in Z^(n+1) : <normal, x> >= 0} with its Z^n + N structure.

    ``unit_basis`` is a lattice basis of the hyperplane subgroup (the units),
    ``transversal`` pairs to exactly 1 with the normal, and together they give
    the isomorphism onto Z^n + N.  ``positive_generators`` are the generators
    of S off the facet.  ``used_auxiliary_basis`` would flag a unit basis
    beyond the lattice of the facet-incident generators; ``facet_subsemigroup``
    proves that none is needed, so it is false.
    """

    facet: Facet
    ambient_dim: int
    unit_basis: tuple[IntVec, ...]
    transversal: IntVec
    positive_generators: tuple[IntVec, ...]
    used_auxiliary_basis: bool

    @property
    def inner_normal(self) -> IntVec:
        return self.facet.inner_normal

    def contains(self, x: Sequence[int]) -> bool:
        if len(x) != self.ambient_dim:
            raise DimensionError(f"expected dimension {self.ambient_dim}, got {len(x)}")
        return vdot(self.inner_normal, x) >= 0

    def iso_coordinates(self, x: Sequence[int]) -> tuple[IntVec, int]:
        """Image of a member under the isomorphism S_tau -> Z^n + N."""
        h = vdot(self.inner_normal, x)
        if h < 0:
            raise PreconditionError(f"{list(x)} is not in the facet semigroup")
        flat = vsub(as_vec(x), tuple(h * c for c in self.transversal))
        coords = lattice_of(self.unit_basis, self.ambient_dim).coordinates(flat)
        if coords is None:
            raise VerificationError("unit part landed outside the unit lattice")
        return coords, h

    def from_iso_coordinates(self, coords: Sequence[int], h: int) -> IntVec:
        if h < 0:
            raise PreconditionError("last coordinate must be nonnegative")
        x = tuple(h * c for c in self.transversal)
        for a, u in zip(coords, self.unit_basis):
            x = vadd(x, tuple(a * c for c in u))
        return x

    @property
    def iso_generators(self) -> tuple[IntVec, ...]:
        """Images of the canonical generators of Z^n + N (units then transversal)."""
        return self.unit_basis + (self.transversal,)


def facet_subsemigroup(semigroup: AffineSemigroup, facet: Facet) -> FacetSemigroup:
    """Build S_tau for a facet of a normal, full semigroup.

    The facet's inner normal n must be one of the cone pass's normals, which
    are in ambient coordinates since G(S) = Z^(n+1).  The unit basis is the
    Hermite basis of the kernel lattice of n, and the transversal pairs to 1
    with n, which it can: a pass normal is primitive.  The presentation
    Z.units + N.positive_generators equals the half-space {<n, x> >= 0}
    exactly, because some generator g has height 1, so x - <n, x> * g is a
    unit for every x in the half-space.  Such a g exists: for y the sum of
    the generators on the facet, which lies in its relative interior, and the
    transversal t, t + k * y lies in the cone for k large, so in S, which is
    normal; its height is 1, a sum of generator heights >= 0.
    ``used_auxiliary_basis`` is always false: the incident generators
    generate S ∩ F, since heights >= 0 that sum to 0 are all 0, and
    S ∩ F = C ∩ F ∩ Z^(n+1) as S is normal and full.  Its group is the whole
    kernel lattice of n: for u in it, u + k * y lies in F for k large, as y
    is in the relative interior of F, so u = (u + k * y) - k * y.
    """
    semigroup.require_normal()
    if not semigroup.is_full():
        raise PreconditionError("facet semigroups need a full semigroup")
    n_vec = facet.inner_normal
    if n_vec not in semigroup._cone.normals:
        raise PreconditionError(f"{list(n_vec)} is not the inner normal of a facet of S")
    d = semigroup.ambient_dim
    positive = tuple(g for g in semigroup.generators if vdot(n_vec, g) > 0)
    unit_basis = lattice_of(linalg.kernel_basis([n_vec], d), d).basis
    transversal = tuple(linalg.solve_integer([n_vec], [1]))
    return FacetSemigroup(facet, d, unit_basis, transversal, positive, False)


@dataclass(frozen=True)
class Decomposition:
    """S as the intersection of its facet semigroups."""

    facet_semigroups: tuple[FacetSemigroup, ...]
    verified_to_degree: int


def decompose(semigroup: AffineSemigroup, bound: int = 6) -> Decomposition:
    """Intersection decomposition S = /\\ S_tau for a normal full S.

    Exact: a normal full S is C ∩ Z^(n+1), and the cone C, pointed since
    ``normality()`` refuses a line, is the intersection of the half-spaces of
    its complete facet list, so no point needs checking.
    ``verified_to_degree`` records the caller's ``bound``.  Refuses
    non-normal input with the normality witness.
    """
    semigroup.require_normal()
    if not semigroup.is_full():
        raise PreconditionError("decomposition needs a full semigroup")
    parts = tuple(facet_subsemigroup(semigroup, f) for f in semigroup.facets())
    return Decomposition(parts, bound)


@dataclass(frozen=True)
class RegularityReport:
    """Exact ring-theoretic profile of k^alpha[S]; twist-invariant claims.

    Tri-state fields use "yes" / "no" / "inapplicable"; the classical
    criteria only apply to normal semigroups, and the AS-versions transfer
    verbatim along any cocycle twist.
    """

    normal: bool
    normality_witness: tuple[IntVec, int] | None
    as_cohen_macaulay: str
    as_gorenstein: str
    gorenstein_witness: IntVec | None
    as_regular: bool
    maximal_order: bool
    has_balanced_dualizing_complex: bool
    rank: int


def regularity_report(semigroup: AffineSemigroup) -> RegularityReport:
    """Decide normal / CM / Gorenstein / regular / maximal order, all exact.

    Gorenstein: an integer point c with <n_tau, c> == 1 for every facet inner
    normal (solved exactly over Z).  Regular: the Hilbert basis is a lattice
    basis.  Maximal order <=> normal.  A balanced dualizing complex always
    exists.  Non-normal input gets "inapplicable" for the classical criteria.
    Every decision reads the cone in coordinates of G(S), so any pointed S
    is answered; ``normality()`` refuses a cone with a line.

    A regular S is Gorenstein, so no check follows the decision: its Hilbert
    basis h_1..h_r is a basis of G(S) and spans the cone, which is then
    simplicial with the dual basis n_1..n_r as its primitive inner normals,
    and c = h_1 + ... + h_r has <n_i, c> = 1 for every i.
    """
    cert = semigroup.normality()
    if not cert.normal:
        return RegularityReport(False, (cert.witness_g, cert.witness_p), "inapplicable",
                                "inapplicable", None, False, False, True, semigroup.rank)
    group, r = semigroup.group, semigroup.rank
    if r == 0:
        return RegularityReport(True, None, "yes", "yes", zero_vec(semigroup.ambient_dim),
                                True, True, True, 0)
    normals = semigroup._cone.normals
    c = linalg.solve_integer(normals, [1] * len(normals))
    gorenstein = "yes" if c is not None else "no"
    gorenstein_witness = group.from_coordinates(c) if c is not None else None
    hb_emb = [group.coordinates(h) for h in cert.saturation_hilbert_basis]
    regular = len(hb_emb) == r and abs(linalg.det_int(hb_emb)) == 1
    return RegularityReport(True, None, "yes", gorenstein, gorenstein_witness,
                            regular, True, True, r)


def hilbert_function(semigroup: AffineSemigroup, degree: int) -> list[int]:
    """Counts of semigroup elements of coordinate sum 0..degree (S positive).

    The members are enumerated, and C(degree + d, d) bounds their number in
    dimension d; beyond ``MAX_DEGREE_POINTS`` the degree is refused first.
    """
    if not semigroup.positive and not semigroup.is_trivial():
        raise PreconditionError("Hilbert function needs a positive semigroup")
    dim = semigroup.ambient_dim
    size = comb(max(degree, 0) + dim, dim)
    if size > MAX_DEGREE_POINTS:
        raise SizeLimitError(
            f"degree {degree} in dimension {dim} bounds the enumeration by "
            f"C({degree} + {dim}, {dim}) = {size} points, beyond the supported "
            f"limit of {MAX_DEGREE_POINTS}")
    layers = elements_by_degree(semigroup, degree)
    return [len(layers.get(k, ())) for k in range(degree + 1)]


def elements_by_degree(semigroup: AffineSemigroup, degree: int) -> dict[int, set[IntVec]]:
    """All members of a positive semigroup grouped by coordinate sum <= degree."""
    if not semigroup.positive and not semigroup.is_trivial():
        raise PreconditionError("degree enumeration needs a positive semigroup")
    layers: dict[int, set[IntVec]] = {0: {zero_vec(semigroup.ambient_dim)}}
    gen_degrees = [sum(g) for g in semigroup.generators]
    for k in range(1, degree + 1):
        layer: set[IntVec] = set()
        for g, dg in zip(semigroup.generators, gen_degrees):
            if dg <= k:
                for m in layers.get(k - dg, ()):
                    layer.add(vadd(m, g))
        if layer:
            layers[k] = layer
    return layers
