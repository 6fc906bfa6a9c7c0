"""Exact lattice and rational-cone geometry on Z^d.

Vectors are plain tuples of ints.  All decisions here are exact: sublattices
via Hermite normal form; facets and a placing triangulation from one
double-description pass over the rays (Fukuda & Prodon, "Double description
method revisited", 1996); Hilbert bases via integer-only enumeration of the
parallelepiped points of that triangulation's simplices plus reduction in
degree order (Bruns & Ichim, "Normaliz: algorithms for affine monoids and
rational cones", J. Algebra 324 (2010)).  Each answer is exact and complete,
not checked on a box.  ``ConePass`` owns that pass: it alone charges the
desk-scale limits, before the work starts, and tests for a line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, prod
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionError, PreconditionError, SizeLimitError
from . import linalg

IntVec = tuple[int, ...]

# Facet and simplex counts grow like n^(d/2) in the number n of rays (the
# upper bound theorem) and each simplex's parallelepiped holds |det| points,
# so cap the instance size rather than degrade silently.
MAX_CONE_GENERATORS = 20
MAX_CONE_DIM = 7
MAX_PARALLELEPIPED_POINTS = 200_000


def as_vec(entries: Iterable[int]) -> IntVec:
    v = tuple(entries)
    for x in v:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"vector entries must be ints, got {x!r}")
    return v


def vadd(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: IntVec) -> IntVec:
    return tuple(-x for x in a)


def vdot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def is_zero(a: IntVec) -> bool:
    return all(x == 0 for x in a)


def zero_vec(dim: int) -> IntVec:
    return (0,) * dim


def primitive(v: IntVec) -> IntVec:
    """Divide a nonzero vector by the gcd of its entries (direction kept)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in v)


def check_same_dim(vectors: Sequence[IntVec], dim: int | None = None) -> int:
    dims = {len(v) for v in vectors}
    if dim is not None:
        dims.add(dim)
    if len(dims) > 1:
        raise DimensionError(f"mixed ambient dimensions {sorted(dims)}")
    if not dims:
        raise DimensionError("ambient dimension cannot be inferred from no vectors")
    return dims.pop()


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^ambient_dim given by a Hermite-form basis.

    The basis is in row echelon form with positive pivots, as ``row_hnf``
    gives it; the constructor refuses any other.  So the pivot block is
    triangular, and coordinates follow by integer back-substitution.
    """

    ambient_dim: int
    rank: int
    basis: tuple[IntVec, ...]
    pivots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pivots = tuple(next((j for j, x in enumerate(b) if x), len(b)) for b in self.basis)
        if len(pivots) != self.rank or list(pivots) != sorted(set(pivots)) or any(
                len(b) != self.ambient_dim or p == len(b) or b[p] < 0
                for b, p in zip(self.basis, pivots)):
            raise ValueError(f"basis {self.basis} of rank {self.rank} is not in echelon "
                             "form with positive pivots")
        object.__setattr__(self, "pivots", pivots)

    @staticmethod
    def standard(dim: int) -> "Sublattice":
        basis = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        return Sublattice(dim, dim, basis)

    def coordinates(self, v: Sequence[int]) -> IntVec | None:
        """Integer coordinates of a member, or None if v is not in the lattice."""
        if len(v) != self.ambient_dim:
            raise DimensionError(f"expected dimension {self.ambient_dim}, got {len(v)}")
        rest = v
        coords = []
        for b, p in zip(self.basis, self.pivots):
            c, r = divmod(rest[p], b[p])
            if r:
                return None
            if c:
                rest = [x - c * y for x, y in zip(rest, b)]
            coords.append(c)
        return tuple(coords) if not any(rest) else None

    def ray_coordinates(self, v: Sequence[int]) -> IntVec | None:
        """Primitive coordinates of a nonzero v's direction, or None outside the span
        (exact: the pivot product P clears every denominator, so P * v is a member)."""
        scale = prod(b[p] for b, p in zip(self.basis, self.pivots))
        c = self.coordinates([scale * x for x in v])
        return None if c is None else primitive(c)

    def contains(self, v: Sequence[int]) -> bool:
        return self.coordinates(v) is not None

    def from_coordinates(self, c: Sequence[int]) -> IntVec:
        if len(c) != self.rank:
            raise DimensionError(f"expected {self.rank} coordinates, got {len(c)}")
        return tuple(sum(c[i] * self.basis[i][j] for i in range(self.rank))
                     for j in range(self.ambient_dim))

    def is_full(self) -> bool:
        return self.rank == self.ambient_dim and all(
            b[p] == 1 for b, p in zip(self.basis, self.pivots))

    def same_lattice(self, other: "Sublattice") -> bool:
        return (self.ambient_dim == other.ambient_dim and self.rank == other.rank
                and all(other.contains(b) for b in self.basis)
                and all(self.contains(b) for b in other.basis))


def lattice_of(vectors: Sequence[Sequence[int]], ambient_dim: int | None = None) -> Sublattice:
    """The subgroup of Z^d generated by the vectors, as a Sublattice.

    ``ambient_dim`` is required when ``vectors`` is empty.
    """
    vecs = [as_vec(v) for v in vectors]
    if not vecs and ambient_dim is None:
        raise DimensionError("ambient dimension required for an empty generating set")
    dim = check_same_dim(vecs, ambient_dim) if vecs else ambient_dim
    basis = tuple(linalg.row_hnf(vecs))  # zero vectors leave no row
    return Sublattice(dim, len(basis), basis)


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone spanned by integer generators."""

    generators: tuple[IntVec, ...]
    ambient_dim: int

    def __post_init__(self):
        check_same_dim(self.generators, self.ambient_dim)


@dataclass(frozen=True)
class Facet:
    """Codimension-1 face: primitive inner normal plus incident generators.

    The inner normal pairs >= 0 with every generator and == 0 exactly on the
    incident ones, which span a hyperplane of the cone's span.
    """

    inner_normal: IntVec
    incident: frozenset[int]


def _double_description(rays: Sequence[IntVec], d: int
                        ) -> tuple[list[tuple[IntVec, int]], list[tuple[int, ...]]]:
    """Facets and a placing triangulation of the full cone over distinct primitive rays.

    One incremental pass (Fukuda & Prodon, "Double description method
    revisited", 1996).  It starts from the simplicial cone over the first d
    independent rays, whose inner normals are the rows of the adjugate of
    the rays as columns, times the sign of the determinant.  Each later ray
    r keeps the facets with <n, r> >= 0 and, when r lies outside, replaces
    those with <n, r> < 0 by the primitive combinations
    <p, r> n_q - <q, r> n_p of the adjacent pairs with <p, r> > 0 > <q, r>.
    Facets p and q are adjacent iff no third facet's incidence set contains
    their common one.  Before that update, r is placed: it is joined to
    every (d-1)-face of a current simplex that lies on a facet with
    <n, r> < 0.  Incidence sets are bitmasks over the ray indices seen so
    far; per added ray they are also read the other way, as ``on[j]``, the
    bitmask over facet positions of the facets through ray j.  The AND of
    ``on[j]`` over a set of rays is exactly the set of facets whose
    incidence sets contain it (all facets for the empty set).  So a face is
    visible iff that AND over its rays meets the mask of the facets below r,
    and p and q are adjacent iff that AND over their common rays is {p, q}:
    it always holds p and q, and any third facet in it contains the common
    set.

    Returns the facets as (primitive inner normal, incidence bitmask) and
    the simplices as tuples of d ray indices.  The rays must span R^d; the
    cone may contain a line, in which case only the facets are meaningful.
    """
    start: list[int] = []
    for i, r in enumerate(rays):
        if len(start) < d and linalg.int_rank([rays[j] for j in start] + [r]) > len(start):
            start.append(i)
    adj, det = linalg.adjugate(linalg.transpose([rays[i] for i in start]))
    sgn = 1 if det > 0 else -1
    start_mask = sum(1 << i for i in start)
    facets = [(primitive(tuple(sgn * x for x in row)), start_mask & ~(1 << i))
              for row, i in zip(adj, start)]
    simplices = [tuple(start)]
    for k, r in enumerate(rays):
        if start_mask >> k & 1:
            continue
        bit = 1 << k
        heights = [vdot(n, r) for n, _ in facets]
        below = sum(1 << c for c, h in enumerate(heights) if h < 0)
        kept = [(n, z | bit if h == 0 else z) for (n, z), h in zip(facets, heights) if h >= 0]
        if not below:
            facets = kept
            continue
        on = [0] * len(rays)
        for c, (_, z) in enumerate(facets):
            while z:
                low = z & -z
                on[low.bit_length() - 1] |= 1 << c
                z ^= low
        for s in simplices[:]:
            for i in s:
                acc = below
                for j in s:
                    if j != i:
                        acc &= on[j]
                if acc:
                    simplices.append(tuple(j for j in s if j != i) + (k,))
        for a, ((p, zp), hp) in enumerate(zip(facets, heights)):
            if hp <= 0:
                continue
            for b, ((q, zq), hq) in enumerate(zip(facets, heights)):
                if hq >= 0:
                    continue
                common = zp & zq  # spans a ridge, so holds at least d - 2 rays
                if common.bit_count() < d - 2:
                    continue
                pair = 1 << a | 1 << b
                acc, rest = (1 << len(facets)) - 1, common
                while rest and acc != pair:
                    low = rest & -rest
                    acc &= on[low.bit_length() - 1]
                    rest ^= low
                if acc != pair:
                    continue
                kept.append((primitive(tuple(hp * y - hq * x for x, y in zip(p, q))),
                             common | bit))
        facets = kept
    return facets, simplices


def _parallelepiped_points(rays: Sequence[IntVec]) -> list[IntVec]:
    """All lattice points of {sum lam_i * ray_i : 0 <= lam_i < 1}, rays independent.

    Integer-only: with m the rays as columns, adj(m) @ m == det * I, so the
    point of t in Z^d is m @ ((sgn * adj @ t) mod |det|) // |det|.  The
    residues sgn * adj @ t mod |det| form the group generated by the columns
    of sgn * adj; it has exactly |det| elements, one per point.
    """
    d = len(rays)
    m = linalg.transpose(rays)
    adj, det = linalg.adjugate(m)
    size = abs(det)
    sgn = 1 if det > 0 else -1
    residues = [zero_vec(d)]
    for i in range(d):
        if len(residues) == size:
            break
        members = set(residues)
        step = tuple(sgn * adj[r][i] % size for r in range(d))
        shifted = residues
        while True:
            shifted = [tuple((a + b) % size for a, b in zip(u, step)) for u in shifted]
            if shifted[0] in members:  # a whole coset is new or none of it is
                break
            residues = residues + shifted
    return [tuple(sum(map(mul, row, u)) // size for row in m) for u in residues]


class ConePass:
    """The one double-description pass over a full-dimensional cone in Z^d.

    The rays are the distinct primitive forms of the ``vectors``, which must
    be nonzero, in order of first occurrence.  Their number is charged against
    ``MAX_CONE_GENERATORS`` and d against ``MAX_CONE_DIM`` before any work,
    and a rank below d is refused.  Then ``_double_description`` gives the
    ``facets`` as (primitive inner normal, incidence bitmask over the rays),
    sorted by normal, with ``normals`` in the same order, and the
    ``simplices`` of a placing triangulation.  ``line`` is computed on first
    read.
    """

    def __init__(self, vectors: Iterable[Sequence[int]], d: int):
        self.rays = list(dict.fromkeys(primitive(v) for v in vectors))
        if len(self.rays) > MAX_CONE_GENERATORS:
            raise SizeLimitError(f"{len(self.rays)} generators exceed the supported limit "
                                 f"of {MAX_CONE_GENERATORS}")
        if d > MAX_CONE_DIM:
            raise SizeLimitError(f"dimension {d} exceeds the supported limit of {MAX_CONE_DIM}")
        rank = linalg.int_rank(self.rays)
        if rank != d:
            raise PreconditionError(f"cone is not full-dimensional (rank {rank} < {d}); "
                                    "restrict to the span via lattice_of first")
        self.d = d
        facets, self.simplices = _double_description(self.rays, d)
        self.facets = sorted(facets)
        self.normals = [n for n, _ in self.facets]

    @cached_property
    def line(self) -> IntVec | None:
        """A nonzero v with v and -v in the cone, or None when the cone is pointed.

        The cone is pointed iff its inner normals span R^d.  Otherwise a
        kernel vector of the normals pairs to 0 with each of them, so it and
        its negative satisfy every facet inequality.
        """
        if linalg.int_rank(self.normals) == self.d:
            return None
        return linalg.kernel_basis(self.normals, self.d)[0]

    def hilbert_basis(self) -> list[IntVec]:
        """The Hilbert basis of a pointed cone ∩ Z^d, in the rays' coordinates.

        Candidates are the rays plus the lattice points inside the
        fundamental parallelepiped of each simplex: an irreducible element
        lies in some simplex, and there it is a ray or a parallelepiped
        point.  They are reduced in the order of the degree <w, x>, w the sum
        of the inner facet normals: x is reducible iff its facet heights
        dominate those of a basis element already found (Bruns & Ichim
        2010).  The sum of |det| over the simplices, which is their number of
        parallelepiped points, is charged against ``MAX_PARALLELEPIPED_POINTS``
        before any point is enumerated, and a refusal names the limit and the
        sum that exceeded it.
        """
        rays, normals, d = self.rays, self.normals, self.d
        total = 0
        dets = []
        for simplex in self.simplices:
            det = abs(linalg.det_int([rays[i] for i in simplex]))
            total += det
            if total > MAX_PARALLELEPIPED_POINTS:
                raise SizeLimitError(
                    f"parallelepiped enumeration exceeds {MAX_PARALLELEPIPED_POINTS} points; "
                    "instance is beyond the supported size (the sum of |det| over the "
                    f"simplices of the triangulation reached {total})")
            dets.append(det)
        candidates = set(rays)
        for simplex, det in zip(self.simplices, dets):
            if det > 1:
                candidates.update(_parallelepiped_points([rays[i] for i in simplex]))
        candidates.discard(zero_vec(d))

        # Pack the facet heights of x into one integer, one field per facet:
        # heights(x) = sum_k x_k * column_k is linear, so the packed value is
        # exact whenever every height fits its field.  A candidate's heights are
        # below d times the largest ray height; one guard bit per field on top
        # lets a single subtraction compare all heights at once.
        width = (d * max(vdot(n, r) for n in normals for r in rays)).bit_length() + 1
        columns = [sum(n[k] << (width * f) for f, n in enumerate(normals)) for k in range(d)]
        guard = sum(1 << (width * f + width - 1) for f in range(len(normals)))
        weight = tuple(sum(n[k] for n in normals) for k in range(d))
        basis: list[IntVec] = []
        packed_basis: list[int] = []
        for x in sorted(candidates, key=lambda x: vdot(weight, x)):
            top = sum(map(mul, x, columns)) | guard
            if any((top - hb) & guard == guard for hb in packed_basis):
                continue
            basis.append(x)
            packed_basis.append(top ^ guard)
        return basis


def cone_facets(cone: Cone) -> list[Facet]:
    """All facets of a full-dimensional cone, sorted by inner normal.

    The normals come from one ``ConePass`` over the nonzero generators; each
    facet's incident set is then read off the final normal against every
    nonzero generator.  Exact and complete; the cone may contain a line.
    Each call runs its own pass; ``AffineSemigroup.facets`` reads the pass
    its semigroup keeps.
    """
    gens = [g for g in cone.generators if not is_zero(g)]
    return _incident_facets(ConePass(gens, cone.ambient_dim).normals, gens)


def _incident_facets(normals: Sequence[IntVec], gens: Sequence[IntVec]) -> list[Facet]:
    """One Facet per inner normal, with the indices of the generators on it."""
    return [Facet(n, frozenset(i for i, g in enumerate(gens) if vdot(n, g) == 0))
            for n in normals]


def hilbert_basis(cone: Cone, lattice: Sublattice) -> list[IntVec]:
    """Unique minimal generating set of the semigroup cone ∩ lattice, sorted.

    The cone must be pointed and full-dimensional within the lattice's span.
    The nonzero generators, in coordinates of the lattice, go through one
    ``ConePass``, which charges the size limits and the parallelepiped budget
    (``ConePass.hilbert_basis``).  Exact and complete.  Each call runs its
    own pass; ``normality`` reads the pass its semigroup keeps, over the same
    rays in the same order.
    """
    coords: list[IntVec] = []
    for g in cone.generators:
        if is_zero(g):
            continue
        ray = lattice.ray_coordinates(g)
        if ray is None:
            raise PreconditionError(
                f"cone generator {g} lies outside the lattice span", certificate=g)
        coords.append(ray)
    if not coords:
        return []
    cone_pass = ConePass(coords, lattice.rank)
    if cone_pass.line is not None:
        raise PreconditionError(
            "cone contains a line", certificate=lattice.from_coordinates(cone_pass.line))
    return sorted(map(lattice.from_coordinates, cone_pass.hilbert_basis()))
