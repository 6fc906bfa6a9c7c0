"""Independent oracles the test suite checks the library against.

Everything here is deliberately naive: brute-force enumeration, sympy for
exact linear algebra, and textbook definitions applied literally.  The
library must agree with these on every fixture.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import sympy
from sympy.matrices.normalforms import hermite_normal_form

from qtoric import (AffineSemigroup, Cone, FacetSemigroup, Membership, ModelParseError,
                    NormalityCertificate, PreconditionError, QtoricError, RegularityReport,
                    Scalar, SizeLimitError, StandardWord, Sublattice, TorusEmbedding,
                    TwistedAlgebra, TwistedElement, VerificationError, are_cohomologous,
                    cone_facets, elements_by_degree, hilbert_basis, linalg,
                    regularity_report)
from qtoric import model as model_module
from qtoric.lattice_algebras import algebra_report
from qtoric.lattice_geometry import (Facet, is_zero, lattice_of, primitive, vadd, vdot, vneg,
                                     vsub)


def check_cone_limits(n_gens, dim):
    """The cone limits as every caller charged them before ``ConePass`` did."""
    if n_gens > 20:
        raise SizeLimitError(f"{n_gens} generators exceed the supported limit of 20")
    if dim > 7:
        raise SizeLimitError(f"dimension {dim} exceeds the supported limit of 7")


def sympy_rank(rows) -> int:
    if not rows:
        return 0
    return sympy.Matrix([list(r) for r in rows]).rank()


def sympy_det(rows) -> int:
    return int(sympy.Matrix([list(r) for r in rows]).det())


def sympy_row_lattice_basis(rows):
    """An independent generating set of the row lattice, via sympy's HNF."""
    mat = sympy.Matrix([list(r) for r in rows])
    h = hermite_normal_form(mat.T)
    return [tuple(int(x) for x in h.col(j)) for j in range(h.cols)]


def in_column_lattice(basis_cols, v) -> bool:
    """Whether v is an integer combination of the (independent) columns."""
    if not basis_cols:
        return all(x == 0 for x in v)
    y = sympy.Matrix([list(c) for c in basis_cols]).T
    target = sympy.Matrix(list(v))
    try:
        sol, params = y.gauss_jordan_solve(target)
    except ValueError:
        return False
    if params.rows:
        raise AssertionError("oracle basis is not independent")
    return all(x.is_Integer for x in sol)


def same_lattice(rows_a, rows_b) -> bool:
    """Whether two independent row sets generate the same integer lattice."""
    if len(rows_a) != len(rows_b):
        return False
    return (all(in_column_lattice(rows_b, v) for v in rows_a)
            and all(in_column_lattice(rows_a, v) for v in rows_b))


def mat_mul(a, b):
    """Product of two row-major matrices."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def row_hnf_with_transform(rows):
    """(hnf_rows, u, npivots) with u unimodular and u @ rows == hnf: the
    library's Hermite core run with its transform tracked.
    """
    mat, u, pr = linalg._hnf_core([list(r) for r in rows], track=True)
    return [tuple(r) for r in mat], [tuple(r) for r in u], pr


def _primitive(v):
    # orientation kept: the scan covers both signs of every direction
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    return tuple(x // g for x in v)


def brute_facets(generators, dim, box=4):
    """All facets of a full-dimensional cone by scanning small primitive normals.

    Returns a set of (normal, frozenset(incident indices)).  Only valid when
    every true facet normal has entries in [-box, box].
    """
    gens = [tuple(g) for g in generators]
    found = {}
    for cand in itertools.product(range(-box, box + 1), repeat=dim):
        n = _primitive(cand)
        if n is None:
            continue
        pairings = [sum(a * b for a, b in zip(n, g)) for g in gens]
        if any(p < 0 for p in pairings):
            continue
        incident = [i for i, p in enumerate(pairings) if p == 0]
        if sympy_rank([gens[i] for i in incident]) != dim - 1:
            continue
        found[n] = frozenset(incident)
    return {(n, inc) for n, inc in found.items()}


def brute_cone_points(generators, dim, degree, box=4):
    """Lattice points of the cone (coordinate sum <= degree) in N^dim.

    Uses the facet half-space description, so the cone must be
    full-dimensional with generators in N^dim.
    """
    normals = [n for n, _ in brute_facets(generators, dim, box)]
    points = []
    for total in range(degree + 1):
        for x in _compositions(total, dim):
            if all(sum(a * b for a, b in zip(n, x)) >= 0 for n in normals):
                points.append(x)
    return points


def brute_hilbert_basis(generators, dim, degree, box=4):
    """Irreducible cone points of coordinate sum <= degree (cone in N^dim)."""
    pts = set(brute_cone_points(generators, dim, degree, box))
    irred = []
    for x in sorted(pts):
        if all(c == 0 for c in x):
            continue
        reducible = False
        for y in pts:
            if any(c != 0 for c in y) and y != x:
                z = tuple(a - b for a, b in zip(x, y))
                if all(c >= 0 for c in z) and any(c != 0 for c in z) and z in pts:
                    reducible = True
                    break
        if reducible:
            continue
        irred.append(x)
    return irred


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_membership(generators, x) -> bool:
    """Reachability in N^dim by componentwise-bounded breadth-first search."""
    gens = [tuple(g) for g in generators]
    if any(any(c < 0 for c in g) for g in gens):
        raise ValueError("oracle only covers positive semigroups")
    x = tuple(x)
    if any(c < 0 for c in x):
        return False
    zero = tuple(0 for _ in x)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple(a + b for a, b in zip(v, g))
                if all(a <= b for a, b in zip(w, x)) and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return x in seen


def walk_search(target, gens):
    """``AffineSemigroup._search`` as it was before its last level was closed.

    The same recursive subtraction search on heights with the same generator
    order and ``failed`` memo, except that the state max_idx == 0 walks
    v - j * gens[0] one summand at a time.  Install it with ``staticmethod``
    in place of ``_search`` to get its decisions.
    """
    failed: set = set()

    def rec(v, max_idx, path):
        if all(c == 0 for c in v):
            return tuple(sorted(path))
        key = (v, max_idx)
        if key in failed:
            return None
        for i in range(max_idx + 1):
            nxt = tuple(a - b for a, b in zip(v, gens[i]))
            if all(c >= 0 for c in nxt):
                got = rec(nxt, i, path + [i])
                if got is not None:
                    return got
        failed.add(key)
        return None

    witness = rec(tuple(target), len(gens) - 1, [])
    return Membership(witness is not None, witness)


def reference_search(target, gens, weight, inside, depth_bound):
    """``AffineSemigroup._search`` as it was with its bounded mode.

    The recursive subtraction search with the weight test, the depth bound
    and a ``failed`` memo that maps a failed state to the most summands it
    had left (0 without a bound); the last level is decided in closed form.
    Returns (member, witness, complete): a negative answer is complete when
    no branch was cut by the bound.
    """
    failed: dict = {}
    limited = False
    g0 = gens[0]
    lead = next(i for i, c in enumerate(g0) if c != 0)

    def rec(v, max_idx, depth, path):
        nonlocal limited
        if all(c == 0 for c in v):
            return tuple(sorted(path))
        if depth_bound is not None and depth >= depth_bound:
            limited = True
            return None
        if max_idx == 0:
            m, r = divmod(v[lead], g0[lead])
            if r or m < 1 or any(a != m * b for a, b in zip(v, g0)) or (
                    depth_bound is not None and m > depth_bound - depth):
                limited = True
                return None
            return tuple(sorted(path + [0] * m))
        key = (v, max_idx)
        left = depth_bound - depth if depth_bound is not None else 0
        if failed.get(key, -1) >= left:
            return None
        for i in range(max_idx + 1):
            nxt = vsub(v, gens[i])
            if weight(nxt) < 0 or not inside(nxt):
                continue
            got = rec(nxt, i, depth + 1, path + [i])
            if got is not None:
                return got
        failed[key] = left
        return None

    witness = rec(tuple(target), len(gens) - 1, 0, [])
    if witness is not None:
        return True, witness, True
    return False, None, not limited if depth_bound is not None else True


def reference_membership(s, x):
    """The reference search's complete decision on a positive or pointed S:
    ambient coordinates with the coordinate sum as weight on a positive S,
    else coordinates of G(S) with the sum of the inner normals."""
    if is_zero(x):
        return Membership(True, ())
    if s.positive:
        target, gens, weight = x, s.generators, sum
        inside = lambda v: all(c >= 0 for c in v)
    else:
        gens, normals, w = embedded_pointed_data(s)
        target, weight = s.group.coordinates(x), lambda v: vdot(w, v)
        inside = lambda v: all(vdot(n, v) >= 0 for n in normals)
        if target is None:
            return Membership(False, None)
    member, witness, complete = reference_search(target, gens, weight, inside, None)
    assert complete
    return Membership(member, witness)


def brute_members_by_degree(generators, degree):
    """All members with coordinate sum <= degree, positive semigroups only."""
    gens = [tuple(g) for g in generators]
    dim = len(gens[0])
    zero = tuple(0 for _ in range(dim))
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple(a + b for a, b in zip(v, g))
                if sum(w) <= degree and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def brute_normality_witness(generators, dim, coord_bound=4, power_bound=4):
    """Search g with coords in [-B, B], g not in S, p*g in S for some p <= P.

    Returns a witness (g, p) or None.  Restricted to positive semigroups;
    group membership is checked with sympy.
    """
    basis = sympy_row_lattice_basis(generators)
    max_mult = power_bound * coord_bound * dim
    for cand in itertools.product(range(-coord_bound, coord_bound + 1), repeat=dim):
        if all(c == 0 for c in cand):
            continue
        if not in_column_lattice(basis, cand):
            continue
        if any(c < 0 for c in cand):
            continue  # positive S cannot contain it nor its positive multiples... p*g >= 0 required
        if brute_membership(generators, cand):
            continue
        for p in range(2, power_bound + 1):
            pg = tuple(p * c for c in cand)
            if sum(pg) <= max_mult and brute_membership(generators, pg):
                return cand, p
    return None


def interior_points(generators, dim, degree, box=4):
    """Cone points strictly positive on every facet normal, sum <= degree."""
    normals = [n for n, _ in brute_facets(generators, dim, box)]
    out = []
    for total in range(degree + 1):
        for x in _compositions(total, dim):
            if all(sum(a * b for a, b in zip(n, x)) > 0 for n in normals):
                out.append(x)
    return out


def gorenstein_candidate_works(generators, dim, c, degree, box=4):
    """Bounded check of int(cone) ∩ Z^dim == c + S inside the sum <= degree window."""
    inter = set(interior_points(generators, dim, degree, box))
    members = brute_members_by_degree(generators, degree)
    for total in range(degree + 1):
        for x in _compositions(total, dim):
            diff = tuple(a - b for a, b in zip(x, c))
            lhs = x in inter
            rhs = all(v >= 0 for v in diff) and diff in members
            if lhs != rhs:
                return False
    return True


def _fraction_inverse(rows):
    """Inverse of a nonsingular square matrix over Q by Gauss-Jordan."""
    n = len(rows)
    aug = [[Fraction(v) for v in r] + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class GramSublattice:
    """Lattice coordinates by the rational route the library used to take.

    For basis rows B, ``transform`` = (B B^T)^-1 B over Q sends each basis
    row to a unit vector, so ``transform @ v`` gives the coordinates of every
    v in the rational span; multiplying back tells whether v is in the span.
    """

    def __init__(self, basis, ambient_dim):
        self.basis, self.ambient_dim = tuple(basis), ambient_dim
        gram_inv = _fraction_inverse([[vdot(a, b) for b in basis] for a in basis])
        self.transform = [[sum(row[k] * basis[k][j] for k in range(len(basis)))
                           for j in range(ambient_dim)] for row in gram_inv]

    def rational_coordinates(self, v):
        c = tuple(sum(t * x for t, x in zip(row, v)) for row in self.transform)
        back = [sum(ci * b[j] for ci, b in zip(c, self.basis)) for j in range(self.ambient_dim)]
        return c if back == list(v) else None

    def coordinates(self, v):
        c = self.rational_coordinates(v)
        if c is None or any(x.denominator != 1 for x in c):
            return None
        return tuple(int(x) for x in c)

    def ray_coordinates(self, v):
        """The rational coordinates with denominators cleared, made primitive."""
        c = self.rational_coordinates(v)
        if c is None:
            return None
        denom = 1
        for x in c:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        return primitive(tuple(int(x * denom) for x in c))


def exhaustive_facet_normals(generators, dim):
    """Primitive inner normals of a pointed full-dimensional cone, by sympy.

    Every (dim-1)-subset of generators of rank dim-1 gives a hyperplane; the
    supporting ones are the facets.
    """
    gens = [tuple(g) for g in generators if any(g)]
    if dim == 1:
        return {(1 if gens[0][0] > 0 else -1,)}
    normals = set()
    for subset in itertools.combinations(gens, dim - 1):
        if sympy_rank(subset) != dim - 1:
            continue
        v = sympy.Matrix([list(r) for r in subset]).nullspace()[0]
        scale = sympy.ilcm(*[x.q for x in v])
        n = _primitive(tuple(int(x * scale) for x in v))
        pairings = [sum(a * b for a, b in zip(n, g)) for g in gens]
        if all(p >= 0 for p in pairings):
            normals.add(n)
        elif all(p <= 0 for p in pairings):
            normals.add(tuple(-x for x in n))
    return normals


def subset_scan_facets(cone):
    """All facets of a full-dimensional cone, sorted by inner normal.

    The subset scan: every (d-1)-subset of distinct primitive rays spanning a
    hyperplane is tested for being supporting, with the same limits, errors
    and incident sets as ``cone_facets``.
    """
    gens = [g for g in cone.generators if not is_zero(g)]
    d = cone.ambient_dim
    check_cone_limits(len(gens), d)
    if linalg.int_rank(gens) != d:
        raise PreconditionError(
            f"cone is not full-dimensional (rank {linalg.int_rank(gens)} < {d}); "
            "restrict to the span via lattice_of first")
    found = {}
    distinct = sorted({primitive(g) for g in gens})
    for subset in itertools.combinations(distinct, d - 1):
        if linalg.int_rank(subset) != d - 1:
            continue
        normal = linalg.kernel_basis(subset, d)[0]
        pairings = [vdot(normal, g) for g in gens]
        if all(p >= 0 for p in pairings):
            pass
        elif all(p <= 0 for p in pairings):
            normal = vneg(normal)
            pairings = [-p for p in pairings]
        else:
            continue  # not a supporting hyperplane
        incident = frozenset(i for i, p in enumerate(pairings) if p == 0)
        found[normal] = incident
    return [Facet(n, found[n]) for n in sorted(found)]


def rescan_double_description(rays, d):
    """``lattice_geometry._double_description`` with incidence scans per test.

    The pass as it was before the facet-position bitmasks: a simplex face is
    visible iff its ray mask lies inside the incidence mask of some facet
    below the new ray, and facets p and q are adjacent iff no third facet's
    incidence mask contains their common one, each found by scanning the
    facet list.  Same start, same order, same output.
    """
    start = []
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
        below = [z for (_, z), h in zip(facets, heights) if h < 0]
        if below:
            for s in simplices[:]:
                mask = sum(1 << j for j in s)
                simplices += [tuple(j for j in s if j != i) + (k,) for i in s
                              if any(mask & ~(1 << i) & ~z == 0 for z in below)]
        kept = [(n, z | bit if h == 0 else z) for (n, z), h in zip(facets, heights) if h >= 0]
        for a, ((p, zp), hp) in enumerate(zip(facets, heights)):
            if hp <= 0:
                continue
            for b, ((q, zq), hq) in enumerate(zip(facets, heights)):
                if hq >= 0:
                    continue
                common = zp & zq
                if common.bit_count() < d - 2 or any(
                        common & ~z == 0 for c, (_, z) in enumerate(facets) if c != a and c != b):
                    continue
                kept.append((primitive(tuple(hp * y - hq * x for x, y in zip(p, q))),
                             common | bit))
        facets = kept
    return facets, simplices


def exhaustive_hilbert_basis(generators, dim):
    """Hilbert basis of the pointed full cone over the generators, within Z^dim.

    The exhaustive method: the primitive rays plus the lattice points of the
    half-open parallelepiped of every independent dim-subset of rays (the
    group generated by the columns of the Fraction inverse, modulo 1), then
    an all-pairs scan that drops x whenever x - y is a nonzero cone point.
    """
    rays = sorted({_primitive(tuple(g)) for g in generators if any(g)})
    normals = exhaustive_facet_normals(rays, dim)

    def in_cone(x):
        return all(sum(a * b for a, b in zip(n, x)) >= 0 for n in normals)

    candidates = set(rays)
    for subset in itertools.combinations(rays, dim):
        if sympy_det(subset) == 0:
            continue
        m = [list(col) for col in zip(*subset)]  # the rays as columns
        inv = _fraction_inverse(m)
        steps = [tuple(inv[r][i] % 1 for r in range(dim)) for i in range(dim)]
        zero = tuple(Fraction(0) for _ in range(dim))
        seen, frontier = {zero}, [zero]
        while frontier:
            lam = frontier.pop()
            for step in steps:
                nxt = tuple((a + b) % 1 for a, b in zip(lam, step))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        for lam in seen:
            x = tuple(sum(m[i][k] * lam[k] for k in range(dim)) for i in range(dim))
            assert all(c.denominator == 1 for c in x)
            if any(x):
                candidates.add(tuple(int(c) for c in x))
    ordered = sorted(candidates)
    return [x for x in ordered
            if not any(y != x and in_cone(tuple(a - b for a, b in zip(x, y)))
                       for y in ordered)]


def h_star_is_palindromic(generators, dim):
    """Stanley's Gorenstein criterion for the cone over height-one generators.

    Valid for a normal semigroup whose generators all have x_0 = 1 and whose
    group is Z^dim: its algebra is then the standard graded Ehrhart ring of
    the slice x_0 = 1, a Cohen-Macaulay domain, which is Gorenstein iff its
    h*-vector is palindromic (Stanley, "Hilbert functions of graded
    algebras", 1978).  L(k), the number of lattice points of the cone with
    x_0 = k, is counted by brute force over the box that k times the
    generators span, for k < dim; h* = (1 - t)^dim * sum_k L(k) t^k has
    degree < dim.
    """
    gens = [tuple(g) for g in generators]
    assert all(g[0] == 1 for g in gens)
    normals = exhaustive_facet_normals(gens, dim)
    lows = [min(g[j] for g in gens) for j in range(1, dim)]
    highs = [max(g[j] for g in gens) for j in range(1, dim)]
    counts = []
    for k in range(dim):
        box = itertools.product(*[range(k * lo, k * hi + 1) for lo, hi in zip(lows, highs)])
        counts.append(sum(
            all(sum(a * b for a, b in zip(n, (k,) + rest)) >= 0 for n in normals)
            for rest in box))
    h = [sum((-1) ** i * sympy.binomial(dim, i) * counts[j - i] for i in range(j + 1))
         for j in range(dim)]
    while h[-1] == 0:
        h.pop()
    return h == h[::-1]


def _lattice_membership(basis):
    """Membership test for the lattice of independent integer rows (Fractions)."""
    if not basis:
        return lambda v: not any(v)
    r, dim = len(basis), len(basis[0])
    cols = next(c for c in itertools.combinations(range(dim), r)
                if sympy_det([[b[j] for j in c] for b in basis]) != 0)
    inv = _fraction_inverse([[b[j] for j in cols] for b in basis])

    def member(v):
        coords = [sum(v[cols[i]] * inv[i][k] for i in range(r)) for k in range(r)]
        if any(c.denominator != 1 for c in coords):
            return False
        return all(sum(c * b[j] for c, b in zip(coords, basis)) == v[j]
                   for j in range(dim))

    return member


def facet_presentation_mismatch(fs, bound):
    """The box scan: first x in [-bound, bound]^d where Z.units + N.positives
    and the half-space {<n, x> >= 0} disagree, or where the iso round trip or
    a unit's inverse fails; None when the box holds no such point.
    """
    n = fs.inner_normal
    positives = fs.positive_generators
    heights = [sum(a * b for a, b in zip(n, p)) for p in positives]
    unit = _lattice_membership(fs.unit_basis)

    def presented(x):
        h = sum(a * b for a, b in zip(n, x))
        if h < 0:
            return False
        # N-combinations of the positive generators reaching height h
        stack, seen = [(x, h, 0)], set()
        while stack:
            v, rem, start = stack.pop()
            if rem == 0:
                if unit(v):
                    return True
                continue
            for i in range(start, len(positives)):
                if heights[i] <= rem:
                    nxt = (tuple(a - b for a, b in zip(v, positives[i])), rem - heights[i], i)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return False

    for x in itertools.product(range(-bound, bound + 1), repeat=fs.ambient_dim):
        inside = sum(a * b for a, b in zip(n, x)) >= 0
        if presented(x) != inside:
            return x
        if inside:
            coords, h = fs.iso_coordinates(x)
            if fs.from_iso_coordinates(coords, h) != x:
                return x
    for u in fs.unit_basis:
        if not (fs.contains(u) and fs.contains(tuple(-c for c in u))):
            return u
    return None


def reference_facet_subsemigroup(semigroup, facet):
    """``facet_subsemigroup`` as it was before it checked the facet against
    the cone pass: it refused a normal negative on a generator, took the
    incident generators' Hermite basis when they span the kernel lattice of
    the normal and that lattice's basis otherwise, and raised
    ``VerificationError`` on a non-primitive normal or with no generator of
    height 1."""
    semigroup.require_normal()
    if not semigroup.is_full():
        raise PreconditionError("facet semigroups need a full semigroup")
    n_vec = facet.inner_normal
    gens = semigroup.generators
    pairings = [vdot(n_vec, g) for g in gens]
    if any(p < 0 for p in pairings):
        raise PreconditionError("inner normal is negative on a generator; not a facet")
    incident = [g for g, p in zip(gens, pairings) if p == 0]
    positive = tuple(g for g, p in zip(gens, pairings) if p > 0)
    d = semigroup.ambient_dim
    kernel_lat = lattice_of(linalg.kernel_basis([n_vec], d), d)
    incident_lat = lattice_of(incident, d)
    if incident_lat.rank == d - 1 and incident_lat.same_lattice(kernel_lat):
        unit_basis, auxiliary = incident_lat.basis, False
    else:
        unit_basis, auxiliary = kernel_lat.basis, True
    transversal = linalg.solve_integer([n_vec], [1])
    if transversal is None:
        raise VerificationError("facet normal is not primitive")
    if 1 not in pairings:
        raise VerificationError(
            f"no generator has height 1 over {list(n_vec)}; the presentation "
            "is not the half-space")
    return FacetSemigroup(facet, d, tuple(unit_basis), tuple(transversal), positive,
                          auxiliary)


def decomposition_mismatch(generators, normals, bound):
    """The composition loop: first x in N^d with coordinate sum <= bound where
    membership in S (breadth-first) and in every facet half-space disagree,
    or None.
    """
    members = brute_members_by_degree(generators, bound)
    dim = len(generators[0])
    for total in range(bound + 1):
        for x in _compositions(total, dim):
            in_all = all(sum(a * b for a, b in zip(n, x)) >= 0 for n in normals)
            if (x in members) != in_all:
                return x
    return None


# -- cone answers on a coordinate copy of S ------------------------------------
#
# How each cone answer of an AffineSemigroup was computed before the
# semigroup kept one double-description pass: pointedness and the pointed
# membership search through cone_facets on the embedded generators, normality
# through hilbert_basis and membership on a copy of S in coordinates of G(S),
# facets through cone_facets on the cone of S, and the regularity report
# through the facets of the copy.  Each public function runs its own pass.

def coordinate_copy(s):
    """S rewritten in coordinates of its group of fractions: a full semigroup."""
    return AffineSemigroup([s.group.coordinates(g) for g in s.generators], s.rank)


def embedded_pointed_data(s):
    """(embedded generators, inner normals, their sum), or None with a line."""
    emb_gens = [s.group.coordinates(g) for g in s.generators]
    normals = [f.inner_normal for f in cone_facets(Cone(tuple(emb_gens), s.rank))]
    if linalg.int_rank(normals) < s.rank:
        return None
    return emb_gens, normals, tuple(map(sum, zip(*normals)))


def embedded_is_pointed(s):
    return s.is_trivial() or s.positive or embedded_pointed_data(s) is not None


def embedded_membership(s, x):
    """A complete membership decision on a pointed, non-positive S: the search
    on the heights under the normals of a fresh ``cone_facets`` pass."""
    if is_zero(x):
        return Membership(True, ())
    emb_gens, normals, _ = embedded_pointed_data(s)
    target = s.group.coordinates(x)
    if target is None:
        return Membership(False, None)
    heights = lambda v: tuple(vdot(n, v) for n in normals)
    return AffineSemigroup._search(heights(target), [heights(g) for g in emb_gens])


def embedded_normality(s):
    if s.is_trivial() or s.rank == 0:
        return NormalityCertificate(True, (), None, None)
    check_cone_limits(len({primitive(g) for g in s.generators}), s.rank)
    s_emb, to_ambient = coordinate_copy(s), s.group.from_coordinates
    try:
        hb = hilbert_basis(s_emb.cone, Sublattice.standard(s.rank))
    except SizeLimitError:
        raise
    except PreconditionError as exc:
        raise PreconditionError(f"normality needs a pointed cone: {exc}",
                                certificate=to_ambient(exc.certificate))
    in_ambient = tuple(map(to_ambient, hb))
    for h in hb:
        if not s_emb.contains(h):
            p = 2
            while not s_emb.contains(tuple(p * c for c in h)):
                p += 1
            return NormalityCertificate(False, in_ambient, to_ambient(h), p)
    return NormalityCertificate(True, in_ambient, None, None)


def embedded_facets(s):
    if not s.is_full():
        raise PreconditionError("facets in ambient coordinates need a full semigroup",
                                certificate=s.rank)
    return cone_facets(s.cone)


def embedded_regularity_report(s):
    cert = embedded_normality(s)
    if not cert.normal:
        return RegularityReport(False, (cert.witness_g, cert.witness_p), "inapplicable",
                                "inapplicable", None, False, False, True, s.rank)
    r = s.rank
    if r == 0:
        return RegularityReport(True, None, "yes", "yes", (0,) * s.ambient_dim,
                                True, True, True, 0)
    normals = [f.inner_normal for f in cone_facets(coordinate_copy(s).cone)]
    c = linalg.solve_integer(normals, [1] * len(normals))
    hb = [s.group.coordinates(h) for h in cert.saturation_hilbert_basis]
    regular = len(hb) == r and abs(linalg.det_int(hb)) == 1
    return RegularityReport(True, None, "yes", "no" if c is None else "yes",
                            None if c is None else s.group.from_coordinates(c),
                            regular, True, True, r)


def checked_standard_word(sg, s):
    """``StrSemigroup.standard_word`` with the checks it ran on every peel.

    Each support must be an ideal, each remainder nonnegative, and the
    peeling must end at zero; a failure raises VerificationError.
    """
    if not sg.contains(s):
        raise PreconditionError(f"{list(s)} is not in the lattice semigroup", certificate=s)
    irr = sg.birkhoff.irreducibles
    position = {p: i for i, p in enumerate(irr, 1)}
    reversed_chain = []
    cur = tuple(s)
    while cur[0] > 0:
        element = sg.birkhoff.element_of.get(
            frozenset(p for p in irr if cur[position[p]] != 0))
        if element is None:
            raise VerificationError(f"support of {list(cur)} is not an ideal")
        reversed_chain.append(element)
        cur = vsub(cur, sg.vector_of[element])
        if any(x < 0 for x in cur):
            raise VerificationError("peeling left the semigroup")
    if any(cur):
        raise VerificationError("peeling terminated off zero")
    return StandardWord(tuple(reversed(reversed_chain)))


def checked_are_cohomologous(alpha, beta, group_basis=None):
    """``are_cohomologous`` with the check it ran on every witness.

    alpha(xB, yB) == witness(x, y) * beta(xB, yB) on the unit vectors and
    the vectors 2 e_i - sum_(j != i) e_j of Z^r, in pairs; a failure raises
    QtoricError.
    """
    res = are_cohomologous(alpha, beta, group_basis)
    if res.cohomologous:
        dim = alpha.dim
        basis = group_basis or [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        r = len(basis)
        sample = [tuple(int(i == j) for j in range(r)) for i in range(r)] + [
            tuple(2 if i == j else -1 for j in range(r)) for i in range(r)]
        through_b = {x: tuple(sum(c * b[k] for c, b in zip(x, basis)) for k in range(dim))
                     for x in sample}
        for x, y in itertools.product(sample, repeat=2):
            if res.witness(x, y) * beta(through_b[x], through_b[y]) != \
                    alpha(through_b[x], through_b[y]):
                raise QtoricError("coboundary witness failed verification")
    return res


def checked_regularity_report(s):
    """``regularity_report`` with its check: a regular S passes the Gorenstein criterion."""
    report = regularity_report(s)
    if report.as_regular and report.as_gorenstein != "yes":
        raise VerificationError("regular semigroup failed the Gorenstein criterion")
    return report


def checked_algebra_report(sg, cocycle):
    """``algebra_report`` with its check: a lattice semigroup is normal."""
    report = algebra_report(sg, cocycle)
    if not report.regularity.normal or not report.regularity.maximal_order:
        raise VerificationError("lattice semigroup failed to be normal")
    return report


def bounded_brute_membership(generators, x, bound):
    """Whether some multiset of at most ``bound`` generators sums to x."""
    return any(tuple(map(sum, zip(*combo))) == tuple(x)
               for k in range(1, bound + 1)
               for combo in itertools.combinations_with_replacement(generators, k))


def standard_chains_with_sum(lattice, vector_of, target):
    """All weakly increasing chains whose embedding vectors sum to target.

    Independent of the library's psi: plain enumeration over chains of
    length target[0].
    """
    length = target[0]
    chains = []

    def extend(chain, acc):
        if len(chain) == length:
            if acc == target:
                chains.append(tuple(chain))
            return
        start = chain[-1] if chain else None
        for a in range(lattice.size):
            if start is not None and not lattice.leq[start][a]:
                continue
            nxt = tuple(x + y for x, y in zip(acc, vector_of[a]))
            if any(p > q for p, q in zip(nxt, target)):
                continue
            extend(chain + [a], nxt)

    extend([], tuple(0 for _ in target))
    return chains


def join_irreducibles_by_joins(lattice):
    """p is join-irreducible iff p is not the minimum and p = a v b forces p in {a, b}."""
    out = []
    for p in range(lattice.size):
        if p == lattice.minimum:
            continue
        proper = [(a, b) for a in range(lattice.size) for b in range(lattice.size)
                  if lattice.join[a][b] == p and a != p and b != p]
        if not proper:
            out.append(p)
    return out


def all_posets_up_to(n_max):
    """All partial orders on {0..n}, n <= n_max, up to isomorphism.

    Returned as (size, sorted tuple of strict pairs (a, b) meaning a < b),
    canonicalized over all permutations.  Counts per size follow the
    unlabeled-poset sequence 1, 1, 2, 5, 16.
    """
    reps = []
    for n in range(n_max + 1):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        seen = set()
        for mask in itertools.product((False, True), repeat=len(pairs)):
            rel = {p for p, keep in zip(pairs, mask) if keep}
            if any((b, a) in rel for a, b in rel):
                continue
            if any((a, d) not in rel
                   for a, b in rel for c, d in rel if b == c and a != d):
                continue
            # tuples compare lexicographically; frozensets would only
            # compare by inclusion and min() needs a total order
            canon = min(
                tuple(sorted((perm[a], perm[b]) for a, b in rel))
                for perm in itertools.permutations(range(n)))
            if canon in seen:
                continue
            seen.add(canon)
            reps.append((n, canon))
    return reps


# -- scalars as two classes: monomial units and their sums ----------------------

def _two_class_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {x!r}")


def _two_class_exponent(e):
    return str(e.numerator) if e.denominator == 1 else f"({e})"


@dataclass(frozen=True)
class MonomialUnit:
    """A unit c * prod(params^exponents): the monomial class of the two-class
    scalar design, in which units and sums were separate types.
    """

    coeff: Fraction
    exponents: tuple

    @staticmethod
    def make(coeff=1, exponents=None):
        c = _two_class_fraction(coeff)
        if c == 0:
            raise ValueError("scalar monomials are units; zero coefficient refused")
        exps = {}
        for name, e in (exponents or {}).items():
            e = _two_class_fraction(e)
            if e:
                exps[name] = e
        return MonomialUnit(c, tuple(sorted(exps.items())))

    def __mul__(self, other):
        exps = dict(self.exponents)
        for name, e in other.exponents:
            exps[name] = exps.get(name, Fraction(0)) + e
        return MonomialUnit.make(self.coeff * other.coeff, exps)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        return MonomialUnit.make(1 / self.coeff, {n: -e for n, e in self.exponents})

    def __pow__(self, k):
        return MonomialUnit.make(self.coeff ** k, {n: e * k for n, e in self.exponents})

    def __str__(self):
        parts = []
        if self.coeff != 1 or not self.exponents:
            parts.append(str(self.coeff))
        for name, e in self.exponents:
            parts.append(name if e == 1 else f"{name}^{_two_class_exponent(e)}")
        return "*".join(parts)


@dataclass(frozen=True)
class MonomialSum:
    """A finite rational combination of MonomialUnits, the sum class of the
    two-class design: ``terms`` are sorted (exponent key, coefficient) pairs.
    """

    terms: tuple

    @staticmethod
    def from_terms(items):
        return MonomialSum(tuple(sorted((k, c) for k, c in items.items() if c)))

    def __add__(self, other):
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, Fraction(0)) + c
        return MonomialSum.from_terms(acc)

    def __neg__(self):
        return MonomialSum(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        acc = {}
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
        return MonomialSum.from_terms(acc)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(str(MonomialUnit.make(c, dict(k))) for k, c in self.terms)


# -- cocycle scalars by direct expansion, independent of the compiled forms ---

def _bilinear(s, mat, t):
    return sum(s[i] * mat[i][j] * t[j] for i in range(len(s)) for j in range(len(t)))


def bilinear_cocycle_value(alpha, s, t):
    """alpha(s, t) read entry by entry off the stored matrices:
    prod_k c_k^(s^T B_k t - s^T Q_k t - t^T Q_k s).
    """
    exps = {}
    for k, p in enumerate(alpha.params):
        e = Fraction(_bilinear(s, alpha.bichar[k], t))
        if alpha.quad is not None:
            e -= _bilinear(s, alpha.quad[k], t) + _bilinear(t, alpha.quad[k], s)
        exps[p] = e
    return Scalar.make(1, exps)


def product_chain_straighten(sg, cocycle, word):
    """straighten by multiplying out the word and its standard word in
    k^alpha[S], support checks included, and dividing the two coefficients.
    """
    algebra = TwistedAlgebra(sg.semigroup, cocycle)

    def chain_product(chain):
        product = algebra.one()
        for a in chain:
            product = algebra.product(product, algebra.monomial(sg.vector_of[a]))
        return product.leading_term()

    if not word:
        return Scalar.one(), StandardWord(())
    coeff, expo = chain_product(word)
    standard = sg.standard_word(expo)
    std_coeff, std_expo = chain_product(standard.chain)
    assert std_expo == expo
    return coeff.as_monomial() / std_coeff.as_monomial(), standard


def product_chain_torus_embedding(algebra, pairs=None, search_degree=10):
    """The quantum-torus embedding by torus products.

    Y_i = X^(s_i) (X^(t_i))^(-1); q_ij is the ratio of the leading
    coefficients of Y_i Y_j and Y_j Y_i; the scalar of a generator g inverts
    the coefficient of the power/product chain Y_0^(k_0)...Y_(r-1)^(k_(r-1)),
    k the coordinates of g in the basis b_0..b_(r-1) of G(S), which must be a
    single term on X^g.  Without ``pairs`` (positive S only) they are
    searched: the lexicographically smallest member t of degree
    <= search_degree with t + b_i in S.
    """
    s_gp = algebra.domain
    torus = algebra.torus()
    if pairs is None:
        members = sorted(v for layer in elements_by_degree(s_gp, search_degree).values()
                         for v in layer)
        pairs = []
        for b in s_gp.group.basis:
            shifted = (vadd(t, b) for t in members)
            pairs.append(next((s, t) for s, t in zip(shifted, members) if s_gp.contains(s)))
    ys = tuple(torus.product(torus.monomial(s), torus.monomial_inverse(torus.monomial(t)))
               for s, t in pairs)
    q_matrix = tuple(tuple(torus.product(yi, yj).leading_term()[0].as_monomial()
                           / torus.product(yj, yi).leading_term()[0].as_monomial()
                           for yj in ys) for yi in ys)
    scalars = {}
    for g in s_gp.generators:
        y_pow = torus.one()
        for y, k in zip(ys, s_gp.group.coordinates(g)):
            y_pow = torus.product(y_pow, torus.power(y, k))
        (expo, coeff), = y_pow.terms.items()
        assert expo == g, f"Y-monomial for generator {list(g)} is not X^g-parallel"
        scalars[g] = coeff.as_monomial().inverse()
    return TorusEmbedding(q_matrix, tuple(pairs), ys, scalars)


def scalar_chain_straighten(sg, cocycle, word):
    """straighten's scalar as the Scalar ratio word_scalar(word) /
    word_scalar(standard), the word of its standard form found as in the
    library.
    """
    if not word:
        return Scalar.one(), StandardWord(())
    standard = sg.standard_word(sg.vector_of_word(word))
    scalar = (cocycle.word_scalar([sg.vector_of[a] for a in word])
              / cocycle.word_scalar([sg.vector_of[a] for a in standard.chain]))
    return scalar, standard


def scalar_chain_commutation_matrix(alpha, gens):
    """q_ij = alpha(g_i, g_j) / alpha(g_j, g_i) as a Scalar division."""
    return tuple(tuple(alpha(a, b) / alpha(b, a) for b in gens) for a in gens)


def commutation_skew_mismatch(q):
    """The first (i, j) where a commutation matrix has q_ii != 1 (then j == i)
    or q_ij q_ji != 1, or None.

    torus_embedding and localize_at_facet ran this check on every call before
    they relied on commutation_matrix building q_ji as the inverse of q_ij.
    """
    for i, row in enumerate(q):
        if not row[i].is_one():
            return (i, i)
        for j, entry in enumerate(row):
            if not (entry * q[j][i]).is_one():
                return (i, j)
    return None


def window_torus_embedding(algebra, search_degree=10):
    """The torus embedding of a full S by its degree window and Scalar chains.

    A positive S sorts every member of coordinate sum <= search_degree and
    takes, per e_i, the first t with t + e_i in S; any other e_i (and a
    positive S without such a t) takes the positive and negative parts of an
    integer solution e_i = sum_j lambda_j g_j.  Y_i = alpha(s_i, -t_i) /
    alpha(t_i, -t_i), q_ij = alpha(e_i, e_j) / alpha(e_j, e_i), and the scalar
    of g inverts word_scalar(g_0 e_0, ..., g_n e_n) * prod_i Y_i^(g_i) *
    alpha(e_i, e_i)^(g_i (g_i - 1) / 2), all multiplied as Scalars.
    """
    s_gp, alpha, dim = algebra.domain, algebra.cocycle, algebra.dim
    gens = s_gp.generators
    basis = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    window = sorted(v for layer in elements_by_degree(s_gp, search_degree).values()
                    for v in layer) if s_gp.positive else []
    pairs = []
    for e_i in basis:
        pair = next(((vadd(t, e_i), t) for t in window if s_gp.contains(vadd(t, e_i))), None)
        if pair is None:
            lam = linalg.solve_integer(linalg.transpose(gens), e_i)
            s = tuple(sum(l * g[k] for l, g in zip(lam, gens) if l > 0) for k in range(dim))
            pair = (s, tuple(a - b for a, b in zip(s, e_i)))
        pairs.append(pair)
    y_scalars = [alpha(s, vneg(t)) / alpha(t, vneg(t)) for s, t in pairs]
    scalars = {}
    for g in gens:
        c = alpha.word_scalar([tuple(k * x for x in e) for k, e in zip(g, basis)])
        for k, e, y in zip(g, basis, y_scalars):
            c = c * y ** k * alpha(e, e) ** (k * (k - 1) // 2)
        scalars[g] = c.inverse()
    ys = tuple(TwistedElement({e: y}) for e, y in zip(basis, y_scalars))
    return TorusEmbedding(scalar_chain_commutation_matrix(alpha, basis), tuple(pairs), ys,
                          scalars)


def hibi_torus_pairs(sg):
    """The torus pairs of a straightening semigroup in Hibi's closed form.

    pair_0 = (e_0, 0); for the i-th join-irreducible p_i (i >= 1),
    pair_i = ((1, chi of the irreducibles <= p_i), (1, chi of those < p_i)):
    the irreducibles strictly below p_i form the least ideal I with p_i not
    in I and I + p_i an ideal, so their vector is lexicographically least.
    """
    irr, leq = sg.birkhoff.irreducibles, sg.lattice.leq
    dim = len(irr) + 1
    pairs = [(tuple(int(j == 0) for j in range(dim)), (0,) * dim)]
    for p in irr:
        below = tuple(int(leq[q][p]) for q in irr)
        strictly = tuple(int(leq[q][p] and q != p) for q in irr)
        pairs.append(((1,) + below, (1,) + strictly))
    return tuple(pairs)


def twisting_system_mismatch(algebra, axiom_bound, product_bound):
    """The bounded checks of a twisting system over a positive semigroup.

    Returns the first failure, ("axiom", g, g', g'') for a degree triple of
    coordinate sums <= axiom_bound where
    alpha(g, g') alpha(g + g', g'') != alpha(g', g'') alpha(g, g' + g''), or
    ("product", a, b) for a pair of total degree <= product_bound where the
    twisted commutative product differs from the algebra's; None if none.
    """
    alpha = algebra.cocycle
    system = algebra.twisting_system()
    layers = elements_by_degree(algebra.domain, max(axiom_bound, product_bound))
    degrees = sorted(v for layer in layers.values() for v in layer)
    add = lambda u, v: tuple(a + b for a, b in zip(u, v))
    small = [s for s in degrees if sum(s) <= axiom_bound]
    for g, gp, gpp in itertools.product(small, repeat=3):
        if alpha(g, gp) * alpha(add(g, gp), gpp) != alpha(gp, gpp) * alpha(g, add(gp, gpp)):
            return ("axiom", g, gp, gpp)
    for a, b in itertools.product(degrees, repeat=2):
        if sum(a) + sum(b) > product_bound:
            continue
        x, y = algebra.monomial(a), algebra.monomial(b)
        if system.twisted_product(x, y) != algebra.product(x, y):
            return ("product", a, b)
    return None


# -- lattices by pairwise closure and the triple scan -------------------------

def scanned_lattice_tables(leq, labels):
    """Meet and join tables of a finite order by closure over all pairs.

    Raises QtoricError naming the first pair (row-major) without a meet or
    join, then checks distributivity on all triples and raises naming the
    first witness triple.  This is how DistLattice decided lattices before
    it used Birkhoff's theorem, and what it still runs on a refused poset.
    """
    n = len(leq)

    def bound(a, b, lower):
        if lower:
            cands = [c for c in range(n) if leq[c][a] and leq[c][b]]
            best = [c for c in cands if all(leq[d][c] for d in cands)]
        else:
            cands = [c for c in range(n) if leq[a][c] and leq[b][c]]
            best = [c for c in cands if all(leq[c][d] for d in cands)]
        return best[0] if len(best) == 1 else None

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            m, j = bound(a, b, True), bound(a, b, False)
            if m is None or j is None:
                kind = "meet" if m is None else "join"
                raise QtoricError(f"not a lattice: {labels[a]} and {labels[b]} have no {kind}")
            meet[a][b], join[a][b] = m, j
    for a, b, c in itertools.product(range(n), repeat=3):
        if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
            raise QtoricError("lattice is not distributive; witness triple "
                              f"({labels[a]}, {labels[b]}, {labels[c]})")
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def naturally_labeled_posets(n):
    """Every order on {0..n-1} in which a < b implies a < b as integers.

    Each is returned as its sorted list of strict pairs.  Every finite poset
    is isomorphic to at least one of them; the counts for n = 0..6 are 1, 1,
    2, 7, 40, 357, 4824.  Element k is added below nothing earlier, above
    exactly one down-set of the order built so far.
    """
    orders = [[]]
    for k in range(n):
        grown = []
        for pairs in orders:
            below = {b: {a for a, c in pairs if c == b} for b in range(k)}
            for mask in range(1 << k):
                chosen = {b for b in range(k) if mask >> b & 1}
                if all(below[b] <= chosen for b in chosen):
                    grown.append(pairs + [(a, k) for a in sorted(chosen)])
        orders = grown
    return orders


def embedding_mismatch(sg):
    """The first failure of a straightening semigroup's lattice embedding i,
    or None.

    ("valuation", a, b) for a pair with i(a) + i(b) != i(a^b) + i(avb),
    ("injective", a, b) for a < b with i(a) == i(b), and ("staircase", a)
    for an image outside 0 <= s_k <= s_0 = 1 or with s_k < s_l for
    irreducibles p_k <= p_l.  straightening_semigroup ran the first two
    checks on all pairs, and the third through its own membership test,
    before it relied on the lattice's Birkhoff certificate.
    """
    lat, vec, irr = sg.lattice, sg.vector_of, sg.birkhoff.irreducibles
    add = lambda u, v: tuple(x + y for x, y in zip(u, v))
    for a, b in itertools.product(range(lat.size), repeat=2):
        if add(vec[a], vec[b]) != add(vec[lat.meet[a][b]], vec[lat.join[a][b]]):
            return ("valuation", a, b)
        if a < b and vec[a] == vec[b]:
            return ("injective", a, b)
    for a in range(lat.size):
        s = vec[a]
        if s[0] != 1 or any(not 0 <= x <= 1 for x in s[1:]) or any(
                lat.leq[p][q] and s[k] < s[l]
                for k, p in enumerate(irr, 1) for l, q in enumerate(irr, 1)):
            return ("staircase", a)
    return None


def staircase_round_trip_mismatch(sg, bound):
    """The first staircase point with first coordinate <= bound whose
    standard word does not re-sum to it, or None.

    The points are every s with s_0 <= bound, 0 <= s_i <= s_0 and
    s_i >= s_j for consecutive irreducibles p_i < p_j, enumerated over the
    whole box; this is the bounded check straightening_semigroup ran before
    it relied on Hibi's theorem.
    """
    for s0 in range(bound + 1):
        for rest in itertools.product(range(s0 + 1), repeat=sg.ambient_dim - 1):
            s = (s0,) + rest
            if sg.contains(s) and sg.vector_of_word(sg.standard_word(s).chain) != s:
                return s
    return None


# -- the character-by-character model tokenizer and parser --------------------
#
# Model text as it was read before the regular-expression tokenizer: one
# frozen token object per token, a recursive value parser, and the same
# declaration builders (qtoric.model._BUILDERS), so a difference is a
# difference in reading the text.  One change: a digit is a decimal digit
# (str.isdecimal, what int() accepts).  With str.isdigit a superscript digit
# such as '²' reached int() and escaped as a ValueError.

@dataclass(frozen=True)
class _Tok:
    kind: str        # "name" | "number" | "punct"
    text: str
    col: int
    value: object = None


def _reference_tokenize(line, lineno):
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c in " \t":
            i += 1
            continue
        if c == "#":
            break
        col = i + 1
        if c in "[],=:":
            out.append(_Tok("punct", c, col))
            i += 1
            continue
        if c == "-" or c.isdecimal():
            j = i + 1 if c == "-" else i
            if j >= n or not line[j].isdecimal():
                raise ModelParseError("expected digits after '-'", lineno, col)
            k = j
            while k < n and line[k].isdecimal():
                k += 1
            value = int(line[i:k])
            if k < n and line[k] == "/":
                start = k2 = k + 1
                while k2 < n and line[k2].isdecimal():
                    k2 += 1
                if k2 == start:
                    raise ModelParseError("expected digits after '/'", lineno, k + 1)
                den = int(line[start:k2])
                if den == 0:
                    raise ModelParseError("zero denominator", lineno, start)
                value = Fraction(int(line[i:k]), den)
                k = k2
            out.append(_Tok("number", line[i:k], col, value))
            i = k
            continue
        if c.isalpha() or c == "_":
            k = i
            while k < n and (line[k].isalnum() or line[k] == "_"):
                k += 1
            out.append(_Tok("name", line[i:k], col))
            i = k
            continue
        raise ModelParseError(f"unexpected character {c!r}", lineno, col)
    return out


class _RefCursor:
    def __init__(self, toks, lineno, end_col):
        self.toks, self.pos, self.lineno, self.end_col = toks, 0, lineno, end_col

    def done(self):
        return self.pos >= len(self.toks)

    def peek(self):
        return None if self.done() else self.toks[self.pos]

    def fail(self, message):
        col = self.end_col if self.done() else self.toks[self.pos].col
        raise ModelParseError(message, self.lineno, col)

    def take(self, kind=None, text=None):
        t = self.peek()
        if t is None:
            self.fail(f"expected {text or kind}, found end of line")
        if kind is not None and t.kind != kind:
            self.fail(f"expected {text or kind}, found {t.text!r}")
        if text is not None and t.text != text:
            self.fail(f"expected {text!r}, found {t.text!r}")
        self.pos += 1
        return t


def _reference_value(cur):
    t = cur.peek()
    if t is None:
        cur.fail("expected a value")
    if t.kind == "punct" and t.text == "[":
        cur.take()
        items = []
        nxt = cur.peek()
        if nxt is not None and nxt.kind == "punct" and nxt.text == "]":
            cur.take()
            return items
        while True:
            items.append(_reference_value(cur))
            sep = cur.take("punct")
            if sep.text == "]":
                return items
            if sep.text != ",":
                raise ModelParseError("expected ',' or ']'", cur.lineno, sep.col)
    if t.kind == "number":
        cur.take()
        return t.value
    if t.kind == "name":
        cur.take()
        return t.text
    cur.fail("expected a value")


def _reference_fields(cur):
    fields = {}
    while not cur.done():
        key_tok = cur.take("name")
        param = None
        nxt = cur.peek()
        if nxt is not None and nxt.kind == "punct" and nxt.text == ":":
            cur.take()
            param = cur.take("name").text
        cur.take("punct", "=")
        value = _reference_value(cur)
        key = (key_tok.text, param)
        if key in fields:
            raise ModelParseError(f"duplicate field {key_tok.text!r}", cur.lineno, key_tok.col)
        fields[key] = model_module._Field(value, cur.lineno, key_tok.col)
    return fields


def reference_parse_model(text):
    """parse_model by the character-by-character tokenizer and cursor."""
    objects = {kind: {} for kind in model_module._BUILDERS}
    bound = None
    taken = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = _reference_tokenize(line, lineno)
        if not toks:
            continue
        cur = _RefCursor(toks, lineno, len(line) + 1)
        head = cur.take("name")
        if head.text == "bound":
            t = cur.take("number")
            if not isinstance(t.value, int) or t.value < 0:
                raise ModelParseError("bound must be a nonnegative integer", lineno, t.col)
            if not cur.done():
                cur.fail("unexpected trailing input after bound")
            bound = t.value
            continue
        if head.text not in model_module._BUILDERS:
            raise ModelParseError(
                f"unknown declaration {head.text!r} "
                "(expected semigroup, cocycle, lattice, or bound)", lineno, head.col)
        name_tok = cur.take("name")
        if name_tok.text in taken:
            raise ModelParseError(
                f"name {name_tok.text!r} already declared on line {taken[name_tok.text]}",
                lineno, name_tok.col)
        taken[name_tok.text] = lineno
        objects[head.text][name_tok.text] = model_module._BUILDERS[head.text](
            _reference_fields(cur), lineno)
    return model_module.ModelFile(objects["semigroup"], objects["cocycle"],
                                  objects["lattice"], bound)
