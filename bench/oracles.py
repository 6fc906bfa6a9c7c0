"""Independent oracles for the benchmark's output checks (stdlib only).

Nothing here imports the program under test.  The oracles use other methods
than the program does: Fraction Gaussian elimination instead of Hermite
forms, Apery sets and breadth-first dynamic programs instead of recursive
membership search, ridge counting and ray shooting instead of subset scans,
closed-form cocycle exponents instead of evaluated products, and Hibi's
purity criterion for Gorenstein lattice rings.  Every check raises
``CheckError`` with a reason; a check that returns has passed.
"""

from __future__ import annotations

import heapq
import itertools
import re
from fractions import Fraction
from math import gcd


class CheckError(Exception):
    """An output disagrees with an oracle."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


# -- exact linear algebra over Q ---------------------------------------------

def _echelon(rows):
    """Reduced row echelon form over Q: (rows, pivot columns)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    width = len(mat[0]) if mat else 0
    for c in range(width):
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def rank(rows):
    return len(_echelon(rows)[1]) if rows else 0


def primitive(v):
    """Integer vector on the ray of a rational vector, entries coprime."""
    den = 1
    for x in v:
        den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    ints = [int(Fraction(x) * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints) if g else tuple(ints)


def nullspace(rows, width):
    """Primitive integer basis of {x in Q^width : rows x = 0}."""
    if not rows:
        return [tuple(int(i == j) for j in range(width)) for i in range(width)]
    red, pivots = _echelon(rows)
    free = [c for c in range(width) if c not in pivots]
    out = []
    for f in free:
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[f]
        out.append(primitive(v))
    return out


def solve_columns(columns, x):
    """Coefficients lam with sum lam_i * columns[i] == x, or None.

    ``columns`` must be linearly independent; the system may be
    overdetermined but must be consistent for a solution to be returned.
    """
    d = len(x)
    k = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(x[i])] for i in range(d)]
    red, pivots = _echelon(aug)
    if k in pivots:
        return None
    if len(pivots) < k:
        return None
    return [red[i][k] for i in range(k)]


def det(rows):
    n = len(rows)
    mat = [[Fraction(x) for x in r] for r in rows]
    out = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if mat[i][c]), None)
        if p is None:
            return 0
        if p != c:
            mat[c], mat[p] = mat[p], mat[c]
            out = -out
        out *= mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c]:
                f = mat[i][c] / mat[c][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return int(out)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# -- integer lattices ----------------------------------------------------------

class IntLattice:
    """Subgroup of Z^d generated by integer vectors (Euclid-style echelon)."""

    def __init__(self, vectors, dim):
        self.dim = dim
        rows = [list(v) for v in vectors if any(v)]
        self.rows = []
        for c in range(dim):
            active = [r for r in rows if r[c]]
            rest = [r for r in rows if not r[c]]
            while len(active) > 1:
                active.sort(key=lambda r: abs(r[c]))
                p = active[0]
                keep = [p]
                for r in active[1:]:
                    q = r[c] // p[c]
                    r = [a - q * b for a, b in zip(r, p)]
                    if r[c]:
                        keep.append(r)
                    elif any(r):
                        rest.append(r)
                active = keep
            if active:
                p = active[0]
                if p[c] < 0:
                    p = [-a for a in p]
                self.rows.append((c, p))
            rows = rest

    @property
    def rank(self):
        return len(self.rows)

    def index(self):
        """[Z^d : L] when L has full rank, else 0."""
        if self.rank < self.dim:
            return 0
        out = 1
        for c, p in self.rows:
            out *= p[c]
        return out

    def is_full(self):
        return self.index() == 1

    def contains(self, x):
        x = list(x)
        for c, p in self.rows:
            q, rem = divmod(x[c], p[c])
            if rem:
                return False
            if q:
                x = [a - q * b for a, b in zip(x, p)]
        return not any(x)


# -- cones ---------------------------------------------------------------------

def brute_facets(gens):
    """Facets of a full-rank cone: {primitive inner normal: incident indices}."""
    d = len(gens[0])
    out = {}
    distinct = sorted({primitive(g) for g in gens if any(g)})
    for subset in itertools.combinations(distinct, d - 1):
        if rank(subset) != d - 1:
            continue
        n = nullspace(subset, d)[0]
        pair = [dot(n, g) for g in gens]
        if all(p >= 0 for p in pair):
            pass
        elif all(p <= 0 for p in pair):
            n = tuple(-x for x in n)
            pair = [-p for p in pair]
        else:
            continue
        out[n] = frozenset(i for i, p in enumerate(pair) if p == 0)
    return out


def in_cone(normals, x):
    return all(dot(n, x) >= 0 for n in normals)


def check_facets(gens, facets, rng, rays=16):
    """Check a reported facet list of the full-rank cone spanned by ``gens``.

    ``facets`` is a list of (inner normal, incident generator indices).
    Validity: each normal is primitive, nonnegative on every generator, zero
    exactly on its incident set, and that set spans a hyperplane.
    Completeness: every ridge of every reported facet lies in exactly one
    other reported facet (a dropped facet leaves ridges uncovered), and
    seeded points satisfying every reported inequality lie in a simplicial
    subcone of generators, found by an exact Fraction solve.
    """
    d = len(gens[0])
    normals = [tuple(n) for n, _ in facets]
    require(len(set(normals)) == len(normals), "duplicate facet normals")
    require(rank(gens) == d, "generators do not span the ambient space")
    incidents = []
    for n, inc in facets:
        require(len(n) == d and any(n), f"bad normal {n}")
        require(primitive(n) == tuple(n), f"normal {n} is not primitive")
        pair = [dot(n, g) for g in gens]
        require(all(p >= 0 for p in pair), f"normal {n} is negative on a generator")
        zero = frozenset(i for i, p in enumerate(pair) if p == 0)
        require(zero == frozenset(inc), f"incident set of {n} is wrong")
        require(rank([gens[i] for i in zero]) == d - 1,
                f"normal {n} does not support the cone on d-1 independent generators")
        incidents.append(zero)
    for fi, (n, inc) in enumerate(zip(normals, incidents)):
        for ridge in (_ridges(gens, n, inc) if d >= 2 else ()):
            holders = sum(1 for fj, other in enumerate(incidents) if fj != fi and ridge <= other)
            require(holders == 1, f"ridge {sorted(ridge)} of facet {n} lies in "
                                  f"{holders} other facets (expected 1)")
    interior = [sum(g[i] for g in gens) for i in range(d)]
    for _ in range(rays):
        w = [rng.randint(-5, 5) for _ in range(d)]
        steps = [(Fraction(dot(n, interior), -dot(n, w)), k)
                 for k, n in enumerate(normals) if dot(n, w) < 0]
        if not steps:
            continue
        t, k = min(steps)
        point = [p + t * x for p, x in zip(interior, w)]
        require(in_cone(normals, point), "exit point violates a reported inequality")
        require(_in_simplicial_subcone([gens[i] for i in sorted(incidents[k])], point, d - 1),
                f"point {point} satisfies every reported inequality but is not in the cone")


def _ridges(gens, normal, incident):
    """Incident sets of the facets of the (d-1)-cone spanned by a facet."""
    d = len(normal)
    inc = sorted(incident)
    out = set()
    for sub in itertools.combinations(inc, d - 2):
        rows = [gens[i] for i in sub]
        if rank(rows) != d - 2:
            continue
        m = nullspace(rows + [tuple(normal)], d)
        if len(m) != 1:
            continue
        m = m[0]
        vals = {i: dot(m, gens[i]) for i in inc}
        if all(v >= 0 for v in vals.values()) or all(v <= 0 for v in vals.values()):
            out.add(frozenset(i for i, v in vals.items() if v == 0))
    return out


def _in_simplicial_subcone(gens, x, k):
    for sub in itertools.combinations(gens, k):
        if rank(sub) != k:
            continue
        lam = solve_columns(sub, x)
        if lam is not None and all(v >= 0 for v in lam):
            return True
    return False


def cone_points(normals, lattice, dim, degree, positive, box=None):
    """Nonzero points of cone and lattice, in N^d with coordinate sum <= degree
    for a positive cone, else in the box [-box, box]^d."""
    if positive:
        pts = (x for total in range(1, degree + 1) for x in compositions(total, dim))
    else:
        pts = (x for x in itertools.product(range(-box, box + 1), repeat=dim) if any(x))
    return [x for x in pts if in_cone(normals, x) and lattice.contains(x)]


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# -- membership ----------------------------------------------------------------

class NumericalMembership:
    """Membership in a submonoid of N by its Apery set (Dijkstra on residues)."""

    def __init__(self, gens):
        self.g = 0
        for x in gens:
            self.g = gcd(self.g, x)
        scaled = sorted({x // self.g for x in gens})
        m = scaled[0]
        self.m = m
        dist = [None] * m
        dist[0] = 0
        heap = [(0, 0)]
        while heap:
            w, r = heapq.heappop(heap)
            if w != dist[r]:
                continue
            for a in scaled:
                nw, nr = w + a, (r + a) % m
                if dist[nr] is None or nw < dist[nr]:
                    dist[nr] = nw
                    heapq.heappush(heap, (nw, nr))
        self.apery = dist

    def __call__(self, x):
        if x < 0 or x % self.g:
            return False
        x //= self.g
        return x >= self.apery[x % self.m]


class PointedMembership:
    """Membership in the monoid generated by ``gens`` (breadth-first DP).

    ``weight`` is strictly positive on every generator, so every state on a
    path from x to 0 has weight between 0 and weight(x); states are explored
    iteratively with a visited set, never by recursion.
    """

    def __init__(self, gens, weight):
        self.gens = [tuple(g) for g in gens]
        self.weight = tuple(weight)
        require(all(dot(self.weight, g) > 0 for g in self.gens),
                "membership oracle needs a functional positive on the generators")
        self.positive = all(c >= 0 for g in self.gens for c in g)
        self.known = {}

    def __call__(self, x):
        x = tuple(x)
        if not any(x):
            return True
        if x in self.known:
            return self.known[x]
        seen = {x}
        frontier = [x]
        found = False
        while frontier and not found:
            nxt = []
            for v in frontier:
                for g in self.gens:
                    u = tuple(a - b for a, b in zip(v, g))
                    if not any(u) or self.known.get(u):
                        found = True
                        break
                    if u in seen or dot(self.weight, u) <= 0 or self.known.get(u) is False:
                        continue
                    if self.positive and min(u) < 0:
                        continue
                    seen.add(u)
                    nxt.append(u)
                if found:
                    break
            frontier = nxt
        self.known[x] = found
        return found


def member_oracle(gens, weight=None):
    if len(gens[0]) == 1 and all(g[0] > 0 for g in gens):
        num = NumericalMembership([g[0] for g in gens])
        return lambda x: num(x[0])
    return PointedMembership(gens, weight or (1,) * len(gens[0]))


# -- closed-form cocycles and scalars -------------------------------------------

class CocycleForm:
    """alpha(s, t) = prod_k c_k^(s^T C_k t) with C_k = B_k - Q_k - Q_k^T."""

    def __init__(self, dim, params, bichar, quad=None):
        self.dim = dim
        self.params = tuple(params)
        self.forms = []
        for k in range(len(self.params)):
            b = bichar[k]
            q = quad[k] if quad is not None else None
            self.forms.append(tuple(tuple(
                Fraction(b[i][j]) - (Fraction(q[i][j]) + Fraction(q[j][i]) if q else 0)
                for j in range(dim)) for i in range(dim)))

    def exponents(self, s, t):
        return {p: _bilinear(s, c, t) for p, c in zip(self.params, self.forms)}

    def chain_exponents(self, vectors):
        """Exponents of the scalar in X^v1 X^v2 ... X^vk = scalar X^(sum)."""
        acc = [0] * self.dim
        out = {p: Fraction(0) for p in self.params}
        for v in vectors:
            for p, c in zip(self.params, self.forms):
                out[p] += _bilinear(acc, c, v)
            acc = [a + b for a, b in zip(acc, v)]
        return out

    def skew(self, k):
        c = self.forms[k]
        return tuple(tuple(c[i][j] - c[j][i] for j in range(self.dim)) for i in range(self.dim))


def _bilinear(s, c, t):
    return sum(s[i] * c[i][j] * t[j] for i in range(len(s)) for j in range(len(t))
               if s[i] and t[j])


def clean(exps):
    return {p: Fraction(e) for p, e in exps.items() if e}


def sub(a, b):
    return clean({p: a.get(p, 0) - b.get(p, 0) for p in set(a) | set(b)})


_NAME = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+|\(-?\d+/\d+\)))?$")


def parse_scalar(text):
    """'q^-1*r^(1/2)' -> (coefficient, {param: exponent})."""
    coeff = Fraction(1)
    exps = {}
    for part in text.strip().split("*"):
        m = _NAME.match(part)
        if m:
            e = m.group(2)
            exps[m.group(1)] = Fraction(e.strip("()")) if e else Fraction(1)
        else:
            coeff *= Fraction(part)
    return coeff, exps


def parse_monomial_element(text):
    """'q^-1*X[2, 1]' -> ((coefficient, exponents), (2, 1)); one term only."""
    m = re.fullmatch(r"(?:(.*)\*)?X\[([-\d, ]*)\]", text.strip())
    require(m is not None, f"not a single-term element: {text!r}")
    vec = tuple(int(x) for x in m.group(2).split(",") if x.strip())
    scalar = parse_scalar(m.group(1)) if m.group(1) else (Fraction(1), {})
    return scalar, vec


def check_scalar(actual, expected_exps, what):
    coeff, exps = actual
    require(coeff == 1, f"{what}: coefficient {coeff} != 1")
    require(clean(exps) == clean(expected_exps),
            f"{what}: exponents {dict(exps)} != closed form {clean(expected_exps)}")


# -- lattices and model files ---------------------------------------------------

class LatticeFacts:
    """Order-theoretic facts about a finite distributive lattice.

    Built from element labels and cover pairs; join-irreducibles are the
    elements with exactly one lower cover, and each element is identified
    with the down-set of join-irreducibles below it (Birkhoff).
    """

    def __init__(self, labels, covers):
        self.labels = list(labels)
        n = len(self.labels)
        index = {name: i for i, name in enumerate(self.labels)}
        leq = [[i == j for j in range(n)] for i in range(n)]
        lower = {i: set() for i in range(n)}
        for lo, hi in covers:
            leq[index[lo]][index[hi]] = True
            lower[index[hi]].add(index[lo])
        for k in range(n):
            for i in range(n):
                if leq[i][k]:
                    leq[i] = [a or b for a, b in zip(leq[i], leq[k])]
        self.leq = leq
        self.irreducibles = [a for a in range(n) if len(lower[a]) == 1]
        self.ideal = {a: frozenset(p for p in self.irreducibles if leq[p][a]) for a in range(n)}
        irr = self.irreducibles
        self.poset = (len(irr), tuple(sorted(
            (i, j) for i, a in enumerate(irr) for j, b in enumerate(irr) if a != b and leq[a][b])))

    def index_of(self, label):
        return self.labels.index(label)

    def check_coordinates(self, irreducible_order, vectors):
        """The program's coordinate order and element vectors are Birkhoff's."""
        require(sorted(irreducible_order) == sorted(self.irreducibles),
                "reported irreducibles are not the join-irreducibles")
        for i, a in enumerate(irreducible_order):
            for b in irreducible_order[i + 1:]:
                require(not (self.leq[b][a] and a != b),
                        "irreducible order is not a linear extension")
        for a, vec in vectors.items():
            want = (1,) + tuple(int(p in self.ideal[a]) for p in irreducible_order)
            require(tuple(vec) == want, f"vector of {self.labels[a]} is {vec}, expected {want}")

    def check_standard(self, word, chain, what):
        """chain is weakly increasing and has the same vector sum as word."""
        require(all(self.leq[a][b] for a, b in zip(chain, chain[1:])),
                f"{what}: standard word is not weakly increasing")
        require(len(chain) == len(word), f"{what}: standard word has the wrong length")
        for p in self.irreducibles:
            require(sum(p in self.ideal[a] for a in word) == sum(p in self.ideal[a] for a in chain),
                    f"{what}: standard word changes the vector sum")


def parse_model_text(text):
    """Objects of a model file, read without the program's parser."""
    out = {"semigroup": {}, "cocycle": {}, "lattice": {}, "bound": None}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        head, rest = (line.split(None, 1) + [""])[:2]
        if head == "bound":
            out["bound"] = int(rest)
            continue
        name, rest = (rest.split(None, 1) + [""])[:2]
        fields = {}
        for m in re.finditer(r"([A-Za-z_]+)(?::([A-Za-z_][A-Za-z0-9_]*))?=(\[[^=]*\]|\S+)", rest):
            fields[(m.group(1), m.group(2))] = parse_value(m.group(3).strip())
        if head == "semigroup":
            out[head][name] = [tuple(g) for g in fields[("gens", None)]]
        elif head == "cocycle":
            dim = fields[("dim", None)]
            params = fields[("params", None)]
            zero = [[0] * dim for _ in range(dim)]
            bichar = [fields.get(("bichar", p), zero) for p in params]
            quad = None
            if any(("quad", p) in fields for p in params):
                quad = [fields.get(("quad", p), zero) for p in params]
            out[head][name] = CocycleForm(dim, params, bichar, quad)
        elif head == "lattice":
            out[head][name] = LatticeFacts(fields[("elements", None)],
                                           [tuple(c) for c in fields[("covers", None)]])
    return out


def parse_value(text):
    """A model-file value: nested lists of ints, fractions p/q and names."""
    tokens = re.findall(r"\[|\]|,|-?\d+/\d+|-?\d+|[A-Za-z_][A-Za-z0-9_]*", text)
    pos = 0

    def parse():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "[":
            items = []
            if tokens[pos] == "]":
                pos += 1
                return items
            while True:
                items.append(parse())
                sep = tokens[pos]
                pos += 1
                if sep == "]":
                    return items
        if re.fullmatch(r"-?\d+", tok):
            return int(tok)
        if "/" in tok:
            return Fraction(tok)
        return tok

    return parse()


def parse_report(text):
    """'key = value' lines of a CLI report as an ordered dict."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        require(sep, f"malformed report line {line!r}")
        require(key not in out, f"duplicate report key {key!r}")
        out[key] = value
    return out


def parse_vec(text):
    return tuple(parse_value(text))


def parse_labels(text):
    body = text.strip()[1:-1]
    return [x for x in body.split(",") if x]
