"""Output checks: every operation's answer against the oracles in oracles.py.

Each ``check_<workload>`` takes the spec and the list of finished operations
``(op, payload)`` (failed operations are absent) and returns a list of error
strings, empty when every answer is right.  Program objects are read only
through their public fields and their printed forms.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import oracles
import posets
from oracles import CheckError, require

# Bounds of the bounded oracle checks, by ambient dimension: the coordinate
# sum of enumerated cone points (positive cones) and the box radius
# (non-positive cones).
HB_DEGREE = {1: 40, 2: 14, 3: 10, 4: 9, 5: 8, 6: 9, 7: 6}
BOX = {1: 12, 2: 6, 3: 4, 4: 3}
HILBERT_BASIS_BUDGET = 200_000


def _collect(errors, name, fn, *args):
    try:
        fn(*args)
    except CheckError as exc:
        errors.append(f"{name}: {exc}")


class ConeFacts:
    """What the oracles know about one semigroup, built from its generators."""

    def __init__(self, gens, weight=None):
        self.gens = [tuple(g) for g in gens]
        self.dim = len(self.gens[0])
        self.positive = all(x >= 0 for g in self.gens for x in g)
        self.weight = tuple(weight) if weight else (1,) * self.dim
        self.lattice = oracles.IntLattice(self.gens, self.dim)
        self.rank = oracles.rank(self.gens)
        self.member = oracles.member_oracle(self.gens, self.weight)
        self._normals = None
        self.saturation = None

    @property
    def normals(self):
        """Facet normals; full-rank cones only (brute force, small cones)."""
        if self._normals is None:
            self._normals = list(oracles.brute_facets(self.gens))
        return self._normals

    def use_normals(self, normals):
        """Adopt a facet list that has passed check_facets."""
        self._normals = [tuple(n) for n in normals]

    def cone_points(self, degree):
        return oracles.cone_points(self.normals, self.lattice, self.dim, degree,
                                   self.positive, BOX.get(self.dim))


def check_hilbert_basis(cf, hb):
    hb = [tuple(h) for h in hb]
    require(len(set(hb)) == len(hb), "repeated Hilbert-basis element")
    for h in hb:
        require(any(h), "zero in the Hilbert basis")
        require(cf.lattice.contains(h), f"Hilbert-basis element {h} is outside the group")
        require(oracles.in_cone(cf.normals, h), f"Hilbert-basis element {h} is outside the cone")
    for h in hb:
        for b in hb:
            if b != h:
                rest = tuple(x - y for x, y in zip(h, b))
                require(not (oracles.in_cone(cf.normals, rest) and cf.lattice.contains(rest)),
                        f"Hilbert-basis element {h} splits as {b} + {rest}")
    generated = oracles.member_oracle(hb, cf.weight) if hb else (lambda x: not any(x))
    for g in cf.gens:
        require(generated(g), f"generator {g} is not a sum of Hilbert-basis elements")
    for x in cf.cone_points(HB_DEGREE[cf.dim]):
        require(generated(x), f"cone point {x} is not a sum of Hilbert-basis elements")


def check_normality(cf, normal, hb, witness_g, witness_p):
    check_hilbert_basis(cf, hb)
    in_s = all(cf.member(h) for h in hb)
    require(bool(normal) == in_s, f"normal = {normal} but Hilbert basis in S is {in_s}")
    if not normal:
        g = tuple(witness_g)
        require(cf.lattice.contains(g), "normality witness is outside the group")
        require(not cf.member(g), "normality witness lies in S")
        require(witness_p >= 2 and cf.member(tuple(witness_p * x for x in g)),
                "p times the normality witness is not in S")


def check_gorenstein(cf, answer, witness, hb, poset=None):
    """Hibi's purity criterion for Hibi rings; otherwise the interior ideal.

    S normal is Gorenstein iff its interior points are c + S for one c.
    The minimal interior points of a cone generated in one degree have at
    most d Hilbert-basis summands, so sums of up to d basis elements hold
    every minimal interior point: "yes" needs the witness to be the only
    one, "no" needs two of them.
    """
    if poset is not None:
        want = "yes" if posets.is_pure(poset) else "no"
        require(answer == want, f"as_gorenstein = {answer}, Hibi's criterion says {want}")
        return
    hb = [tuple(h) for h in hb]

    def interior(x):
        return all(oracles.dot(n, x) > 0 for n in cf.normals) and cf.lattice.contains(x)

    layer = {(0,) * cf.dim}
    points = set()
    for _ in range(cf.dim):
        layer = {tuple(a + b for a, b in zip(x, h)) for x in layer for h in hb}
        points |= layer
    minimal = sorted(x for x in points if interior(x) and not any(
        interior(tuple(a - b for a, b in zip(x, h))) for h in hb))
    if answer == "yes":
        require(witness is not None and minimal == [tuple(witness)],
                f"Gorenstein witness {witness}, minimal interior points {minimal}")
    else:
        require(answer == "no" and len(minimal) >= 2,
                f"as_gorenstein = {answer}, minimal interior points {minimal}")


def check_regularity(cf, rep, hb, poset=None):
    """rep: dict of the report fields; hb: verified saturation Hilbert basis."""
    require(rep["rank"] == cf.rank, "wrong rank")
    require(rep["balanced_dualizing_complex"] is True, "balanced dualizing complex missing")
    normal = all(cf.member(tuple(h)) for h in hb)
    require(rep["normal"] == normal, f"normal = {rep['normal']}, oracle says {normal}")
    if not normal:
        require(rep["as_cohen_macaulay"] == "inapplicable"
                and rep["as_gorenstein"] == "inapplicable", "criteria applied to non-normal S")
        require(rep["as_regular"] is False and rep["maximal_order"] is False,
                "non-normal S reported regular or a maximal order")
        g, p = rep["witness"]
        check_normality(cf, False, hb, g, p)
        return
    require(rep["as_cohen_macaulay"] == "yes", "normal S is Cohen-Macaulay (Hochster)")
    require(rep["maximal_order"] is True, "normal S is a maximal order")
    regular = len(hb) == cf.rank and abs(oracles.det(
        [list(h) for h in hb])) == cf.lattice.index() if cf.rank == cf.dim else None
    if regular is not None:
        require(rep["as_regular"] == regular, f"as_regular = {rep['as_regular']}")
    if poset is not None:
        require(rep["as_regular"] == posets.is_chain(poset), "Hibi ring regular iff P is a chain")
    check_gorenstein(cf, rep["as_gorenstein"], rep["gorenstein_witness"], hb, poset)


def check_hilbert_function(cf, counts, degree):
    require(len(counts) == degree + 1, "wrong number of Hilbert-function values")
    for k in range(degree + 1):
        want = sum(1 for x in oracles.compositions(k, cf.dim) if cf.member(x))
        require(counts[k] == want, f"H({k}) = {counts[k]}, oracle counts {want}")


def check_decomposition(cf, verified, bound, parts):
    """parts: (normal, units, transversal, positive, auxiliary) per facet."""
    require(verified == bound, "wrong verified degree")
    require(sorted(tuple(p[0]) for p in parts) == sorted(cf.normals),
            "facet semigroups do not match the facets")
    d = cf.dim
    for normal, units, transversal, positive, auxiliary in parts:
        require(oracles.dot(normal, transversal) == 1, "transversal does not pair to 1")
        require(len(units) == d - 1 and all(oracles.dot(normal, u) == 0 for u in units),
                "unit basis is not in the facet hyperplane")
        require(abs(oracles.det([list(u) for u in units] + [list(transversal)])) == 1,
                "units and transversal are not a basis of Z^d")
        want_pos = [g for g in cf.gens if oracles.dot(normal, g) > 0]
        require(sorted(map(tuple, positive)) == sorted(want_pos), "wrong positive generators")
        incident = [g for g in cf.gens if oracles.dot(normal, g) == 0]
        inc_lat = oracles.IntLattice(incident, d)
        generated = inc_lat.rank == d - 1 and all(inc_lat.contains(u) for u in units)
        require(auxiliary == (not generated),
                f"auxiliary_basis = {auxiliary} but incident generators generate the "
                f"hyperplane lattice: {generated}")
    for total in range(bound + 1):
        for x in oracles.compositions(total, d):
            require(cf.member(x) == oracles.in_cone(cf.normals, x),
                    f"S and the intersection of facet semigroups differ at {x}")


def refusal_text(exc):
    """'refused:<exception chain>:<message>' of a refused operation."""
    chain = []
    e = exc
    while e is not None:
        chain.append(type(e).__name__)
        e = e.__cause__ or e.__context__
    return "refused:" + ">".join(chain) + ":" + str(exc)


def decomposition_data(dec):
    """(verified degree, [(normal, units, transversal, positive, auxiliary)])."""
    return (dec.verified_to_degree, [
        (tuple(fs.inner_normal), tuple(map(tuple, fs.unit_basis)), tuple(fs.transversal),
         tuple(map(tuple, fs.positive_generators)), fs.used_auxiliary_basis)
        for fs in dec.facet_semigroups])


def check_refusal(cf, refusal):
    """A normality refusal must be the size limit of the Hilbert-basis step."""
    require("SizeLimitError" in refusal.split(":", 2)[1], f"unexpected refusal {refusal}")
    rays = sorted({oracles.primitive(g) for g in cf.gens})
    total = 0
    index = cf.lattice.index()
    for sub in itertools.combinations(rays, cf.dim):
        total += abs(oracles.det([list(r) for r in sub])) // index
        if total > HILBERT_BASIS_BUDGET:
            return
    raise CheckError("refused although the parallelepiped budget is not exceeded")


# -- cone-ladder -------------------------------------------------------------------

def check_cone_ladder(spec, done):
    errors = []
    facts = [ConeFacts(c["gens"]) for c in spec["cones"]]
    by_cone = {}
    for op, payload in done:
        by_cone.setdefault(op.meta["cone"], {})[op.name.split(":")[1]] = payload
    for i, cone in enumerate(spec["cones"]):
        cf = facts[i]
        got = by_cone.get(i, {})
        name = cone["name"]
        poset = None
        if cone["poset"] is not None:
            poset = (cone["poset"][0], tuple(tuple(r) for r in cone["poset"][1]))
        rng = random.Random(f"check/{spec['seed']}/{name}")
        facets_ok = False
        if "facets" in got:
            try:
                oracles.check_facets(cf.gens, got["facets"], rng)
                cf.use_normals([n for n, _ in got["facets"]])
                facets_ok = True
            except CheckError as exc:
                errors.append(f"{name}:facets: {exc}")
        if not facets_ok:
            continue
        hb = None
        if "normality" in got:
            cert = got["normality"]
            if isinstance(cert, Exception):
                _collect(errors, f"{name}:normality", check_refusal, cf, refusal_text(cert))
            else:
                hb = cert.saturation_hilbert_basis
                _collect(errors, f"{name}:normality", check_normality, cf, cert.normal, hb,
                         cert.witness_g, cert.witness_p)
        if "regularity" in got and hb is not None:
            rep = got["regularity"]
            fields = {"rank": rep.rank, "normal": rep.normal,
                      "balanced_dualizing_complex": rep.has_balanced_dualizing_complex,
                      "as_cohen_macaulay": rep.as_cohen_macaulay,
                      "as_gorenstein": rep.as_gorenstein,
                      "gorenstein_witness": rep.gorenstein_witness,
                      "as_regular": rep.as_regular, "maximal_order": rep.maximal_order,
                      "witness": rep.normality_witness}
            _collect(errors, f"{name}:regularity", check_regularity, cf, fields, hb, poset)
        if "hilbert_function" in got:
            _collect(errors, f"{name}:hilbert_function", check_hilbert_function, cf,
                     got["hilbert_function"], spec["hf_degree"])
        if "decompose" in got:
            verified, parts = decomposition_data(got["decompose"])
            _collect(errors, f"{name}:decompose", check_decomposition, cf, verified,
                     spec["decompose_bound"], parts)
    return errors


# -- lattice-straighten ------------------------------------------------------------

def lattice_context(spec_lattice, built):
    """LatticeFacts of a spec lattice plus the program's coordinates, checked."""
    facts = oracles.LatticeFacts(spec_lattice["labels"], spec_lattice["covers"])
    ids = built["ids"]
    sg = built["sg"]
    inverse = {pid: i for i, pid in enumerate(ids)}
    require(sorted(inverse) == list(range(len(ids))), "labels do not match the lattice")
    order = [inverse[p] for p in sg.birkhoff.irreducibles]
    vectors = {inverse[pid]: tuple(v) for pid, v in sg.vector_of.items()}
    facts.check_coordinates(order, vectors)
    return facts, order, vectors


def check_lattice_straighten(spec, ctx, done):
    errors = []
    params = spec["params"]
    per_lattice = {}
    for op, payload in done:
        per_lattice.setdefault(op.meta["lattice"], []).append((op, payload))
    for i, lat in enumerate(spec["lattices"]):
        built = ctx["lattices"][i]
        try:
            facts, order, vectors = lattice_context(lat, built)
        except CheckError as exc:
            errors.append(f"L{i}: {exc}")
            continue
        dim = lat["dim"]
        quad = [[[Fraction(x) for x in row] for row in m] for m in lat["quad"]] \
            if lat["quad"] is not None else None
        form = oracles.CocycleForm(dim, params, lat["bichar"], quad)
        inverse = {pid: k for k, pid in enumerate(built["ids"])}
        for op, payload in per_lattice.get(i, []):
            kind = op.name.split(":")[1]
            try:
                if kind == "straighten":
                    word = lat["words"][op.meta["word"]]
                    scalar_text, chain = payload
                    chain = [inverse[a] for a in chain]
                    facts.check_standard(word, chain, op.name)
                    want = oracles.sub(form.chain_exponents([vectors[a] for a in word]),
                                       form.chain_exponents([vectors[a] for a in chain]))
                    oracles.check_scalar(oracles.parse_scalar(scalar_text), want, op.name)
                elif kind == "twisting_system":
                    check_twisting_system(payload, built["alpha"], form, vectors, dim,
                                          random.Random(f"check/{spec['seed']}/{op.name}"))
                else:
                    member = oracles.member_oracle(list(vectors.values()))
                    check_torus(payload, form, member, dim,
                                [tuple(v) for v in built["sg"].semigroup.generators])
            except CheckError as exc:
                errors.append(f"{op.name}: {exc}")
    return errors


def check_twisting_system(system, alpha, form, vectors, dim, rng):
    require(system.cocycle is alpha and system.dim == dim, "twisting system of another cocycle")
    from qtoric import TwistedElement
    vecs = list(vectors.values())
    for _ in range(3):
        s = [sum(x) for x in zip(*rng.choices(vecs, k=2))]
        t = [sum(x) for x in zip(*rng.choices(vecs, k=2))]
        image = system.apply(tuple(t), TwistedElement({tuple(s): 1}))
        scalar, vec = oracles.parse_monomial_element(str(image))
        require(vec == tuple(s), "tau_t moved the monomial")
        oracles.check_scalar(scalar, form.exponents(s, t), "tau_t(X^s)")


def torus_expectations(form, pairs, dim):
    """Closed forms of Y_i, q_matrix and the generator scalars of an embedding."""
    c = form.forms
    ys = []
    for i, (_, t) in enumerate(pairs):
        ys.append({p: -sum(ck[i][j] * t[j] for j in range(dim)) for p, ck in zip(form.params, c)})
    qm = [[{p: ck[i][j] - ck[j][i] for p, ck in zip(form.params, c)} for j in range(dim)]
          for i in range(dim)]

    def gen_scalar(g):
        out = {}
        for p, ck in zip(form.params, c):
            e = sum(g[i] * ys[i][p] + ck[i][i] * g[i] * (g[i] - 1) / 2 for i in range(dim))
            e += sum(g[j] * g[i] * ck[j][i] for i in range(dim) for j in range(i))
            out[p] = -Fraction(e)
        return out

    return ys, qm, gen_scalar


def check_torus_data(pairs, y_texts, q_texts, gen_texts, form, member, dim):
    """pairs: (s_i, t_i); y_texts[i], q_texts[i][j], gen_texts[g]: printed forms."""
    require(len(pairs) == dim, "one pair per coordinate expected")
    for i, (s, t) in enumerate(pairs):
        require(tuple(a - b for a, b in zip(s, t)) == tuple(int(i == j) for j in range(dim)),
                f"pair {i} does not differ by e_{i}")
        require(member(tuple(s)) and member(tuple(t)), f"pair {i} leaves the semigroup")
    ys, qm, gen_scalar = torus_expectations(form, pairs, dim)
    for i, text in enumerate(y_texts):
        scalar, vec = oracles.parse_monomial_element(text)
        require(vec == tuple(int(i == j) for j in range(dim)), f"Y_{i} has the wrong exponent")
        oracles.check_scalar(scalar, ys[i], f"Y_{i}")
    for i, row in enumerate(q_texts):
        for j, text in enumerate(row):
            oracles.check_scalar(oracles.parse_scalar(text), qm[i][j], f"q[{i}][{j}]")
    for g, text in gen_texts.items():
        oracles.check_scalar(oracles.parse_scalar(text), gen_scalar(g), f"scalar of X^{list(g)}")


def check_torus(emb, form, member, dim, gens):
    check_torus_data(emb.pairs, [str(y) for y in emb.y_monomials],
                     [[str(x) for x in row] for row in emb.q_matrix],
                     {g: str(emb.generator_scalars[g]) for g in gens}, form, member, dim)


# -- cli-session -------------------------------------------------------------------

def _flag(text):
    require(text in ("true", "false"), f"not a boolean: {text!r}")
    return text == "true"


class CliOracle:
    """Checks CLI reports against a model file read by oracles.parse_model_text."""

    DEFAULT_BOUND = 6  # the CLI's bound without --bound, QTORIC_BOUND or a bound line

    def __init__(self, model_bytes, weights=None):
        self.digest = hashlib.sha256(model_bytes).hexdigest()
        self.model = oracles.parse_model_text(model_bytes.decode("utf-8"))
        weights = weights or {}
        self.cones = {name: ConeFacts(g, weights.get(name))
                      for name, g in self.model["semigroup"].items()}
        self.lattice_coords = {}

    def bound(self, argv):
        if "--bound" in argv:
            return int(argv[argv.index("--bound") + 1])
        return self.model["bound"] if self.model["bound"] is not None else self.DEFAULT_BOUND

    def check_all(self, runs):
        """runs: list of (argv, exit code, stdout, stderr)."""
        errors = []
        seen = {}
        for argv, code, out, err in runs:
            key = tuple(argv)
            if key in seen and seen[key] != out:
                errors.append(f"{argv[0]} {argv[1]}: repeated command printed another report")
            seen[key] = out
        ordered = sorted(runs, key=lambda r: r[0][0] != "lattice")
        for argv, code, out, err in ordered:
            try:
                require(code == 0 and err == "", f"exit {code}, stderr {err.strip()!r}")
                self.check(argv, oracles.parse_report(out.rstrip("\n")))
            except CheckError as exc:
                errors.append(f"{' '.join(argv[:2])}: {exc}")
            except (KeyError, ValueError, IndexError) as exc:
                errors.append(f"{' '.join(argv[:2])}: malformed report ({exc!r})")
        return errors

    def check(self, argv, rep):
        cmd = argv[0]
        require(rep.pop("command") == cmd, "wrong command header")
        require(rep.pop("model_sha256") == self.digest, "model_sha256 is not the model digest")
        getattr(self, "_" + cmd.replace("-", "_"))(argv, rep)

    def _semigroup(self, rep, name):
        require(rep.pop("semigroup") == name, "wrong semigroup echo")
        return self.cones[name]

    def _analyze(self, argv, rep):
        cf = self._semigroup(rep, argv[1])
        require(oracles.parse_vec(rep.pop("generators")) == tuple(map(list, cf.gens)),
                "wrong generators")
        require(int(rep.pop("ambient_dim")) == cf.dim, "wrong ambient_dim")
        require(int(rep.pop("rank")) == cf.rank, "wrong rank")
        full = cf.lattice.is_full()
        require(_flag(rep.pop("full")) == full, "wrong full flag")
        require(_flag(rep.pop("positive")) == cf.positive, "wrong positive flag")
        require(all(oracles.dot(cf.weight, g) > 0 for g in cf.gens), "no pointedness certificate")
        require(_flag(rep.pop("pointed")) is True, "pointed semigroup reported not pointed")
        normal = _flag(rep.pop("normal"))
        if not normal:
            g = oracles.parse_vec(rep.pop("witness_g"))
            p = int(rep.pop("witness_p"))
            require(cf.lattice.contains(g) and not cf.member(g) and p >= 2
                    and cf.member(tuple(p * x for x in g)), "bad normality witness")
        else:
            for x in cf.cone_points(HB_DEGREE[cf.dim]):
                require(cf.member(x), f"normal claimed but cone point {x} is not in S")
        if full:
            require(int(rep.pop("facet_count")) == len(cf.normals), "wrong facet_count")
        if cf.positive:
            bound = self.bound(argv)
            counts = list(oracles.parse_vec(rep.pop("hilbert_function")))
            check_hilbert_function(cf, counts, bound)
            require(int(rep.pop("hilbert_bound")) == bound, "wrong hilbert_bound")
        require(not rep, f"unexpected keys {sorted(rep)}")

    def _normal(self, argv, rep):
        cf = self._semigroup(rep, argv[1])
        normal = _flag(rep.pop("normal"))
        hb = oracles.parse_vec(rep.pop("saturation_hilbert_basis"))
        g = oracles.parse_vec(rep.pop("witness_g")) if not normal else None
        p = int(rep.pop("witness_p")) if not normal else None
        check_normality(cf, normal, hb, g, p)
        require(not rep, f"unexpected keys {sorted(rep)}")

    def _facets(self, argv, rep):
        cf = self._semigroup(rep, argv[1])
        count = int(rep.pop("facet_count"))
        facets = [(oracles.parse_vec(rep.pop(f"facet_{i}_normal")),
                   oracles.parse_vec(rep.pop(f"facet_{i}_incident"))) for i in range(count)]
        oracles.check_facets(cf.gens, facets, random.Random(f"check/{' '.join(argv)}"))
        require(not rep, f"unexpected keys {sorted(rep)}")

    def _decompose(self, argv, rep):
        cf = self._semigroup(rep, argv[1])
        count = int(rep.pop("facet_count"))
        verified = int(rep.pop("verified_degree"))
        parts = []
        for i in range(count):
            parts.append((oracles.parse_vec(rep.pop(f"facet_{i}_normal")),
                          oracles.parse_vec(rep.pop(f"facet_{i}_units")),
                          oracles.parse_vec(rep.pop(f"facet_{i}_transversal")),
                          oracles.parse_vec(rep.pop(f"facet_{i}_positive")),
                          _flag(rep.pop(f"facet_{i}_auxiliary_basis"))))
        check_decomposition(cf, verified, self.bound(argv), parts)
        require(not rep, f"unexpected keys {sorted(rep)}")

    def _regularity(self, argv, rep):
        cf = self._semigroup(rep, argv[1])
        normal = _flag(rep.pop("normal"))
        witness = None
        if "witness_g" in rep:
            witness = (oracles.parse_vec(rep.pop("witness_g")), int(rep.pop("witness_p")))
        fields = {"normal": normal, "witness": witness,
                  "as_cohen_macaulay": rep.pop("as_cohen_macaulay"),
                  "as_gorenstein": rep.pop("as_gorenstein"),
                  "gorenstein_witness": (oracles.parse_vec(rep.pop("gorenstein_witness"))
                                         if "gorenstein_witness" in rep else None),
                  "as_regular": _flag(rep.pop("as_regular")),
                  "maximal_order": _flag(rep.pop("maximal_order")),
                  "balanced_dualizing_complex": _flag(rep.pop("balanced_dualizing_complex")),
                  "rank": int(rep.pop("rank"))}
        hb = self._saturation(cf)
        check_regularity(cf, fields, hb)
        require(not rep, f"unexpected keys {sorted(rep)}")

    def _saturation(self, cf):
        """Hilbert basis of cone and group: the irreducible bounded cone points."""
        if cf.saturation is None:
            pts = cf.cone_points(HB_DEGREE[cf.dim])
            pset = set(pts)
            cf.saturation = [x for x in pts if not any(
                tuple(a - b for a, b in zip(x, y)) in pset for y in pts if y != x)]
        return cf.saturation

    def _embed_torus(self, argv, rep):
        cf = self._semigroup(rep, argv[1])
        form = self._cocycle(rep, argv[2])
        d = cf.dim
        pairs = [oracles.parse_vec(rep.pop(f"pair_{i}")) for i in range(d)]
        ys = [rep.pop(f"y_{i}") for i in range(d)]
        qs = [_split_top(rep.pop(f"q_{i}")) for i in range(d)]
        gens = {g: rep.pop(f"generator_{j}_scalar") for j, g in enumerate(cf.gens)}
        check_torus_data([(tuple(s), tuple(t)) for s, t in pairs], ys, qs, gens, form,
                         cf.member, d)
        require(not rep, f"unexpected keys {sorted(rep)}")

    def _cocycle(self, rep, name, key="cocycle"):
        require(rep.pop(key) == name, "wrong cocycle echo")
        return self.model["cocycle"][name]

    def _twist_check(self, argv, rep):
        self._semigroup(rep, argv[1])
        self._cocycle(rep, argv[2])
        bound = self.bound(argv)
        require(int(rep.pop("axiom_verified_degree")) == min(bound, 3), "wrong axiom degree")
        require(int(rep.pop("product_verified_degree")) == bound, "wrong product degree")
        # closed-form cocycles satisfy the cocycle identity, so the system exists
        require(rep.pop("twisting_system") == "ok", "twisting system not ok")
        require(not rep, f"unexpected keys {sorted(rep)}")

    def _cohomologous(self, argv, rep):
        a = self._cocycle(rep, argv[1], "first")
        b = self._cocycle(rep, argv[2], "second")
        same = all(a.skew(k) == b.skew(k) for k in range(len(a.params)))
        require(_flag(rep.pop("cohomologous")) == same, "wrong cohomology verdict")
        if same:
            if "witness" in rep:
                require(rep.pop("witness") == "trivial" and all(
                    fa == fb for fa, fb in zip(a.forms, b.forms)), "trivial witness is wrong")
            for k, p in enumerate(a.params):
                w = rep.pop(f"witness_quad:{p}", None)
                w = oracles.parse_value(w) if w is not None else [[0] * a.dim] * a.dim
                for i in range(a.dim):
                    for j in range(a.dim):
                        require(Fraction(w[i][j]) + Fraction(w[j][i])
                                == b.forms[k][i][j] - a.forms[k][i][j],
                                "witness is not the coboundary between the cocycles")
        else:
            u, v = (tuple(x) for x in oracles.parse_vec(rep.pop("distinguishing_pair")))

            def ratio(form):
                return oracles.sub(form.exponents(u, v), form.exponents(v, u))

            require(ratio(a) != ratio(b), "distinguishing pair does not distinguish")
            oracles.check_scalar(oracles.parse_scalar(rep.pop("first_ratio")), ratio(a),
                                 "first_ratio")
            oracles.check_scalar(oracles.parse_scalar(rep.pop("second_ratio")), ratio(b),
                                 "second_ratio")
        require(not rep, f"unexpected keys {sorted(rep)}")

    def _multiply(self, argv, rep):
        cf = self._semigroup(rep, argv[1])
        form = self._cocycle(rep, argv[2])
        left = tuple(int(x) for x in argv[3].split(","))
        right = tuple(int(x) for x in argv[4].split(","))
        require(oracles.parse_vec(rep.pop("left")) == left, "wrong left echo")
        require(oracles.parse_vec(rep.pop("right")) == right, "wrong right echo")
        require(cf.member(left) and cf.member(right), "operand outside the semigroup")
        scalar, vec = oracles.parse_monomial_element(rep.pop("product"))
        require(vec == tuple(a + b for a, b in zip(left, right)), "wrong product exponent")
        oracles.check_scalar(scalar, form.exponents(left, right), "product scalar")
        require(not rep, f"unexpected keys {sorted(rep)}")

    def _lattice(self, argv, rep):
        name = argv[1]
        facts = self.model["lattice"][name]
        require(rep.pop("lattice") == name, "wrong lattice echo")
        cocycle = argv[argv.index("--cocycle") + 1] if "--cocycle" in argv else "trivial"
        require(rep.pop("cocycle") == cocycle, "wrong cocycle echo")
        require(oracles.parse_labels(rep.pop("elements")) == facts.labels, "wrong elements")
        order = [facts.index_of(x) for x in oracles.parse_labels(rep.pop("irreducibles"))]
        require(int(rep.pop("ambient_dim")) == len(facts.irreducibles) + 1, "wrong ambient_dim")
        vectors = {a: oracles.parse_vec(rep.pop(f"vector_{label}"))
                   for a, label in enumerate(facts.labels)}
        facts.check_coordinates(order, vectors)
        self.lattice_coords[name] = vectors
        require(_flag(rep.pop("normal")) is True, "Hibi rings are normal")
        require(rep.pop("as_cohen_macaulay") == "yes", "Hibi rings are Cohen-Macaulay")
        want = "yes" if posets.is_pure(facts.poset) else "no"
        require(rep.pop("as_gorenstein") == want, f"Hibi's criterion says {want}")
        require(_flag(rep.pop("as_regular")) == posets.is_chain(facts.poset),
                "Hibi ring regular iff the poset is a chain")
        require(_flag(rep.pop("maximal_order")) is True, "normal S is a maximal order")
        require(not rep, f"unexpected keys {sorted(rep)}")

    def _straighten(self, argv, rep):
        name = argv[1]
        facts = self.model["lattice"][name]
        require(rep.pop("lattice") == name, "wrong lattice echo")
        form = self._cocycle(rep, argv[2])
        word = [facts.index_of(x) for x in argv[3].split(",") if x]
        require(oracles.parse_labels(rep.pop("word")) == [facts.labels[a] for a in word],
                "wrong word echo")
        chain = [facts.index_of(x) for x in oracles.parse_labels(rep.pop("standard"))]
        facts.check_standard(word, chain, "straighten")
        vectors = self.lattice_coords.get(name)
        require(vectors is not None, "no verified lattice report for the coordinates")
        want = oracles.sub(form.chain_exponents([vectors[a] for a in word]),
                           form.chain_exponents([vectors[a] for a in chain]))
        oracles.check_scalar(oracles.parse_scalar(rep.pop("scalar")), want, "scalar")
        total = [sum(x) for x in zip(*([vectors[a] for a in chain] or [[0] * form.dim]))]
        require(list(oracles.parse_vec(rep.pop("standard_vector"))) == total,
                "wrong standard_vector")
        require(not rep, f"unexpected keys {sorted(rep)}")


def _split_top(text):
    body = text.strip()[1:-1]
    return [x for x in body.split(",")]


def check_cli_session(spec, done):
    with open(spec["model"], "rb") as fh:
        model = fh.read()
    errors = []
    if hashlib.sha256(model).hexdigest() != spec["model_sha256"]:
        errors.append("model file changed during the run")
    oracle = CliOracle(model, spec["weights"])
    runs = [(spec["commands"][op.meta["command"]]["argv"],) + tuple(payload)
            for op, payload in done]
    return errors + oracle.check_all(runs)
