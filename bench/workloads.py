"""The benchmark's workloads: seeded inputs, program objects and operations.

``make_spec(seed, run_dir)`` runs in the parent and never imports the
program; it returns a JSON-able description of the inputs (and writes the
model file of ``cli-session``).  ``build(spec)`` runs in a fresh child
interpreter after ``import qtoric`` and is part of the measured set-up.
``operations(ctx)`` lists the closed-loop operation list of one round; each
operation returns ``(canonical text, payload)`` where the text feeds the
output digest and the payload feeds the checks in ``checks.py``.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import checks
import oracles
import posets


class Op:
    __slots__ = ("name", "fn", "expect_fail", "meta")

    def __init__(self, name, fn, expect_fail=False, meta=None):
        self.name = name
        self.fn = fn
        self.expect_fail = expect_fail
        self.meta = meta or {}


def _rng(workload, seed, part=""):
    return random.Random(f"{workload}/{seed}/{part}")


def _perm_coords(gens, perm):
    return [[g[perm[i]] for i in range(len(perm))] for g in gens]


# Cocycle entries are nonzero: evaluation skips zero terms, so zeros would
# make the cost of an operation depend on the seed.
NONZERO = (-2, -1, 1, 2)


def _halves(rng, dim):
    return [[Fraction(rng.choice(NONZERO), 2) for _ in range(dim)] for _ in range(dim)]


def _ints(rng, dim, values=NONZERO):
    return [[rng.choice(values) for _ in range(dim)] for _ in range(dim)]


def _half_vector(rng, dim):
    return [Fraction(rng.choice(NONZERO), 2) for _ in range(dim)]


def _frac_json(m):
    return [[str(x) for x in row] for row in m] if m is not None else None


def _unjson_frac(m):
    return [[Fraction(x) for x in row] for row in m] if m is not None else None


def _ideal_label(ideal, prefix):
    return prefix + "".join(str(e) for e in sorted(ideal))


# =============================================================================
# cone-ladder
# =============================================================================

# (name, dim, generator count, construction, generation key).  The ladder
# cones are fixed; --seed only permutes coordinates, which keeps every
# determinant, every subset count and so the work of each operation.  The
# d = 4 and d = 5 rungs are height-one 0/1 configurations chosen normal so
# that decompose runs its verification; d = 6 and d = 7 are random cones
# with entries 0..2, and the d = 7 rung exceeds the 200,000-point
# parallelepiped budget of hilbert_basis.
LADDER = [("d4", 4, 8, "height1", 0), ("d5", 5, 12, "height1", 0),
          ("d6", 6, 14, "box2", 0), ("d7", 7, 16, "box2", 0)]
# A round runs every operation CONE_REPEATS times, each time on a freshly
# built semigroup, so that each short operation has several samples; the
# operations listed here take seconds and run once (regularity_report on d=6
# would otherwise redo the normality computation of its fresh copy).
CONE_REPEATS = 3
RUN_ONCE = {"d5": ("decompose",), "d6": ("normality", "regularity"), "d7": ("normality",)}
# Hibi rings of 5-element posets are sampled one per ideal count, so every
# seed draws the same mix of cone sizes (the cost of an operation is set by
# the generator count).
HIBI_STRATA = (7, 9, 11, 13, 15, 17)
CONE_HF_DEGREE = 6
CONE_DECOMPOSE_BOUND = 6


def ladder_generators(dim, count, kind, key):
    rng = random.Random(f"cone-ladder/ladder/{dim}/{count}/{kind}/{key}")
    while True:
        gens = set()
        while len(gens) < count:
            if kind == "height1":
                g = (1,) + tuple(rng.randint(0, 1) for _ in range(dim - 1))
            else:
                g = tuple(rng.randint(0, 2) for _ in range(dim))
            if any(g):
                gens.add(g)
        gens = sorted(gens)
        if oracles.rank(gens) == dim:
            return [list(g) for g in gens]


def _hibi_candidates():
    by_count = {}
    for p in posets.unlabeled_posets(5):
        by_count.setdefault(len(posets.down_sets(p)), []).append(p)
    return by_count


def cone_spec(seed):
    rng = _rng("cone-ladder", seed)
    cones = []
    for name, dim, count, kind, key in LADDER:
        perm = list(range(dim))
        rng.shuffle(perm)
        gens = _perm_coords(ladder_generators(dim, count, kind, key), perm)
        cones.append({"name": name, "gens": gens, "poset": None,
                      "regularity": dim < 7, "decompose": dim <= 5,
                      "once": list(RUN_ONCE.get(name, ()))})
    by_count = _hibi_candidates()
    for n_ideals in HIBI_STRATA:
        poset = rng.choice(by_count[n_ideals])
        perm = list(range(5))
        rng.shuffle(perm)
        poset = posets.relabel(poset, perm)
        gens = [[1] + [int(e in ideal) for e in range(5)] for ideal in posets.down_sets(poset)]
        cones.append({"name": f"hibi{n_ideals}", "gens": gens,
                      "poset": [poset[0], [list(r) for r in poset[1]]],
                      "regularity": True, "decompose": False, "once": []})
    return {"workload": "cone-ladder", "seed": seed, "cones": cones, "repeats": CONE_REPEATS,
            "hf_degree": CONE_HF_DEGREE, "decompose_bound": CONE_DECOMPOSE_BOUND}


def cone_build(spec):
    import qtoric
    return {"spec": spec, "qtoric": qtoric,
            "semigroups": [[qtoric.AffineSemigroup(c["gens"]) for _ in range(spec["repeats"])]
                           for c in spec["cones"]]}


def cone_operations(ctx):
    q = ctx["qtoric"]
    spec = ctx["spec"]

    def facets(s):
        found = q.cone_facets(s.cone)
        data = [(tuple(f.inner_normal), tuple(sorted(f.incident))) for f in found]
        return repr(data), data

    def normality(s):
        try:
            cert = s.normality()
        except q.PreconditionError as exc:
            return checks.refusal_text(exc), exc
        return repr((cert.normal, cert.saturation_hilbert_basis, cert.witness_g,
                     cert.witness_p)), cert

    def regularity(s):
        rep = q.regularity_report(s)
        return repr(rep), rep

    def hilbert_function(s):
        counts = q.hilbert_function(s, spec["hf_degree"])
        return repr(counts), counts

    def decompose(s):
        dec = q.decompose(s, spec["decompose_bound"])
        return repr(checks.decomposition_data(dec)), dec

    ops = []
    for rep in range(spec["repeats"]):
        for i, cone in enumerate(spec["cones"]):
            kinds = [facets, normality] + ([regularity] if cone["regularity"] else []) \
                + [hilbert_function] + ([decompose] if cone["decompose"] else [])
            s = ctx["semigroups"][i][rep]
            for kind in kinds:
                if rep and kind.__name__ in cone["once"]:
                    continue
                ops.append(Op(f"{cone['name']}:{kind.__name__}",
                              lambda kind=kind, s=s: kind(s), meta={"cone": i}))
    return ops


# =============================================================================
# lattice-straighten
# =============================================================================

WORDS_PER_LENGTH = 8
MAX_WORD_LENGTH = 6
LATTICE_PARAMS = ("q", "r")


def lattice_spec(seed):
    rng = _rng("lattice-straighten", seed)
    lattices = []
    for n in range(5):
        for poset in posets.unlabeled_posets(n):
            perm = list(range(n))
            rng.shuffle(perm)
            poset = posets.relabel(poset, perm)
            ideals = posets.down_sets(poset)
            labels = [_ideal_label(i, "I") for i in ideals]
            covers = [(labels[a], labels[b]) for a, b in posets.lattice_covers(ideals)]
            lattices.append({"kind": "ideal", "poset": [poset[0], [list(r) for r in poset[1]]],
                             "labels": labels, "covers": covers})
    named = [(["bot", "x", "y", "top"], [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")])]
    for k in range(2, 6):
        labels = [f"c{i}" for i in range(k)]
        named.append((labels, [(labels[i], labels[i + 1]) for i in range(k - 1)]))
    for labels, covers in named:
        lattices.append({"kind": "covers", "poset": None, "labels": labels, "covers": covers})
    for i, lat in enumerate(lattices):
        facts = oracles.LatticeFacts(lat["labels"], lat["covers"])
        dim = len(facts.irreducibles) + 1
        lat["dim"] = dim
        lat["bichar"] = [_ints(rng, dim) for _ in LATTICE_PARAMS]
        lat["quad"] = ([_frac_json(_halves(rng, dim)) for _ in LATTICE_PARAMS]
                       if i % 3 == 2 else None)
        lat["lin"] = ([[str(x) for x in _half_vector(rng, dim)] for _ in LATTICE_PARAMS]
                      if i % 3 == 2 else None)
        size = len(lat["labels"])
        lat["words"] = [[rng.randrange(size) for _ in range(length)]
                        for length in range(MAX_WORD_LENGTH + 1)
                        for _ in range(WORDS_PER_LENGTH)]
    return {"workload": "lattice-straighten", "seed": seed, "lattices": lattices,
            "params": list(LATTICE_PARAMS)}


def _program_cocycle(q, dim, params, bichar, quad, lin):
    alpha = q.Cocycle.bicharacter(dim, dict(zip(params, bichar)))
    if quad is not None:
        alpha = alpha.with_coboundary(
            quad={p: _unjson_frac(m) for p, m in zip(params, quad)},
            lin={p: [Fraction(x) for x in v] for p, v in zip(params, lin)})
    return alpha


def lattice_build(spec):
    import qtoric
    built = []
    for lat in spec["lattices"]:
        if lat["kind"] == "ideal":
            n, rels = lat["poset"]
            program_lat = qtoric.ideal_lattice(n, [tuple(r) for r in rels])
        else:
            program_lat = qtoric.DistLattice.from_covers(lat["labels"],
                                                         [tuple(c) for c in lat["covers"]])
        # spec element i is the program element carrying the same label
        ids = [program_lat.index_of(label) for label in lat["labels"]]
        sg = qtoric.straightening_semigroup(program_lat)
        alpha = _program_cocycle(qtoric, lat["dim"], spec["params"], lat["bichar"],
                                 lat["quad"], lat["lin"])
        algebra = qtoric.TwistedAlgebra(sg.semigroup, alpha)
        built.append({"lattice": program_lat, "ids": ids, "sg": sg, "alpha": alpha,
                      "algebra": algebra})
    return {"spec": spec, "qtoric": qtoric, "lattices": built}


def lattice_operations(ctx):
    q = ctx["qtoric"]
    ops = []
    for i, (lat, b) in enumerate(zip(ctx["spec"]["lattices"], ctx["lattices"])):
        for j, word in enumerate(lat["words"]):
            program_word = [b["ids"][a] for a in word]

            def straighten(b=b, program_word=program_word):
                scalar, std = q.straighten(b["sg"], b["alpha"], program_word)
                return f"{scalar}|{std.chain}", (str(scalar), std.chain)

            ops.append(Op(f"L{i}:straighten:{j}", straighten, meta={"lattice": i, "word": j}))

        def twisting(b=b):
            system = b["algebra"].twisting_system()
            return f"twisting:{system.dim}", system

        def torus(b=b):
            emb = b["algebra"].torus_embedding()
            text = repr((emb.pairs, [str(y) for y in emb.y_monomials],
                         [[str(x) for x in row] for row in emb.q_matrix],
                         sorted((g, str(c)) for g, c in emb.generator_scalars.items())))
            return text, emb

        ops.append(Op(f"L{i}:twisting_system", twisting, meta={"lattice": i}))
        ops.append(Op(f"L{i}:torus_embedding", torus, meta={"lattice": i}))
    return ops


# =============================================================================
# cli-session
# =============================================================================

# Semigroups of dimension 1 to 4.  The numerical ones and A1 carry the
# multiply ladder and are the same for every seed, so the operations that
# fail with RecursionError do not depend on --seed.  The others have their
# coordinates permuted by the seed, or are a seeded unimodular image of a
# positive semigroup (non-positive but pointed; ``weight`` is a functional
# positive on their generators, the pointedness certificate).  The letters
# name the commands run on each (see COMMAND_LETTERS).
CLI_SEMIGROUPS = [
    # name, generators, transform, commands
    ("N23", [[2], [3]], None, "anr"),
    ("N5711", [[5], [7], [11]], None, "anr"),
    ("N469", [[4], [6], [9]], None, "anfr"),
    ("A1", [[1, 0], [1, 1], [1, 2]], None, "anfrdet"),
    ("P2n", [[1, 0], [1, 2], [1, 3]], "permute", "anfret"),
    ("P2h", [[2, 0], [1, 1], [0, 2]], "permute", "anrt"),
    ("Q2", [[1, 0], [1, 1], [1, 2]], "unimodular", "anf"),
    ("S3", [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]], "permute", "anfrdet"),
    ("T3b", [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 2, 2]], "permute", "anfret"),
    ("Q3", [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]], "unimodular", "anf"),
    ("S4", [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1]],
     "permute", "anfrdet"),
    ("Q4", [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1]],
     "unimodular", "anf"),
]
COMMAND_LETTERS = {"a": "analyze", "n": "normal", "f": "facets", "r": "regularity",
                   "d": "decompose", "e": "embed-torus", "t": "twist-check"}
COCYCLES_PER_DIM = {1: 2, 2: 6, 3: 6, 4: 6, 5: 6}
# (semigroup, cocycle dimension, left exponents, right exponent).  The left
# operands in FAILING_MULTIPLY need more than 1,000 nested calls of the
# recursive membership search and fail with RecursionError; the others need
# at most 500.
MULTIPLY_LADDER = [
    ("N23", 1, [10, 100, 1000, 3000, 10000], "3"),
    ("N5711", 1, [10, 100, 1000, 3000, 10000], "7"),
    ("A1", 2, [10, 30, 100, 300, 3000, 10000], "1,0"),
]
FAILING_MULTIPLY = {("N23", 3000), ("N23", 10000), ("N5711", 10000),
                    ("A1", 3000), ("A1", 10000)}
CLI_BOUND = 4
CLI_REPEATED = ("analyze", "cohomologous", "lattice", "straighten")


def _unimodular(rng, dim):
    """A seeded unimodular matrix with a negative entry (integer inverse)."""
    while True:
        m = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for _ in range(dim + 1):
            i, j = rng.sample(range(dim), 2)
            k = rng.choice((-2, -1, 1))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        if any(x < 0 for row in m for x in row):
            return m


def _weight_for(unimodular, dim):
    """w with w . (U p) == sum(p), i.e. U^T w = (1, ..., 1)."""
    return [int(x) for x in oracles.solve_columns(unimodular, [1] * dim)]


def cli_spec(seed, run_dir):
    rng = _rng("cli-session", seed)
    sg_lines = []
    semigroups = {}
    for name, gens, transform, letters in CLI_SEMIGROUPS:
        dim = len(gens[0])
        weight = [1] * dim
        if transform == "permute":
            perm = list(range(dim))
            rng.shuffle(perm)
            gens = _perm_coords(gens, perm)
        elif transform == "unimodular":
            u = _unimodular(rng, dim)
            gens = [[sum(u[i][k] * g[k] for k in range(dim)) for i in range(dim)] for g in gens]
            weight = _weight_for(u, dim)
        semigroups[name] = {"gens": gens, "weight": weight, "commands": letters}
        sg_lines.append(f"semigroup {name} gens=" + _fmt(gens))
    cocycles = {}
    co_lines = []
    for dim, count in COCYCLES_PER_DIM.items():
        for k in range(count):
            params = ["q"] if k % 2 == 0 else ["q", "r"]
            name = f"c{dim}_{k}"
            bichar = {p: _ints(rng, dim) for p in params}
            fields = [f"dim={dim}", "params=[" + ",".join(params) + "]"]
            fields += [f"bichar:{p}=" + _fmt(bichar[p]) for p in params]
            if k % 3 == 2:
                for p in params:
                    fields.append(f"quad:{p}=" + _fmt(_halves(rng, dim)))
                    fields.append(f"lin:{p}=" + _fmt(_half_vector(rng, dim)))
            cocycles[name] = {"dim": dim, "params": params, "bichar": bichar}
            co_lines.append(f"cocycle {name} " + " ".join(fields))
    # cohomologous partners: the same skew part, another symmetric part
    pair_lines = []
    pairs = []
    for dim in range(2, 6):
        base = f"c{dim}_0"
        sym = _ints(rng, dim, (-1, 1))
        sym = [[sym[i][j] + sym[j][i] for j in range(dim)] for i in range(dim)]
        bichar = cocycles[base]["bichar"]["q"]
        shifted = [[bichar[i][j] + sym[i][j] for j in range(dim)] for i in range(dim)]
        name = f"h{dim}"
        pair_lines.append(f"cocycle {name} dim={dim} params=[q] bichar:q=" + _fmt(shifted)
                          + " quad:q=" + _fmt(_halves(rng, dim)))
        cocycles[name] = {"dim": dim, "params": ["q"]}
        pairs += [(base, name), (name, base), (base, f"c{dim}_4"), (f"c{dim}_1", f"c{dim}_3")]
    lattices = {}
    lat_lines = []
    index = 0
    for n in range(5):
        for poset in posets.unlabeled_posets(n):
            perm = list(range(n))
            rng.shuffle(perm)
            poset = posets.relabel(poset, perm)
            ideals = posets.down_sets(poset)
            labels = [_ideal_label(i, "e") for i in ideals]
            covers = [[labels[a], labels[b]] for a, b in posets.lattice_covers(ideals)]
            name = f"L{index}"
            index += 1
            lattices[name] = {"labels": labels, "dim": n + 1}
            lat_lines.append(f"lattice {name} elements=[" + ",".join(labels) + "] covers="
                             + ("[" + ",".join(f"[{a},{b}]" for a, b in covers) + "]"))
    text = "\n".join(["# generated by bench/workloads.py for one benchmark run",
                      *sg_lines, *co_lines, *pair_lines, *lat_lines, f"bound {CLI_BOUND}"]) + "\n"
    model_path = os.path.join(run_dir, "session.model")
    with open(model_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    commands = _cli_commands(rng, semigroups, cocycles, lattices, pairs, model_path)
    return {"workload": "cli-session", "seed": seed, "model": model_path,
            "model_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "weights": {k: v["weight"] for k, v in semigroups.items()},
            "commands": commands}


def _cli_commands(rng, semigroups, cocycles, lattices, pairs, model):
    # Cocycles are handed out in turn per dimension, and the extra multiply
    # operands are fixed sums of generators: a seeded choice of a cocycle with
    # or without a coboundary part, or of a deeper membership target, would
    # make the cost of a command depend on the seed.
    by_dim = {}
    for name, c in cocycles.items():
        if name.startswith("c"):
            by_dim.setdefault(c["dim"], []).append(name)
    turns = {dim: itertools.cycle(names) for dim, names in by_dim.items()}

    def cocycle(dim):
        return next(turns[dim])

    cmds = []
    for name, sg in semigroups.items():
        dim = len(sg["gens"][0])
        for letter in sg["commands"]:
            cmd = COMMAND_LETTERS[letter]
            if cmd in ("embed-torus", "twist-check"):
                cmds.append([cmd, name, cocycle(dim)])
            else:
                cmds.append([cmd, name])
    for first, second in pairs:
        cmds.append(["cohomologous", first, second])
    fails = [False] * len(cmds)
    for name, dim, lefts, right in MULTIPLY_LADDER:
        for left in lefts:
            vec = ",".join([str(left)] * dim)
            cmds.append(["multiply", name, cocycle(dim), vec, right])
            fails.append((name, left) in FAILING_MULTIPLY)
    for name in ("S3", "S4", "P2h"):
        gens = semigroups[name]["gens"]
        dim = len(gens[0])
        for picks in (((0, 1, 2), (1, 2)), ((0, 0, 1), (2, 2))):
            left, right = ([sum(gens[i][c] for i in pick) for c in range(dim)] for pick in picks)
            cmds.append(["multiply", name, cocycle(dim),
                         ",".join(map(str, left)), ",".join(map(str, right))])
            fails.append(False)
    for index, (name, lat) in enumerate(lattices.items()):
        cmds.append(["lattice", name, "--cocycle", cocycle(lat["dim"])])
        fails.append(False)
        for length in (index % 4, 4 + index % 3):
            word = [rng.choice(lat["labels"]) for _ in range(length)]
            cmds.append(["straighten", name, cocycle(lat["dim"]), ",".join(word)])
            fails.append(False)
    # a few commands run twice in the round; their reports must be identical
    repeats = [next(i for i, c in enumerate(cmds) if c[0] == kind) for kind in CLI_REPEATED]
    cmds += [list(cmds[i]) for i in repeats]
    fails += [False] * len(repeats)
    bound_args = ["--model", model, "--bound", str(CLI_BOUND)]
    return [{"argv": c + bound_args, "expect_fail": f} for c, f in zip(cmds, fails)]


def _fmt(obj):
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_fmt(x) for x in obj) + "]"
    if isinstance(obj, Fraction):
        return str(obj)
    return str(obj)


def cli_build(spec):
    import qtoric
    import qtoric.cli
    return {"spec": spec, "main": qtoric.cli.main}


def run_cli(main, argv):
    """Run one CLI command in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_operations(ctx):
    main = ctx["main"]
    ops = []
    for i, cmd in enumerate(ctx["spec"]["commands"]):
        def command(argv=cmd["argv"]):
            code, out, err = run_cli(main, argv)
            return f"{code}\n{out}\n{err}", (code, out, err)

        shown = " ".join(cmd["argv"][:cmd["argv"].index("--model")])
        ops.append(Op(f"cli:{i}:{shown}", command, expect_fail=cmd["expect_fail"],
                      meta={"command": i}))
    return ops


# name: (inputs from seed, build, operation list, whether each round runs the
# operations in its own shuffled order).  lattice-straighten is shuffled so
# that garbage-collector pauses do not fall on the same operation in every
# round; cli-session keeps its order, because its commands share the
# process-wide cocycle cache and a fixed order gives each command the same
# cache state in every round; cone-ladder's operations build on the caches
# of the semigroup they share.
WORKLOADS = {
    "cli-session": (lambda seed, run_dir: cli_spec(seed, run_dir), cli_build, cli_operations,
                    False),
    "lattice-straighten": (lambda seed, run_dir: lattice_spec(seed), lattice_build,
                           lattice_operations, True),
    "cone-ladder": (lambda seed, run_dir: cone_spec(seed), cone_build, cone_operations, False),
}
