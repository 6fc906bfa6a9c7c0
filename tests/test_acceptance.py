"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS line with
the bounds it verified; all arithmetic is exact, so every comparison below
is an identity check, bounded only by the stated degree windows.
"""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qtoric import (AffineSemigroup, Cocycle, DistLattice, NotNormalError,
                    ScalarMonomial, TwistedAlgebra, are_cohomologous,
                    check_cocycle_identity, decompose, elements_by_degree,
                    facet_subsemigroup, hilbert_function, ideal_lattice,
                    regularity_report, straighten, straightening_semigroup)

from .conftest import quantum_cocycle, shifted_cocycle
from .oracles import (all_posets_up_to, gorenstein_candidate_works,
                      interior_points)

GOLDEN = Path(__file__).parent / "golden"
MODEL = str(GOLDEN / "demo.model")

ONE = ScalarMonomial.one()


def _n2():
    return AffineSemigroup([(1, 0), (0, 1)])


def _a1():
    return AffineSemigroup([(1, 0), (1, 1), (1, 2)])


def _n23():
    return AffineSemigroup([(2,), (3,)])


def _rays13():
    return AffineSemigroup([(1, 0), (1, 1), (1, 2), (1, 3)])


def _diamond_lattice():
    return DistLattice.from_covers(
        ["bot", "x", "y", "top"],
        [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")])


def _diamond_semigroup():
    return straightening_semigroup(_diamond_lattice()).semigroup


def _six_cocycles():
    return {
        "trivial": Cocycle.trivial(2),
        "upper": Cocycle.bicharacter(2, {"q": [[0, 1], [0, 0]]}),
        "lower": Cocycle.bicharacter(2, {"q": [[0, 0], [-1, 0]]}),
        "shifted": shifted_cocycle(2),
        "symmetric": Cocycle.bicharacter(2, {"q": [[0, 1], [1, 0]]}),
        "double": Cocycle.bicharacter(2, {"q": [[0, 2], [0, 0]]}),
    }


def _members_up_to(semigroup, degree):
    layers = elements_by_degree(semigroup, degree)
    return [s for k in sorted(layers) for s in sorted(layers[k])]


def test_criterion_01_associativity_and_corruption_detection():
    start = time.monotonic()
    n2 = _n2()
    checked = 0
    for name, alpha in _six_cocycles().items():
        algebra = TwistedAlgebra(n2, alpha)
        monos = [algebra.monomial(s) for s in _members_up_to(n2, 3)]
        for x, y, z in itertools.product(monos, repeat=3):
            left = algebra.product(algebra.product(x, y), z)
            right = algebra.product(x, algebra.product(y, z))
            assert left == right, name
            checked += 1

    # a corrupted evaluator must be flagged by the identity checker
    alpha = Cocycle.bicharacter(2, {"q": [[0, 1], [0, 0]]})

    def bad(s, t):
        value = alpha(s, t)
        if (s, t) == ((1, 0), (0, 1)):
            return value * ScalarMonomial.param("q")
        return value

    grid = [(0, 0), (1, 0), (0, 1), (1, 1)]
    triples = list(itertools.product(grid, repeat=3))
    assert check_cocycle_identity(alpha, triples) is None
    failing = check_cocycle_identity(alpha, triples, eval_fn=bad)
    assert failing is not None
    s, t, u = failing
    st = tuple(a + b for a, b in zip(s, t))
    tu = tuple(a + b for a, b in zip(t, u))
    assert bad(s, t) * bad(st, u) != bad(t, u) * bad(s, tu)

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 01: PASS - associativity exhaustive to degree 3 "
          f"({checked} triples, 6 cocycles), corruption caught, {elapsed:.2f}s")


def test_criterion_02_twist_reconstruction():
    start = time.monotonic()
    fixtures = [("n2", _n2()), ("a1", _a1()), ("n23", _n23()),
                ("diamondS", _diamond_semigroup())]
    combos = 0
    for name, s in fixtures:
        dim = s.ambient_dim
        for cname, alpha in [("trivial", Cocycle.trivial(dim)),
                             ("quantum", quantum_cocycle(dim)),
                             ("shifted", shifted_cocycle(dim))]:
            algebra = TwistedAlgebra(s, alpha)
            # construction proves the twisting axiom and product agreement
            # in every degree
            system = algebra.twisting_system()
            x = algebra.monomial(s.generators[0])
            y = algebra.monomial(s.generators[-1])
            assert system.twisted_product(x, y) == algebra.product(x, y)
            combos += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 02: PASS - twisted product reconstructed for {combos} "
          f"(semigroup, cocycle) pairs, twisting axiom exact in every degree "
          f"(the cocycle identity), {elapsed:.2f}s")


def test_criterion_03_facet_decomposition():
    window = 0
    for s in [_n2(), _a1(), _rays13(), _diamond_semigroup()]:
        dec = decompose(s, 6)
        assert dec.verified_to_degree == 6
        dim = s.ambient_dim
        for x in itertools.product(range(-3, 7), repeat=dim):
            if sum(x) > 6:
                continue
            in_intersection = all(fs.contains(x) for fs in dec.facet_semigroups)
            assert in_intersection == s.contains(x), x
            window += 1
    with pytest.raises(NotNormalError) as exc:
        decompose(_n23(), 6)
    assert exc.value.witness_g == (1,)
    assert exc.value.witness_p == 2
    print(f"criterion 03: PASS - membership equals facet intersection on "
          f"{window} lattice points (coordinate sum <= 6), non-normal input "
          f"refused with witness g=[1], p=2")


def test_criterion_04_facet_semigroup_structure():
    facet_count = 0
    for s in [_n2(), _a1(), _rays13(), _diamond_semigroup()]:
        dim = s.ambient_dim
        algebra = TwistedAlgebra(s, quantum_cocycle(dim))
        for facet in s.facets():
            fs = facet_subsemigroup(s, facet)
            # the unit directions and the transversal generate freely:
            # round-trip every generator through the coordinates
            assert len(fs.unit_basis) == dim - 1
            assert sum(a * b for a, b in zip(facet.inner_normal,
                                             fs.transversal)) == 1
            for g in s.generators:
                coords, h = fs.iso_coordinates(g)
                assert fs.from_iso_coordinates(coords, h) == g
                assert h >= 0
            for v in fs.iso_generators:
                coords, h = fs.iso_coordinates(v)
                assert fs.from_iso_coordinates(coords, h) == v
            loc = algebra.localize_at_facet(facet)
            q = loc.q_tau
            n = len(q)
            for i in range(n):
                assert q[i][i] == ONE
                for j in range(n):
                    assert q[i][j] * q[j][i] == ONE
            facet_count += 1
    print(f"criterion 04: PASS - {facet_count} facet semigroups verified "
          f"isomorphic to units + one ray, q_tau skew with unit diagonal")


def test_criterion_05_maximal_order_iff_normal():
    nonnorm_gap = AffineSemigroup([(1, 0), (1, 2), (1, 3)])
    nonnorm_half = AffineSemigroup([(2, 0), (0, 1), (1, 1)])
    cases = [(_n2(), True), (_a1(), True), (_rays13(), True),
             (_diamond_semigroup(), True), (_n23(), False),
             (nonnorm_gap, False), (nonnorm_half, False)]
    for s, expect in cases:
        rep = regularity_report(s)
        assert rep.normal == expect
        assert rep.maximal_order == expect
        if not expect:
            g, p = rep.normality_witness
            assert not s.contains(g)
            assert s.contains(tuple(p * x for x in g))
    print("criterion 05: PASS - maximal_order = true exactly on the normal "
          "fixtures; each non-normal fixture carries a checked witness")


def test_criterion_06_regularity_fixtures():
    expected = [
        (_n2(), "yes", "yes", (1, 1), True),
        (_a1(), "yes", "yes", (1, 1), False),
        (_rays13(), "yes", "no", None, False),
    ]
    for s, cm, gor, witness, regular in expected:
        rep = regularity_report(s)
        assert rep.as_cohen_macaulay == cm
        assert rep.as_gorenstein == gor
        assert rep.gorenstein_witness == witness
        assert rep.as_regular == regular
        gens = list(s.generators)
        if witness is not None:
            assert gorenstein_candidate_works(gens, 2, witness, 6)
        else:
            # no interior point with coordinate sum <= 6 can serve as c
            for c in interior_points(gens, 2, 6):
                assert not gorenstein_candidate_works(gens, 2, c, 6)
    print("criterion 06: PASS - regularity profiles match and Gorenstein "
          "decisions agree with the interior-point oracle to degree 6")


def test_criterion_07_quantum_torus_embedding():
    for s in [_n2(), _a1(), _rays13(), _diamond_semigroup()]:
        dim = s.ambient_dim
        algebra = TwistedAlgebra(s, quantum_cocycle(dim))
        emb = algebra.torus_embedding()
        torus = algebra.torus()
        n = len(emb.q_matrix)
        for i in range(n):
            assert emb.q_matrix[i][i] == ONE
            for j in range(n):
                assert emb.q_matrix[i][j] * emb.q_matrix[j][i] == ONE
        for g in s.generators:
            acc = torus.one()
            for i, y in enumerate(emb.y_monomials):
                acc = torus.product(acc, torus.power(y, g[i]))
            assert acc.scale(emb.generator_scalars[g]) == torus.monomial(g)

    # rank-1 case: X^2 and X^3 map to torus powers of the single Y
    algebra = TwistedAlgebra(_n23(), quantum_cocycle(1))
    emb = algebra.torus_embedding()
    torus = algebra.torus()
    (y0,) = emb.y_monomials
    for g in [(2,), (3,)]:
        power = torus.power(y0, g[0])
        assert power.scale(emb.generator_scalars[g]) == torus.monomial(g)
    print("criterion 07: PASS - every full fixture embeds with skew q' and "
          "exact generator scalars; X^2, X^3 land on torus powers for <2,3>")


def test_criterion_08_cohomology_decision():
    six = _six_cocycles()
    names = list(six)
    rel = {(a, b): are_cohomologous(six[a], six[b]).cohomologous
           for a, b in itertools.product(names, repeat=2)}
    for a in names:
        assert rel[(a, a)]
    for a, b in itertools.product(names, repeat=2):
        assert rel[(a, b)] == rel[(b, a)]
    for a, b, c in itertools.product(names, repeat=3):
        if rel[(a, b)] and rel[(b, c)]:
            assert rel[(a, c)]

    upper, lower = six["upper"], six["lower"]
    res = are_cohomologous(upper, lower)
    assert res.cohomologous
    points = list(itertools.product(range(-2, 3), repeat=2))
    for s in points:
        assert res.witness_f(s) == ScalarMonomial.make(1, {"q": -s[0] * s[1]})
    for s, t in itertools.product(points, repeat=2):
        st = (s[0] + t[0], s[1] + t[1])
        coboundary = res.witness_f(s) * res.witness_f(t) / res.witness_f(st)
        assert coboundary * lower(s, t) == upper(s, t)

    res = are_cohomologous(six["lower"], six["trivial"])
    assert not res.cohomologous
    assert res.distinguishing_pair == ((1, 0), (0, 1))
    print("criterion 08: PASS - equivalence relation on 6 cocycles, witness "
          "f(s)=q^(-s0*s1) verified on all [-2,2]^2 pairs, distinguishing "
          "pair (e0, e1)")


def test_criterion_09_lattice_pipeline():
    start = time.monotonic()
    posets = all_posets_up_to(4)
    # one ideal lattice per unlabeled poset with at most 4 elements
    assert len(posets) == 25
    lattices = [
        DistLattice.from_covers(["a", "b"], [("a", "b")]),
        DistLattice.from_covers(["a", "m", "b"], [("a", "m"), ("m", "b")]),
        _diamond_lattice(),
    ]
    lattices += [ideal_lattice(n, sorted(rel)) for n, rel in posets]
    words_checked = 0
    for lat in lattices:
        sg = straightening_semigroup(lat)
        alpha = quantum_cocycle(sg.ambient_dim)
        algebra = TwistedAlgebra(sg.semigroup, alpha)
        # the embedding is injective
        assert len(set(sg.vector_of.values())) == lat.size
        assert sg.semigroup.normality().normal
        # image check for s0 <= 4: members and standard words correspond
        rank = sg.ambient_dim - 1
        for s0 in range(5):
            for rest in itertools.product(range(s0 + 1), repeat=rank):
                s = (s0,) + rest
                if not sg.semigroup.contains(s):
                    continue
                chain = sg.standard_word(s).chain
                assert sg.vector_of_word(chain) == s
        # every short standard word round-trips through its vector
        elems = range(lat.size)
        for length in range(4):
            for word in itertools.product(elems, repeat=length):
                if sg.is_standard(word):
                    s = sg.vector_of_word(word)
                    assert sg.standard_word(s).chain == word
        # straightening of all words of length <= 3
        for length in range(4):
            for word in itertools.product(elems, repeat=length):
                scalar, std = straighten(sg, alpha, list(word))
                scalar_r, std_r = straighten(sg, alpha, list(reversed(word)))
                assert std_r.chain == std.chain
                assert std.chain == sg.standard_word(
                    sg.vector_of_word(word)).chain
                prod = algebra.one()
                for a in word:
                    prod = algebra.product(prod, algebra.monomial(sg.vector_of[a]))
                std_prod = algebra.one()
                for a in std.chain:
                    std_prod = algebra.product(std_prod,
                                               algebra.monomial(sg.vector_of[a]))
                assert prod == std_prod.scale(scalar)
                words_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 09: PASS - {len(lattices)} lattices (3 named + 25 "
          f"ideal lattices of posets with <= 4 elements): injective embedding, "
          f"normal image, {words_checked} words straightened, {elapsed:.2f}s")


def test_criterion_10_hilbert_function_twist_invariance():
    fixtures = [_n2(), _a1(), _n23(), _rays13(), _diamond_semigroup()]
    for s in fixtures:
        dim = s.ambient_dim
        counts = hilbert_function(s, 8)
        layers = elements_by_degree(s, 8)
        assert counts == [len(layers.get(k, set())) for k in range(9)]
        members = _members_up_to(s, 8)
        for alpha in [Cocycle.trivial(dim), quantum_cocycle(dim),
                      shifted_cocycle(dim)]:
            algebra = TwistedAlgebra(s, alpha)
            # twisting rescales basis monomials but never collapses them,
            # so each graded component keeps its dimension
            for u, v in itertools.combinations_with_replacement(members, 2):
                if sum(u) + sum(v) > 8:
                    continue
                product = algebra.product(algebra.monomial(u), algebra.monomial(v))
                target = tuple(a + b for a, b in zip(u, v))
                assert product.support == (target,)
                coeff = product.coefficient(target).as_monomial()
                assert coeff * coeff ** -1 == ONE
    print("criterion 10: PASS - twisted and untwisted component dimensions "
          "agree for all degrees <= 8 on every fixture")


def test_criterion_11_cli_determinism_and_exit_codes():
    env = {k: v for k, v in os.environ.items() if k != "QTORIC_BOUND"}

    def run(args, seed):
        env_run = dict(env, PYTHONHASHSEED=seed)
        return subprocess.run([sys.executable, "-m", "qtoric"] + args,
                              capture_output=True, env=env_run)

    for fname, args in [("analyze.txt", ["analyze", "A1"]),
                        ("regularity.txt", ["regularity", "A1"]),
                        ("embed_torus.txt", ["embed-torus", "A1", "qplane"]),
                        ("lattice.txt", ["lattice", "D", "--cocycle", "tri3"])]:
        first = run(args + ["--model", MODEL], "101")
        second = run(args + ["--model", MODEL], "202")
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        assert first.stdout == second.stdout
        assert first.stdout == (GOLDEN / fname).read_bytes()

    usage = run(["analyze", "NOPE", "--model", MODEL], "0")
    assert usage.returncode == 2
    precondition = run(["decompose", "N23", "--model", MODEL], "0")
    assert precondition.returncode == 3
    verification = run(["analyze", "A1", "--self-check-corrupt",
                        "--model", MODEL], "0")
    assert verification.returncode == 4
    print("criterion 11: PASS - golden reports byte-identical across runs "
          "with distinct hash seeds; exit codes 2, 3, 4 observed")
