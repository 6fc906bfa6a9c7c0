import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtoric import (AffineSemigroup, Cocycle, DimensionError, DistLattice, PreconditionError,
                    QtoricError, ScalarMonomial, SizeLimitError, StandardWord,
                    TwistedAlgebra, birkhoff, ideal_lattice, lattice_algebra_report,
                    straighten, straightening_semigroup)
from qtoric.lattice_algebras import algebra_report
from qtoric.semigroups import MAX_WITNESS_SUMMANDS

from .conftest import M3_COVERS, N5_COVERS, quantum_cocycle, two_parameter_cocycle
from .oracles import (all_posets_up_to, checked_algebra_report, checked_standard_word,
                      embedding_mismatch,
                      hibi_torus_pairs,
                      join_irreducibles_by_joins, naturally_labeled_posets,
                      product_chain_straighten, reference_membership, scalar_chain_straighten,
                      scanned_lattice_tables, staircase_round_trip_mismatch,
                      standard_chains_with_sum)

TRI3 = Cocycle.bicharacter(3, {"q": [[0, 1, 0], [0, 0, 0], [1, 0, 0]]})


def test_from_covers_closure(chain3):
    a, m, b = (chain3.index_of(x) for x in "amb")
    assert chain3.leq[a][b]  # transitive through m
    assert not chain3.leq[b][a]
    assert chain3.minimum == a
    assert chain3.maximum == b
    assert chain3.lower_covers(b) == [m]
    assert chain3.label(m) == "m"
    with pytest.raises(QtoricError):
        chain3.index_of("zz")


def test_lattice_construction_errors():
    with pytest.raises(ValueError):
        DistLattice(0, [])
    with pytest.raises(ValueError):
        DistLattice.from_covers(["a", "a"], [])
    with pytest.raises(QtoricError):
        DistLattice.from_covers(["a", "b"], [("a", "zz")])
    with pytest.raises(QtoricError, match=r"^not a lattice: b and c have no join$"):
        # two maximal elements have no join
        DistLattice.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
    with pytest.raises(QtoricError, match=r"^order is not antisymmetric: a and b$"):
        DistLattice.from_covers(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(QtoricError, match=r"^order is not transitive$"):
        DistLattice(3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])


def test_non_distributive_witnesses():
    with pytest.raises(QtoricError, match=r"^lattice is not distributive; "
                                          r"witness triple \(a, b, c\)$"):
        DistLattice.from_covers(*M3_COVERS)
    with pytest.raises(QtoricError, match=r"^lattice is not distributive; "
                                          r"witness triple \(b, a, c\)$"):
        DistLattice.from_covers(*N5_COVERS)


def test_birkhoff_certificate_agrees_with_table_scan():
    # every order on at most 6 elements, M3 and N5 among them, with its
    # elements in a natural order and in a shuffled one: the same decision,
    # the same refusal message and the same meet and join tables
    rng = random.Random(8)
    decisions = {}
    for n in range(1, 7):
        for pairs in naturally_labeled_posets(n):
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            for ids in (range(n), shuffled):
                labels = [f"e{i}" for i in range(n)]
                strict = {(ids[a], ids[b]) for a, b in pairs}
                try:
                    lat = DistLattice.from_covers(
                        labels, [(labels[a], labels[b]) for a, b in strict])
                    got = (lat.meet, lat.join)
                except QtoricError as exc:
                    got = str(exc)
                leq = [[a == b or (a, b) in strict for b in range(n)] for a in range(n)]
                try:
                    want = scanned_lattice_tables(leq, labels)
                except QtoricError as exc:
                    want = str(exc)
                assert got == want, (labels, sorted(strict))
                kind = ("lattice" if isinstance(got, tuple) else
                        "not distributive" if "distributive" in got else "not a lattice")
                decisions[kind] = decisions.get(kind, 0) + 1
    assert decisions == {"lattice": 34, "not a lattice": 10360, "not distributive": 68}


def test_join_irreducibles_examples(chain2, chain3, diamond):
    assert [chain2.label(p) for p in chain2.join_irreducibles()] == ["b"]
    assert sorted(chain3.label(p) for p in chain3.join_irreducibles()) == ["b", "m"]
    assert sorted(diamond.label(p) for p in diamond.join_irreducibles()) == ["x", "y"]
    one = DistLattice.from_covers(["only"], [])
    assert one.join_irreducibles() == []


def test_join_irreducibles_against_oracle(chain2, chain3, diamond):
    lattices = [chain2, chain3, diamond,
                ideal_lattice(3, [(0, 1)]), ideal_lattice(3, [])]
    for lat in lattices:
        assert lat.join_irreducibles() == join_irreducibles_by_joins(lat)


def test_birkhoff_examples(chain2, diamond):
    data = birkhoff(chain2)
    a, b = chain2.index_of("a"), chain2.index_of("b")
    assert data.irreducibles == (b,)
    assert data.ideal_of[a] == frozenset()
    assert data.ideal_of[b] == frozenset({b})
    d = birkhoff(diamond)
    top = diamond.index_of("top")
    assert d.ideal_of[top] == frozenset(d.irreducibles)
    for elem, ideal in d.ideal_of.items():
        assert d.element_of[ideal] == elem


def test_birkhoff_order_preservation(diamond, chain3):
    for lat in [diamond, chain3]:
        data = birkhoff(lat)
        for a, b in itertools.product(range(lat.size), repeat=2):
            assert lat.leq[a][b] == (data.ideal_of[a] <= data.ideal_of[b])


def test_birkhoff_custom_order(diamond, chain3):
    x, y = diamond.index_of("x"), diamond.index_of("y")
    assert birkhoff(diamond, order=[y, x]).irreducibles == (y, x)
    m, b = chain3.index_of("m"), chain3.index_of("b")
    with pytest.raises(PreconditionError):
        birkhoff(chain3, order=[b, m])  # m < b must come first
    with pytest.raises(PreconditionError):
        birkhoff(chain3, order=[m])


def test_ideal_lattice_shapes():
    antichain2 = ideal_lattice(2, [])
    assert antichain2.size == 4
    assert antichain2.labels == ("I", "I0", "I1", "I01")
    assert len(antichain2.join_irreducibles()) == 2
    chain_poset = ideal_lattice(2, [(0, 1)])
    assert chain_poset.size == 3
    assert ideal_lattice(0, []).size == 1
    with pytest.raises(QtoricError):
        ideal_lattice(2, [(0, 1), (1, 0)])


def test_staircase_points_round_trip(chain2, chain3, diamond):
    # Hibi's theorem, checked on the box s_0 <= 4 that straightening_semigroup
    # used to scan
    lattices = [chain2, chain3, diamond]
    lattices += [ideal_lattice(n, sorted(rel)) for n, rel in all_posets_up_to(4)]
    for lat in lattices:
        sg = straightening_semigroup(lat)
        assert staircase_round_trip_mismatch(sg, 4) is None
    sg = straightening_semigroup(diamond)
    honest = sg.standard_word
    sg.standard_word = lambda s: StandardWord(honest(s).chain[1:])
    assert staircase_round_trip_mismatch(sg, 4) == (1, 0, 0)


def _hibi_criteria_tally(posets):
    """Check Hibi's criteria on each poset: tally the pure ones and the chains,
    and collect the refused ones with their messages."""
    # Hibi (1987): the Hibi ring of J(P) is Gorenstein iff P is pure (all
    # maximal chains have the same length), and it is a polynomial ring iff
    # P is a chain
    tally = {"pure": 0, "chain": 0}
    refused = {}
    for n, rel in posets:
        above = {a: {c for b, c in rel if b == a} for a in range(n)}

        def upper_covers(e):
            return [c for c in above[e] if not any(c in above[d] for d in above[e])]

        def chain_lengths(e):
            # element counts of the maximal chains that start at e
            ups = upper_covers(e)
            return {1 + k for c in ups for k in chain_lengths(c)} if ups else {1}

        minimal = [e for e in range(n) if not any(e in above[d] for d in range(n))]
        pure = len(set().union(*map(chain_lengths, minimal)) or {0}) == 1
        chain = len(rel) == n * (n - 1) // 2
        lat = ideal_lattice(n, sorted(rel))
        try:
            rep = lattice_algebra_report(
                lat, quantum_cocycle(len(lat.join_irreducibles()) + 1)).regularity
        except SizeLimitError as exc:
            refused[tuple(rel)] = (lat.size, str(exc))
            continue
        assert (rep.as_gorenstein == "yes") == pure, (n, rel)
        assert rep.as_regular == chain, (n, rel)
        tally["pure"] += pure
        tally["chain"] += chain
    return tally, refused


def test_hibi_criteria_on_posets_up_to_4():
    assert _hibi_criteria_tally(all_posets_up_to(4)) == ({"pure": 18, "chain": 5}, {})


def test_hibi_criteria_on_posets_with_5_elements():
    # one labelling per isomorphism class: the least sorted relation list
    posets = {min(tuple(sorted((p[a], p[b]) for a, b in rel))
                  for p in itertools.permutations(range(5)))
              for rel in naturally_labeled_posets(5)}
    assert len(posets) == 63
    tally, refused = _hibi_criteria_tally((5, rel) for rel in sorted(posets))
    assert tally == {"pure": 27, "chain": 1}
    # the antichain (2^5 ideals) and a single relation (24 ideals) are too big
    assert sorted(refused) == [(), ((0, 1),)]
    assert refused[()][0] == 32 and refused[((0, 1),)][0] == 24
    assert all(msg.endswith("generators exceed the supported limit of 20")
               for _, msg in refused.values())


def test_str_embedding_2chain(chain2):
    sg = straightening_semigroup(chain2)
    a, b = chain2.index_of("a"), chain2.index_of("b")
    assert sg.vector_of[a] == (1, 0)
    assert sg.vector_of[b] == (1, 1)
    assert sg.consecutive_pairs == []
    for s in itertools.product(range(-1, 4), repeat=2):
        assert sg.contains(s) == (s[0] >= s[1] >= 0)


def test_str_embedding_3chain(chain3):
    sg = straightening_semigroup(chain3)
    labels = [chain3.label(p) for p in sg.birkhoff.irreducibles]
    assert labels == ["m", "b"]
    assert sg.consecutive_pairs == [(1, 2)]
    assert sg.vector_of[chain3.index_of("a")] == (1, 0, 0)
    assert sg.vector_of[chain3.index_of("m")] == (1, 1, 0)
    assert sg.vector_of[chain3.index_of("b")] == (1, 1, 1)
    for s in itertools.product(range(-1, 3), repeat=3):
        assert sg.contains(s) == (s[0] >= s[1] >= s[2] >= 0)


def test_str_embedding_diamond(diamond):
    sg = straightening_semigroup(diamond)
    vec = {diamond.label(a): v for a, v in sg.vector_of.items()}
    assert vec["bot"] == (1, 0, 0)
    assert vec["top"] == (1, 1, 1)
    assert sorted([vec["x"], vec["y"]]) == [(1, 0, 1), (1, 1, 0)]
    assert sg.consecutive_pairs == []  # x, y are incomparable
    assert tuple(u + v for u, v in zip(vec["x"], vec["y"])) == (2, 1, 1)
    for s in itertools.product(range(-1, 3), repeat=3):
        expected = s[0] >= max(s[1], s[2]) and min(s) >= 0
        assert sg.contains(s) == expected


def test_str_embedding_is_valuation(chain3, diamond):
    # what each lattice's Birkhoff certificate proves, checked pair by pair;
    # grids give the Young lattices L(m, n)
    lattices = [chain3, diamond]
    lattices += [ideal_lattice(n, sorted(rel)) for n, rel in all_posets_up_to(4)]
    lattices += [ideal_lattice(*_grid_poset(m, n)) for m, n in [(2, 3), (2, 4), (3, 3)]]
    for lat in lattices:
        assert embedding_mismatch(straightening_semigroup(lat)) is None, lat
    sg = straightening_semigroup(diamond)
    sg.vector_of[diamond.index_of("top")] = sg.vector_of[diamond.index_of("x")]
    assert embedding_mismatch(sg) is not None


def test_membership_matches_the_search_on_a_plain_copy(chain2, chain3, diamond):
    # Hibi's inequalities and the standard-word witness against the reference
    # search on the same generators as a plain AffineSemigroup, over the box
    # s_0 <= 4, 0 <= s_i <= s_0
    lattices = [chain2, chain3, diamond]
    lattices += [ideal_lattice(n, sorted(rel)) for n, rel in all_posets_up_to(4)]
    for lat in lattices:
        sg = straightening_semigroup(lat)
        plain = AffineSemigroup(sg.generators)
        for s0 in range(5):
            for rest in itertools.product(range(s0 + 1), repeat=sg.ambient_dim - 1):
                s = (s0,) + rest
                got = sg.membership(s)
                assert got.member == reference_membership(plain, s).member, (lat, s)
                if got.member:
                    assert sg.vector_of_word(got.witness) == s, (lat, s)
    # the witness of (m, 0, ..., 0) is m letters: refused, as the search refuses it
    with pytest.raises(SizeLimitError, match="summands exceeds"):
        sg.membership((MAX_WITNESS_SUMMANDS + 1,) + (0,) * (sg.ambient_dim - 1))


def test_lattice_algebras_never_search(diamond, monkeypatch):
    # every membership question of a lattice algebra is answered by Hibi's
    # inequalities: its products, normality(), torus embedding and witnesses
    def refuse(target, gens):
        raise AssertionError(f"searched for {target}")

    monkeypatch.setattr(AffineSemigroup, "_search", staticmethod(refuse))
    lattices = [diamond] + [ideal_lattice(n, sorted(rel)) for n, rel in all_posets_up_to(3)]
    for lat in lattices:
        alpha = quantum_cocycle(len(lat.join_irreducibles()) + 1)
        report = lattice_algebra_report(lat, alpha)
        sg, algebra = report.semigroup, report.algebra
        assert report.regularity.normal and algebra.domain is sg
        algebra.torus_embedding()
        for word in itertools.product(range(lat.size), repeat=2):
            prod = algebra.one()
            for a in word:
                prod = algebra.product(prod, algebra.monomial(sg.vector_of[a]))
            assert prod.support == (sg.vector_of_word(word),)
            assert sg.vector_of_word(sg.membership(prod.support[0]).witness) == prod.support[0]


def test_standard_word_diamond(diamond):
    sg = straightening_semigroup(diamond)
    bot, top = diamond.index_of("bot"), diamond.index_of("top")
    x = diamond.index_of("x")
    word = sg.standard_word((2, 1, 1))
    assert word.chain == (bot, top)
    assert word.labels(diamond) == ("bot", "top")
    assert sg.standard_word(sg.vector_of[x]).chain == (x,)
    assert sg.standard_word((0, 0, 0)).chain == ()
    with pytest.raises(PreconditionError) as exc:
        sg.standard_word((0, 1, 0))
    assert exc.value.certificate == (0, 1, 0)


def test_standard_word_is_unique(chain3, diamond):
    # independent chain enumeration finds exactly one standard word per vector
    for lat in [chain3, diamond]:
        sg = straightening_semigroup(lat)
        for s0 in range(4):
            for rest in itertools.product(range(s0 + 1), repeat=sg.ambient_dim - 1):
                s = (s0,) + rest
                if not sg.contains(s):
                    continue
                chains = standard_chains_with_sum(lat, sg.vector_of, s)
                assert chains == [sg.standard_word(s).chain]


def test_word_round_trips(chain3, diamond):
    for lat in [chain3, diamond]:
        sg = straightening_semigroup(lat)
        elems = range(lat.size)
        for length in range(4):
            for word in itertools.product(elems, repeat=length):
                if not sg.is_standard(word):
                    continue
                s = sg.vector_of_word(word)
                assert sg.standard_word(s).chain == word


def test_is_standard(diamond):
    sg = straightening_semigroup(diamond)
    bot, x, y, top = (diamond.index_of(l) for l in ["bot", "x", "y", "top"])
    assert sg.is_standard((bot, x, top))
    assert sg.is_standard(())
    assert not sg.is_standard((x, y))
    assert not sg.is_standard((top, bot))


def test_straighten_commutative(diamond, chain3):
    sg = straightening_semigroup(diamond)
    bot, x, y, top = (diamond.index_of(l) for l in ["bot", "x", "y", "top"])
    scalar, word = straighten(sg, Cocycle.trivial(3), [x, y])
    assert scalar == ScalarMonomial.one()
    assert word.chain == (bot, top)
    scalar, word = straighten(sg, Cocycle.trivial(3), [bot, top])
    assert scalar == ScalarMonomial.one()
    assert word.chain == (bot, top)


def test_straighten_quantum(diamond):
    sg = straightening_semigroup(diamond)
    bot, x, y, top = (diamond.index_of(l) for l in ["bot", "x", "y", "top"])
    # alpha(i(y),i(x)) = q^2 against alpha(i(bot),i(top)) = q
    scalar, word = straighten(sg, TRI3, [y, x])
    assert word.chain == (bot, top)
    assert scalar == ScalarMonomial.param("q")
    expected = TRI3(sg.vector_of[y], sg.vector_of[x]) / TRI3(
        sg.vector_of[bot], sg.vector_of[top])
    assert scalar == expected


def test_straighten_empty_and_invalid(diamond):
    sg = straightening_semigroup(diamond)
    scalar, word = straighten(sg, TRI3, [])
    assert scalar == ScalarMonomial.one() and word.chain == ()
    with pytest.raises(PreconditionError):
        straighten(sg, TRI3, [99])


def test_straighten_refusals_keep_their_order(diamond):
    sg = straightening_semigroup(diamond)
    # the dimension check comes before the id check, even on an empty word
    for word in ([], [99]):
        with pytest.raises(DimensionError) as exc:
            straighten(sg, Cocycle.trivial(2), word)
        assert str(exc.value) == "cocycle on Z^2 cannot twist a dimension-3 algebra"
    with pytest.raises(PreconditionError) as exc:
        straighten(sg, TRI3, [0, -1, 99])
    assert str(exc.value) == "word element -1 is not a lattice element id"


@functools.cache
def _straightening_fixtures():
    lattices = [
        DistLattice.from_covers(["a", "b"], [("a", "b")]),
        DistLattice.from_covers(["a", "m", "b"], [("a", "m"), ("m", "b")]),
        DistLattice.from_covers(["bot", "x", "y", "top"],
                                [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")]),
        ideal_lattice(3, []),
        ideal_lattice(4, [(0, 2), (1, 2), (1, 3)]),
    ]
    return [straightening_semigroup(lat) for lat in lattices]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_closed_form_straighten_matches_product_chain(data):
    sg = data.draw(st.sampled_from(_straightening_fixtures()))
    dim = sg.ambient_dim
    ints = st.integers(-2, 2)
    fracs = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    square = lambda e: st.lists(st.lists(e, min_size=dim, max_size=dim),
                                min_size=dim, max_size=dim)
    alpha = Cocycle.bicharacter(dim, {p: data.draw(square(ints)) for p in "qr"})
    alpha = alpha.with_coboundary(
        quad={p: data.draw(square(fracs)) for p in "qr"},
        lin={"q": data.draw(st.lists(fracs, min_size=dim, max_size=dim))})
    word = data.draw(st.lists(st.integers(0, sg.lattice.size - 1), max_size=6))
    scalar, standard = straighten(sg, alpha, word)
    ref_scalar, ref_standard = product_chain_straighten(sg, alpha, word)
    assert standard == ref_standard
    assert scalar == ref_scalar and str(scalar) == str(ref_scalar)


def test_straighten_matches_the_scalar_ratio_on_all_small_posets():
    rng = random.Random(17)
    fraction = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    for n, rel in all_posets_up_to(4):
        sg = straightening_semigroup(ideal_lattice(n, sorted(rel)))
        alpha = two_parameter_cocycle(sg.ambient_dim, lambda: rng.randint(-2, 2), fraction)
        for length in range(7):
            for _ in range(4):
                word = [rng.randrange(sg.lattice.size) for _ in range(length)]
                scalar, standard = straighten(sg, alpha, word)
                assert sg.vector_of_word(standard.chain) == sg.vector_of_word(word)
                ref_scalar, ref_standard = scalar_chain_straighten(sg, alpha, word)
                assert standard.chain == ref_standard.chain
                assert str(scalar) == str(ref_scalar) and scalar == ref_scalar


def _grid_poset(rows, cols):
    """The product of a rows-chain and a cols-chain, by its covers."""
    at = lambda i, j: i * cols + j
    cells = list(itertools.product(range(rows), range(cols)))
    return rows * cols, ([(at(i, j), at(i + 1, j)) for i, j in cells if i + 1 < rows]
                         + [(at(i, j), at(i, j + 1)) for i, j in cells if j + 1 < cols])


def test_standard_words_need_no_checks():
    # standard_word no longer checks its peels and algebra_report no longer
    # checks fullness or normality; all hold by the proofs in their
    # docstrings, and the checking versions agree: on every product of up to
    # three lattice elements, and on each report below the size limits (the
    # 2x4 and 3x3 grids have rank 9)
    posets = [(n, sorted(rel)) for n, rel in all_posets_up_to(4)]
    posets += [_grid_poset(2, 3), _grid_poset(2, 4), _grid_poset(3, 3)]
    assert len(posets) == 28
    refused = 0
    for n, rel in posets:
        sg = straightening_semigroup(ideal_lattice(n, rel))
        assert sg.semigroup.is_full(), (n, rel)
        try:
            report = algebra_report(sg, quantum_cocycle(sg.ambient_dim))
        except SizeLimitError:
            refused += 1
        else:
            assert checked_algebra_report(
                sg, quantum_cocycle(sg.ambient_dim)).regularity == report.regularity
        for k in range(4):
            for word in itertools.combinations_with_replacement(range(sg.lattice.size), k):
                s = sg.vector_of_word(word)
                assert sg.standard_word(s) == checked_standard_word(sg, s), (n, rel, word)
    assert refused == 2


def test_torus_pairs_of_straightening_semigroups_are_hibis():
    # the lexicographic walk pops 0 and then the lattice vectors in order, so
    # each pair is the closed form; grids give the Young lattices L(m, n)
    posets = [(n, sorted(rel)) for n, rel in all_posets_up_to(4)]
    posets += [_grid_poset(2, 3), _grid_poset(2, 4), _grid_poset(3, 3)]
    for n, rel in posets:
        sg = straightening_semigroup(ideal_lattice(n, rel))
        emb = TwistedAlgebra(sg.semigroup, Cocycle.trivial(sg.ambient_dim)).torus_embedding()
        assert emb.pairs == hibi_torus_pairs(sg), (n, rel)


def test_straighten_is_order_independent(diamond):
    sg = straightening_semigroup(diamond)
    algebra = TwistedAlgebra(sg.semigroup, TRI3)
    elems = list(range(diamond.size))
    for word in itertools.product(elems, repeat=3):
        scalar, std = straighten(sg, TRI3, list(word))
        for perm in itertools.permutations(word):
            scalar2, std2 = straighten(sg, TRI3, list(perm))
            assert std2.chain == std.chain
        # the scalar is exactly the product/standard-product ratio
        prod = algebra.one()
        for a in word:
            prod = algebra.product(prod, algebra.monomial(sg.vector_of[a]))
        std_prod = algebra.one()
        for a in std.chain:
            std_prod = algebra.product(std_prod, algebra.monomial(sg.vector_of[a]))
        assert prod == std_prod.scale(scalar)


def test_linear_extension_changes_only_coordinates(diamond):
    x, y = diamond.index_of("x"), diamond.index_of("y")
    sg_xy = straightening_semigroup(diamond, order=[x, y])
    sg_yx = straightening_semigroup(diamond, order=[y, x])
    swap = lambda v: (v[0], v[2], v[1])
    for a in range(diamond.size):
        assert swap(sg_xy.vector_of[a]) == sg_yx.vector_of[a]
    gens_xy = {swap(g) for g in sg_xy.semigroup.generators}
    assert gens_xy == set(sg_yx.semigroup.generators)


def test_random_ideal_lattices_are_normal():
    rng = random.Random(23)
    checked = 0
    while checked < 6:
        n = rng.randint(1, 5)
        rels = [(a, b) for a in range(n) for b in range(n)
                if a != b and rng.random() < 0.4]
        try:
            lat = ideal_lattice(n, rels)
        except QtoricError:
            continue  # relations formed a cycle
        if lat.size > 18:
            continue
        sg = straightening_semigroup(lat)
        cert = sg.semigroup.normality()
        assert cert.normal
        assert sg.semigroup.is_full()
        assert len(sg.birkhoff.irreducibles) == len(
            join_irreducibles_by_joins(lat))
        checked += 1


def test_lattice_algebra_report_2chain(chain2):
    rep = lattice_algebra_report(chain2, quantum_cocycle(2))
    assert rep.regularity.normal and rep.regularity.maximal_order
    assert rep.regularity.as_regular
    assert rep.regularity.gorenstein_witness == (2, 1)
    assert rep.algebra.cocycle.dim == 2


def test_lattice_algebra_report_3chain(chain3):
    rep = lattice_algebra_report(chain3, quantum_cocycle(3))
    assert rep.regularity.as_regular
    assert rep.regularity.as_gorenstein == "yes"
    assert rep.regularity.gorenstein_witness == (3, 2, 1)


def test_lattice_algebra_report_diamond(diamond):
    rep = lattice_algebra_report(diamond, TRI3)
    assert rep.regularity.normal
    assert rep.regularity.as_cohen_macaulay == "yes"
    assert rep.regularity.as_gorenstein == "yes"
    assert rep.regularity.gorenstein_witness == (2, 1, 1)
    assert not rep.regularity.as_regular  # 4 generators in rank 3
    assert rep.regularity.maximal_order


def test_lattice_algebra_report_dimension_check(diamond):
    with pytest.raises(PreconditionError):
        lattice_algebra_report(diamond, Cocycle.trivial(2))
