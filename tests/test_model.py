from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtoric import ModelParseError, ScalarMonomial, load_model, parse_model

from .oracles import reference_parse_model

FULL_MODEL = """\
# a commented header line
semigroup A1 gens=[[1,0],[1,1],[1,2]]

cocycle shifted dim=2 params=[q] bichar:q=[[0,1],[0,0]] quad:q=[[0,1/2],[1/2,0]]
cocycle plain dim=2 params=[q] bichar:q=[[0,0],[-1,0]] lin:q=[1,0]
lattice D elements=[bot,x,y,top] covers=[[bot,x],[bot,y],[x,top],[y,top]]
bound 4  # trailing comment
"""


def test_minimal_file():
    m = parse_model("semigroup A1 gens=[[1,0],[1,1],[1,2]]")
    assert list(m.semigroups) == ["A1"]
    assert m.semigroup("A1").generators == ((1, 0), (1, 1), (1, 2))
    assert m.cocycles == {} and m.lattices == {}
    assert m.bound is None


def test_empty_text():
    m = parse_model("")
    assert m.semigroups == {} and m.bound is None
    assert parse_model("# only a comment\n\n").semigroups == {}


def test_full_grammar(shifted):
    m = parse_model(FULL_MODEL)
    assert m.bound == 4
    assert m.semigroup("A1").generators == ((1, 0), (1, 1), (1, 2))
    parsed = m.cocycle("shifted")
    for s, t in [((1, 0), (0, 1)), ((2, -1), (1, 3)), ((0, 2), (2, 0))]:
        assert parsed(s, t) == shifted(s, t)
    lat = m.lattice("D")
    assert lat.size == 4
    assert sorted(lat.label(p) for p in lat.join_irreducibles()) == ["x", "y"]


def test_negative_and_rational_entries():
    m = parse_model(
        "semigroup S gens=[[1,-1],[1,1]]\n"
        "cocycle c dim=1 params=[q] quad:q=[[-3/4]]")
    assert m.semigroup("S").generators == ((1, -1), (1, 1))
    f = m.cocycle("c").coboundary_value
    # f(s) = q^(-3/4 s^2), so f(2) = q^-3
    assert f((2,)) == ScalarMonomial.make(1, {"q": -3})
    assert f((1,)) == ScalarMonomial.make(1, {"q": Fraction(-3, 4)})


def test_cocycle_defaults_to_trivial():
    alpha = parse_model("cocycle t dim=2 params=[q]").cocycle("t")
    assert alpha((1, 2), (3, 4)) == ScalarMonomial.one()


def test_accessors_raise_keyerror():
    m = parse_model("semigroup A gens=[[2],[3]]")
    with pytest.raises(KeyError):
        m.cocycle("A")
    with pytest.raises(KeyError):
        m.lattice("nope")
    with pytest.raises(KeyError):
        m.semigroup("B")


def test_bound_directive():
    assert parse_model("bound 0").bound == 0
    assert parse_model("bound 12").bound == 12
    # a later bound line wins
    assert parse_model("bound 3\nbound 9").bound == 9


def test_error_positions():
    cases = [
        ("semigroup A gens=%", 1, 18, "unexpected character '%'"),
        ("bound -", 1, 7, "expected digits after '-'"),
        ("bound 1/0", 1, 8, "zero denominator"),
        ("bound", 1, 6, "expected number, found end of line"),
        ("bound 6 7", 1, 9, "unexpected trailing input"),
        ("semigroup A", 1, 1, "missing required field 'gens'"),
        ("semigroup A gens=[[1,0]] extra=[1]", 1, 26, "unknown field 'extra'"),
        ("semigroup A gens=[[1,0]] gens=[[2,0]]", 1, 26, "duplicate field 'gens'"),
        ("semigroup A gens=[]", 1, 13, "nonempty list of vectors"),
        ("semigroup A gens=[[1/2,0]]", 1, 13, "entries must be integers"),
        ("semigroup A gens=[[1,0],[1]]", 1, 13, "same length"),
        ("widget W foo=[1]", 1, 1, "unknown declaration 'widget'"),
        ("cocycle c dim=0 params=[q]", 1, 11, "dim must be a positive integer"),
        ("cocycle c dim=2 params=[q,q]", 1, 17, "duplicate parameter names"),
        ("cocycle c dim=2 params=[q] bichar=[[0,1],[0,0]]", 1, 28,
         "needs a parameter suffix"),
        ("cocycle c dim=2 params=[q] bichar:r=[[0,1],[0,0]]", 1, 28,
         "unknown parameter 'r'"),
        ("cocycle c dim=2 params=[q] bichar:q=[[0,1,2],[0,0,3]]", 1, 28,
         "must be a 2x2 matrix"),
        ("cocycle c dim=2 params=[q] bichar:q=[[0,1],[0,0],[0,0]]", 1, 28,
         "must be a 2x2 matrix"),
        ("cocycle c dim=2 params=[q] lin:q=[1,2,3]", 1, 28, "length 2"),
        ("cocycle c dim=2 params=[q] quad:q=[[0,1/0],[0,0]]", 1, 40,
         "zero denominator"),
        ("lattice L elements=[a,a] covers=[]", 1, 11, "duplicate element names"),
        ("lattice L elements=[a,b] covers=[[a,b,b]]", 1, 26,
         "[lower, upper] name pairs"),
        ("lattice L elements=[a,b] covers=[[a,zz]]", 1, 1, "unknown element"),
        ("semigroup A gens=[[1,0]]\ncocycle A dim=2 params=[q]", 2, 9,
         "already declared on line 1"),
        ("semigroup A gens=:", 1, 18, "expected a value"),
        ("semigroup A gens=[,]", 1, 19, "expected a value"),
        ("semigroup A gens=[[1:0]]", 1, 21, "expected ',' or ']'"),
        ("semigroup A gens=[[1,0]", 1, 24, "expected punct, found end of line"),
        ("semigroup A gens=[[1,0] x", 1, 25, "expected punct, found 'x'"),
        ("semigroup A gens=[[1,0]]]", 1, 25, "expected name, found ']'"),
        ("semigroup A gens=[[1/,0]]", 1, 21, "expected digits after '/'"),
        ("semigroup A gens", 1, 17, "expected =, found end of line"),
        ("semigroup 7 gens=[[1]]", 1, 11, "expected name, found '7'"),
        ("cocycle c dim=2 params=[q] bichar:=[[0]]", 1, 35, "expected name, found '='"),
        ("bound 1/2", 1, 7, "bound must be a nonnegative integer"),
        # beyond Python's 4,300-digit limit on integer strings
        ("bound " + "1" * 5000, 1, 7, "number has too many digits"),
        ("cocycle c dim=1 params=[q] quad:q=[[1/" + "1" * 5000 + "]]", 1, 37,
         "number has too many digits"),
        ("bound 1/" + "1" * 5000 + " \u00a7", 1, 5010, "unexpected character '\u00a7'"),
    ]
    for text, line, col, fragment in cases:
        with pytest.raises(ModelParseError) as exc:
            parse_model(text)
        assert exc.value.line == line, text
        assert exc.value.column == col, text
        assert fragment in str(exc.value), text


def test_non_lattice_covers_become_parse_errors():
    text = ("lattice M3 elements=[bot,a,b,c,top] "
            "covers=[[bot,a],[bot,b],[bot,c],[a,top],[b,top],[c,top]]")
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    assert exc.value.line == 1
    assert "witness" in str(exc.value)


def test_names_may_start_with_underscore():
    m = parse_model("semigroup _s gens=[[1]]")
    assert m.semigroup("_s").generators == ((1,),)


def test_load_model(tmp_path):
    p = tmp_path / "m.model"
    p.write_text(FULL_MODEL, encoding="utf-8")
    m = load_model(str(p))
    assert m.bound == 4 and list(m.lattices) == ["D"]
    with pytest.raises(ModelParseError) as exc:
        load_model(str(tmp_path / "missing.model"))
    assert exc.value.line == 0
    assert "cannot read model file" in str(exc.value)


def test_non_decimal_digits_are_unexpected_characters():
    # str.isdigit accepts these but int() does not; they must not reach it
    cases = [
        ("bound ²", 1, 7, "unexpected character '²'"),
        ("bound 1²", 1, 8, "unexpected character '²'"),
        ("bound -²", 1, 7, "expected digits after '-'"),
        ("bound 1/²", 1, 8, "expected digits after '/'"),
        ("semigroup A gens=[[½]]", 1, 20, "unexpected character '½'"),
        ("bound 1/٠", 1, 8, "zero denominator"),
    ]
    for text, line, col, fragment in cases:
        with pytest.raises(ModelParseError) as exc:
            parse_model(text)
        assert (exc.value.line, exc.value.column) == (line, col), text
        assert fragment in str(exc.value), text
    # decimal digits of any script are numbers, and letters of any script names
    m = parse_model("semigroup é٣ gens=[[٣],[2]]\nbound ٤")
    assert m.semigroup("é٣").generators == ((3,), (2,))
    assert m.bound == 4


VALID_LINES = [
    "semigroup A1 gens=[[1,0],[1,1],[1,2]]",
    "semigroup S gens=[[1,-1],[1,1]]  # a comment",
    "cocycle c dim=2 params=[q,r] bichar:q=[[0,1],[0,0]] quad:r=[[0,1/2],[1/2,0]] lin:q=[1,-3/4]",
    "cocycle t dim=1 params=[q]",
    "lattice D elements=[bot,x,y,top] covers=[[bot,x],[bot,y],[x,top],[y,top]]",
    "lattice C elements=[a,b,c] covers=[[a,b],[b,c]]",
    "\tbound 4",
    "",
    "# only a comment",
]
MUTATION_TEXT = [" ", "\t", "[", "]", ",", "=", ":", "-", "/", "#", "_", "0", "7", "12",
                 "1/0", "a", "q", "x", "gens", "bound", "é", "٣", "²", "½", "\u00a0", "[[", "]]",
                 "=:", ":=", "=,", "[,", ",]", "[]", "=]", "-1/", "/2", "//"]


@st.composite
def mutated_models(draw):
    lines = draw(st.lists(st.sampled_from(VALID_LINES), min_size=1, max_size=4,
                         unique=True))
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        i = draw(st.integers(0, len(line)))
        j = draw(st.integers(i, min(len(line), i + 4)))
        op = draw(st.sampled_from(["insert", "delete", "replace", "repeat"]))
        if op == "insert":
            line = line[:i] + draw(st.sampled_from(MUTATION_TEXT)) + line[i:]
        elif op == "delete":
            line = line[:i] + line[j:]
        elif op == "replace":
            line = line[:i] + draw(st.sampled_from(MUTATION_TEXT)) + line[j:]
        else:
            line = line[:j] + line[i:j] + line[j:]
        lines[k] = line
    return "\n".join(lines)


def _outcome(parse, text):
    try:
        m = parse(text)
    except ModelParseError as exc:
        return ("refused", str(exc), exc.line, exc.column)
    return ("parsed",
            {name: s.generators for name, s in m.semigroups.items()},
            m.cocycles,
            {name: (lat.labels, lat.leq, lat.meet, lat.join)
             for name, lat in m.lattices.items()},
            m.bound)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_models())
def test_parser_agrees_with_reference_on_mutated_models(text):
    assert _outcome(parse_model, text) == _outcome(reference_parse_model, text)


def test_reference_parser_agrees_on_valid_models():
    text = "\n".join(VALID_LINES)
    outcome = _outcome(parse_model, text)
    assert outcome[0] == "parsed" and outcome[-1] == 4
    assert outcome == _outcome(reference_parse_model, text)
