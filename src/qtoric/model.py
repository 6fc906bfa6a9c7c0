"""Line-oriented model files describing semigroups, cocycles, and lattices.

Grammar, one declaration per line ('#' starts a comment):

    semigroup NAME gens=[[1,0],[1,1],[1,2]]
    cocycle NAME dim=2 params=[q] bichar:q=[[0,1],[0,0]] quad:q=[[0,1/2],[1/2,0]] lin:q=[0,0]
    lattice NAME elements=[a,b,c,d] covers=[[a,b],[a,c],[b,d],[c,d]]
    bound 6

Numbers are integers or rationals p/q in decimal digits; names are a letter
or '_' followed by letters, digits or '_'.
Keys may carry a parameter suffix (bichar:q).  Errors carry line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .errors import ModelParseError, QtoricError
from .lattice_algebras import DistLattice, StrSemigroup, straightening_semigroup
from .scalars_cocycles import Cocycle
from .semigroups import AffineSemigroup

_PUNCT = "[],=:"
_TOKEN = re.compile(r"([\[\],=:]|-?\d+(?:/\d*)?|[^\W\d]\w*)")
_BAD_DEN = re.compile(r"/0*(?!\d)")


def _is_number(tok: str) -> bool:
    return tok[0] == "-" or tok[0].isdecimal()


def _number(tok: str, lineno: int, col: int) -> int | Fraction:
    num, _, den = tok.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else int(num)
    except ValueError:  # more digits than Python converts to an integer
        raise ModelParseError("number has too many digits", lineno, col) from None


def _check_lexemes(parts: list[str], lineno: int) -> None:
    """Raise the first lexical error of a line split by ``_TOKEN`` (tokens at odd positions)."""
    col = 1
    for k, part in enumerate(parts):
        rest = "" if k % 2 else part.lstrip(" \t")  # what follows a gap's blanks
        if rest:
            message = ("expected digits after '-'" if rest[0] == "-"
                       else f"unexpected character {rest[0]!r}")
            raise ModelParseError(message, lineno, col + len(part) - len(rest))
        den = part.partition("/")[2]
        if k % 2 and "/" in part and not any(map(int, den)):
            message = "zero denominator" if den else "expected digits after '/'"
            raise ModelParseError(message, lineno, col + part.index("/"))
        if k % 2 and not (_is_number(part) or part[0] in _PUNCT + "_" or part[0].isalpha()):
            raise ModelParseError(f"unexpected character {part[0]!r}", lineno, col)
        col += len(part)


class _Cursor:
    """One line's token texts, their 1-based columns and a read position.

    Only a line whose gaps between tokens hold more than blanks, or that has
    non-ASCII text or a denominator that is empty or zero, is checked for
    lexical errors.
    """

    __slots__ = ("toks", "cols", "pos", "lineno", "end_col")

    def __init__(self, line: str, lineno: int):
        code = line.split("#", 1)[0]
        parts = _TOKEN.split(code)
        if "".join(parts[::2]).strip(" \t") or not code.isascii() or _BAD_DEN.search(code):
            _check_lexemes(parts, lineno)
        self.toks = parts[1::2]
        self.cols = list(accumulate(map(len, parts), initial=1))[1::2]
        self.pos = 0
        self.lineno = lineno
        self.end_col = len(line) + 1

    def peek(self) -> str | None:
        return None if self.pos >= len(self.toks) else self.toks[self.pos]

    def col(self) -> int:
        """Column of the token taken last."""
        return self.cols[self.pos - 1]

    def fail(self, message: str):
        col = self.end_col if self.peek() is None else self.cols[self.pos]
        raise ModelParseError(message, self.lineno, col)

    def take(self, kind: str | None = None, text: str | None = None) -> str:
        t = self.peek()
        if t is None:
            self.fail(f"expected {text or kind}, found end of line")
        if kind is not None and kind != ("punct" if t[0] in _PUNCT else
                                         "number" if _is_number(t) else "name"):
            self.fail(f"expected {text or kind}, found {t!r}")
        if text is not None and t != text:
            self.fail(f"expected {text!r}, found {t!r}")
        self.pos += 1
        return t


def _parse_value(cur: _Cursor):
    """A number, a name, or a bracketed comma-separated list of values."""
    toks, i, n = cur.toks, cur.pos, len(cur.toks)
    open_lists: list[list] = []
    while True:
        if i >= n or toks[i][0] in "],=:":
            cur.pos = i
            cur.fail("expected a value")
        t = toks[i]
        i += 1
        if t == "[" and (i >= n or toks[i] != "]"):
            open_lists.append([])
            continue
        value = [] if t == "[" else _number(t, cur.lineno, cur.cols[i - 1]) if _is_number(t) else t
        i += t == "["  # the "]" of an empty list
        while open_lists:
            open_lists[-1].append(value)
            if i >= n or toks[i] not in (",", "]"):
                cur.pos = i
                cur.take("punct")
                raise ModelParseError("expected ',' or ']'", cur.lineno, cur.col())
            i += 1
            if toks[i - 1] == ",":
                break
            value = open_lists.pop()
        else:
            cur.pos = i
            return value


@dataclass(frozen=True)
class _Field:
    value: object
    line: int
    col: int


def _parse_fields(cur: _Cursor) -> dict[tuple[str, str | None], _Field]:
    fields: dict[tuple[str, str | None], _Field] = {}
    while cur.peek() is not None:
        name = cur.take("name")
        col = cur.col()
        param = None
        if cur.peek() == ":":
            cur.pos += 1
            param = cur.take("name")
        cur.take("punct", "=")
        value = _parse_value(cur)
        if (name, param) in fields:
            raise ModelParseError(f"duplicate field {name!r}", cur.lineno, col)
        fields[(name, param)] = _Field(value, cur.lineno, col)
    return fields


def _require(fields, key: str, lineno: int, param: str | None = None) -> _Field:
    f = fields.pop((key, param), None)
    if f is None:
        label = f"{key}:{param}" if param else key
        raise ModelParseError(f"missing required field {label!r}", lineno, 1)
    return f


def _reject_extras(fields, what: str):
    for (key, param), f in fields.items():
        label = f"{key}:{param}" if param else key
        raise ModelParseError(f"unknown field {label!r} for {what}", f.line, f.col)


def _int_list_list(f: _Field, what: str) -> list[list[int]]:
    v = f.value
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise ModelParseError(f"{what} must be a nonempty list of vectors", f.line, f.col)
    out = []
    for row in v:
        if not all(isinstance(x, int) for x in row):
            raise ModelParseError(f"{what} entries must be integers", f.line, f.col)
        out.append(list(row))
    return out


def _number_list_list(f: _Field, what: str) -> list[list[Fraction]]:
    v = f.value
    if not isinstance(v, list) or not all(isinstance(r, list) for r in v):
        raise ModelParseError(f"{what} must be a list of rows", f.line, f.col)
    out = []
    for row in v:
        if not all(isinstance(x, (int, Fraction)) for x in row):
            raise ModelParseError(f"{what} entries must be numbers", f.line, f.col)
        out.append([Fraction(x) for x in row])
    return out


def _number_list(f: _Field, what: str) -> list[Fraction]:
    v = f.value
    if not isinstance(v, list) or not all(isinstance(x, (int, Fraction)) for x in v):
        raise ModelParseError(f"{what} must be a list of numbers", f.line, f.col)
    return [Fraction(x) for x in v]


def _name_list(f: _Field, what: str) -> list[str]:
    v = f.value
    if not isinstance(v, list) or not v or not all(isinstance(x, str) for x in v):
        raise ModelParseError(f"{what} must be a nonempty list of names", f.line, f.col)
    return list(v)


@dataclass(frozen=True)
class ModelFile:
    """Parsed model: named objects plus an optional default degree bound."""

    semigroups: dict[str, AffineSemigroup]
    cocycles: dict[str, Cocycle]
    lattices: dict[str, DistLattice]
    bound: int | None
    # straightening semigroups by lattice name, built on first use and kept
    # with the model, so their normality and facet caches outlive one command
    _straightening: dict[str, StrSemigroup] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def semigroup(self, name: str) -> AffineSemigroup:
        if name not in self.semigroups:
            raise KeyError(f"model defines no semigroup named {name!r}")
        return self.semigroups[name]

    def cocycle(self, name: str) -> Cocycle:
        if name not in self.cocycles:
            raise KeyError(f"model defines no cocycle named {name!r}")
        return self.cocycles[name]

    def lattice(self, name: str) -> DistLattice:
        if name not in self.lattices:
            raise KeyError(f"model defines no lattice named {name!r}")
        return self.lattices[name]

    def straightening(self, name: str) -> StrSemigroup:
        """The straightening semigroup of the named lattice, built once per model."""
        if name not in self._straightening:
            self._straightening[name] = straightening_semigroup(self.lattice(name))
        return self._straightening[name]


def _parse_semigroup(fields: dict, lineno: int) -> AffineSemigroup:
    gens = _require(fields, "gens", lineno)
    _reject_extras(fields, "semigroup")
    vectors = _int_list_list(gens, "gens")
    width = len(vectors[0])
    if any(len(v) != width for v in vectors):
        raise ModelParseError("generators must all have the same length",
                              gens.line, gens.col)
    try:
        return AffineSemigroup(vectors)
    except (QtoricError, ValueError) as exc:
        raise ModelParseError(str(exc), gens.line, gens.col) from exc


def _parse_cocycle(fields: dict, lineno: int) -> Cocycle:
    dim_f = _require(fields, "dim", lineno)
    if not isinstance(dim_f.value, int) or dim_f.value < 1:
        raise ModelParseError("dim must be a positive integer", dim_f.line, dim_f.col)
    dim = dim_f.value
    params_f = _require(fields, "params", lineno)
    params = _name_list(params_f, "params")
    if len(set(params)) != len(params):
        raise ModelParseError("duplicate parameter names", params_f.line, params_f.col)
    bichar = {}
    quad = {}
    lin = {}
    for (key, param), f in list(fields.items()):
        if key not in ("bichar", "quad", "lin"):
            continue
        if param is None:
            raise ModelParseError(f"{key} needs a parameter suffix, e.g. {key}:q",
                                  f.line, f.col)
        if param not in params:
            raise ModelParseError(f"{key} names unknown parameter {param!r}",
                                  f.line, f.col)
        del fields[(key, param)]
        if key == "bichar":
            rows = _int_list_list(f, "bichar")
        elif key == "quad":
            rows = _number_list_list(f, "quad")
        else:
            rows = _number_list(f, "lin")
        if key != "lin" and (len(rows) != dim or any(len(r) != dim for r in rows)):
            raise ModelParseError(f"{key} must be a {dim}x{dim} matrix", f.line, f.col)
        if key == "lin" and len(rows) != dim:
            raise ModelParseError(f"lin must have length {dim}", f.line, f.col)
        {"bichar": bichar, "quad": quad, "lin": lin}[key][param] = rows
    _reject_extras(fields, "cocycle")
    zero = [[0] * dim for _ in range(dim)]
    try:
        alpha = Cocycle(dim, tuple(params),
                        tuple(tuple(map(tuple, bichar.get(p, zero))) for p in params))
        if quad or lin:
            alpha = alpha.with_coboundary(quad or None, lin or None)
        return alpha
    except (QtoricError, ValueError, TypeError) as exc:
        raise ModelParseError(str(exc), lineno, 1) from exc


def _parse_lattice(fields: dict, lineno: int) -> DistLattice:
    elements_f = _require(fields, "elements", lineno)
    covers_f = _require(fields, "covers", lineno)
    _reject_extras(fields, "lattice")
    labels = _name_list(elements_f, "elements")
    if len(set(labels)) != len(labels):
        raise ModelParseError("duplicate element names", elements_f.line, elements_f.col)
    covers_v = covers_f.value
    if not isinstance(covers_v, list) or not all(
            isinstance(c, list) and len(c) == 2 and all(isinstance(x, str) for x in c)
            for c in covers_v):
        raise ModelParseError("covers must be a list of [lower, upper] name pairs",
                              covers_f.line, covers_f.col)
    try:
        return DistLattice.from_covers(labels, [tuple(c) for c in covers_v])
    except QtoricError as exc:
        raise ModelParseError(str(exc), lineno, 1) from exc


_BUILDERS = {"semigroup": _parse_semigroup, "cocycle": _parse_cocycle,
             "lattice": _parse_lattice}


def parse_model(text: str) -> ModelFile:
    objects: dict[str, dict] = {kind: {} for kind in _BUILDERS}
    bound: int | None = None
    taken: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        cur = _Cursor(line, lineno)
        if cur.peek() is None:
            continue
        head = cur.take("name")
        if head == "bound":
            value = _number(cur.take("number"), lineno, cur.col())
            if not isinstance(value, int) or value < 0:
                raise ModelParseError("bound must be a nonnegative integer",
                                      lineno, cur.col())
            if cur.peek() is not None:
                cur.fail("unexpected trailing input after bound")
            bound = value
            continue
        if head not in _BUILDERS:
            raise ModelParseError(
                f"unknown declaration {head!r} "
                "(expected semigroup, cocycle, lattice, or bound)",
                lineno, cur.col())
        name = cur.take("name")
        if name in taken:
            raise ModelParseError(
                f"name {name!r} already declared on line {taken[name]}",
                lineno, cur.col())
        taken[name] = lineno
        objects[head][name] = _BUILDERS[head](_parse_fields(cur), lineno)
    return ModelFile(objects["semigroup"], objects["cocycle"], objects["lattice"], bound)


def decode_model(data: bytes) -> str:
    """The text of a model file's bytes; bytes that are not UTF-8 are a parse error."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines are counted as parse_model counts them; the column counts
        # bytes (the "." stands for the bad byte, so it is 1-based)
        lines = (data[:exc.start].decode("utf-8") + ".").splitlines()
        raise ModelParseError("model file is not valid UTF-8", len(lines),
                              len(lines[-1].encode("utf-8"))) from None


def load_model(path: str) -> ModelFile:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ModelParseError(f"cannot read model file: {exc}", 0, 0) from exc
    return parse_model(decode_model(data))
