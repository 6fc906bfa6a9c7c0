"""Command-line interface: deterministic key-value reports over model files.

Every command reads a model file, answers one question, and prints a report
of ``key = value`` lines after ``command`` and ``model_sha256`` (no
timestamps; the digest ties a report to its input).  One table,
``_COMMANDS``, gives each command's handler, help text and arguments;
``build_parser`` builds the parser from it and ``main`` dispatches through
it.  A handler returns ``(key, value)`` pairs that ``main`` writes through
``_fmt``; a value of ``None`` omits its line, which is how every optional
line is made.  One read of the file gives the digest and the parse; an
in-process caller of ``main`` reuses the parser, and the last parsed model
while the bytes read have its sha256.  Exit codes: 0 success, 2 usage or
parse or unknown-name errors, 3 precondition failures (including size
limits), 4 internal verification failures.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import re
import sys

from .errors import ModelParseError, QtoricError, VerificationError
from .lattice_algebras import algebra_report, straighten
from .model import ModelFile, decode_model, parse_model
from .scalars_cocycles import (Cocycle, Scalar, are_cohomologous,
                               check_cocycle_identity)
from .semigroups import decompose, hilbert_function, regularity_report
from .twisted_algebra import TwistedAlgebra

DEFAULT_BOUND = 6
# argparse reads a token that starts with "-" and is not a plain negative
# number as an option, so a vector such as -2,1 never reaches its argument;
# main passes it in its bracket form [-2,1], the same vector.
_NEGATIVE_VECTOR = re.compile(r"-\d+(,-?\d+)+")


class _CliUsage(Exception):
    """Bad command-line input; maps to exit code 2."""


def _fmt(value) -> str:
    """``true``/``false``, a bracketed comma-joined list (nested for a matrix), or str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], (list, tuple)):
            return "[" + ",".join(map(_fmt, value)) + "]"
        return "[" + ",".join(map(str, value)) + "]"  # the common flat vector
    return str(value)


def _parse_vector(text: str) -> tuple[int, ...]:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    try:
        return tuple(int(p) for p in body.split(","))
    except ValueError:
        raise _CliUsage(f"expected a comma-separated integer vector, got {text!r}") from None


def _resolve_bound(args, model: ModelFile) -> int:
    if args.bound is not None:
        if args.bound < 0:
            raise _CliUsage("--bound must be nonnegative")
        return args.bound
    env = os.environ.get("QTORIC_BOUND")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise _CliUsage(f"QTORIC_BOUND must be an integer, got {env!r}") from None
        if value < 0:
            raise _CliUsage("QTORIC_BOUND must be nonnegative")
        return value
    if model.bound is not None:
        return model.bound
    return DEFAULT_BOUND


def _get(model: ModelFile, kind: str, name: str):
    try:
        return getattr(model, kind)(name)
    except KeyError as exc:
        raise _CliUsage(str(exc.args[0])) from exc


def _witness(pair) -> list:
    """The lines of a non-normality witness (g, p); none for None or (None, None)."""
    g, p = pair or (None, None)
    return [("witness_g", g), ("witness_p", p)]


# -- command handlers; each returns the report's (key, value) pairs ----------

def _cmd_analyze(args, model: ModelFile) -> list:
    s = _get(model, "semigroup", args.name)
    bound = _resolve_bound(args, model)
    return [
        ("semigroup", args.name), ("generators", s.generators),
        ("ambient_dim", s.ambient_dim), ("rank", s.rank), ("full", s.is_full()),
        ("positive", s.positive), ("pointed", s.is_pointed()),
        ("normal", (cert := s.normality()).normal),
        *_witness((cert.witness_g, cert.witness_p)),
        ("facet_count", len(s.facets()) if s.is_full() else None),
        ("hilbert_function", hilbert_function(s, bound) if s.positive else None),
        ("hilbert_bound", bound if s.positive else None),
    ]


def _cmd_normal(args, model: ModelFile) -> list:
    cert = _get(model, "semigroup", args.name).normality()
    return [
        ("semigroup", args.name), ("normal", cert.normal),
        ("saturation_hilbert_basis", cert.saturation_hilbert_basis),
        *_witness((cert.witness_g, cert.witness_p)),
    ]


def _cmd_facets(args, model: ModelFile) -> list:
    facets = _get(model, "semigroup", args.name).facets()
    pairs = [("semigroup", args.name), ("facet_count", len(facets))]
    for i, f in enumerate(facets):
        pairs += [(f"facet_{i}_normal", f.inner_normal),
                  (f"facet_{i}_incident", sorted(f.incident))]
    return pairs


def _cmd_decompose(args, model: ModelFile) -> list:
    s = _get(model, "semigroup", args.name)
    dec = decompose(s, _resolve_bound(args, model))
    pairs = [("semigroup", args.name), ("facet_count", len(dec.facet_semigroups)),
             ("verified_degree", dec.verified_to_degree)]
    for i, fs in enumerate(dec.facet_semigroups):
        pairs += [(f"facet_{i}_normal", fs.inner_normal),
                  (f"facet_{i}_units", fs.unit_basis),
                  (f"facet_{i}_transversal", fs.transversal),
                  (f"facet_{i}_positive", fs.positive_generators),
                  (f"facet_{i}_auxiliary_basis", fs.used_auxiliary_basis)]
    return pairs


def _cmd_regularity(args, model: ModelFile) -> list:
    rep = regularity_report(_get(model, "semigroup", args.name))
    return [
        ("semigroup", args.name), ("normal", rep.normal), *_witness(rep.normality_witness),
        ("as_cohen_macaulay", rep.as_cohen_macaulay), ("as_gorenstein", rep.as_gorenstein),
        ("gorenstein_witness", rep.gorenstein_witness), ("as_regular", rep.as_regular),
        ("maximal_order", rep.maximal_order),
        ("balanced_dualizing_complex", rep.has_balanced_dualizing_complex),
        ("rank", rep.rank),
    ]


def _cmd_embed_torus(args, model: ModelFile) -> list:
    s = _get(model, "semigroup", args.name)
    alpha = _get(model, "cocycle", args.cocycle)
    emb = TwistedAlgebra(s, alpha).torus_embedding()
    return [
        ("semigroup", args.name), ("cocycle", args.cocycle),
        *((f"pair_{i}", pair) for i, pair in enumerate(emb.pairs)),
        *((f"y_{i}", y) for i, y in enumerate(emb.y_monomials)),
        *((f"q_{i}", row) for i, row in enumerate(emb.q_matrix)),
        *((f"generator_{j}_scalar", emb.generator_scalars[g])
          for j, g in enumerate(s.generators)),
    ]


def _cmd_twist_check(args, model: ModelFile) -> list:
    s = _get(model, "semigroup", args.name)
    alpha = _get(model, "cocycle", args.cocycle)
    bound = _resolve_bound(args, model)
    TwistedAlgebra(s, alpha).twisting_system()
    return [("semigroup", args.name), ("cocycle", args.cocycle),
            ("axiom_verified_degree", min(bound, 3)), ("product_verified_degree", bound),
            ("twisting_system", "ok")]


def _cmd_cohomologous(args, model: ModelFile) -> list:
    alpha = _get(model, "cocycle", args.first)
    beta = _get(model, "cocycle", args.second)
    result = are_cohomologous(alpha, beta)
    pairs = [("first", args.first), ("second", args.second),
             ("cohomologous", result.cohomologous)]
    if result.cohomologous:
        w = result.witness
        quads = [(f"witness_quad:{p}", m) for p, m in zip(w.params, w.quad or ())
                 if any(map(any, m))]
        return pairs + (quads or [("witness", "trivial")])
    u, v = result.distinguishing_pair
    return pairs + [("distinguishing_pair", (u, v)),
                    ("first_ratio", alpha(u, v) / alpha(v, u)),
                    ("second_ratio", beta(u, v) / beta(v, u))]


def _cmd_multiply(args, model: ModelFile) -> list:
    s = _get(model, "semigroup", args.name)
    alpha = _get(model, "cocycle", args.cocycle)
    left = _parse_vector(args.left)
    right = _parse_vector(args.right)
    algebra = TwistedAlgebra(s, alpha)
    return [("semigroup", args.name), ("cocycle", args.cocycle), ("left", left),
            ("right", right),
            ("product", algebra.product(algebra.monomial(left), algebra.monomial(right)))]


def _cmd_straighten(args, model: ModelFile) -> list:
    lat = _get(model, "lattice", args.name)
    alpha = _get(model, "cocycle", args.cocycle)
    sg = model.straightening(args.name)
    try:
        word = [lat.index_of(w.strip()) for w in args.word.split(",") if w.strip()]
    except QtoricError as exc:
        raise _CliUsage(str(exc)) from exc
    scalar, standard = straighten(sg, alpha, word)
    return [("lattice", args.name), ("cocycle", args.cocycle),
            ("word", [lat.label(a) for a in word]), ("scalar", scalar),
            ("standard", standard.labels(lat)),
            ("standard_vector", sg.vector_of_word(standard.chain))]


def _cmd_lattice(args, model: ModelFile) -> list:
    lat = _get(model, "lattice", args.name)
    if args.cocycle is not None:
        alpha = _get(model, "cocycle", args.cocycle)
    else:
        alpha = Cocycle.trivial(len(lat.join_irreducibles()) + 1)
    report = algebra_report(model.straightening(args.name), alpha)
    sg = report.semigroup
    rep = report.regularity
    return [
        ("lattice", args.name), ("cocycle", args.cocycle or "trivial"),
        ("elements", lat.labels),
        ("irreducibles", [lat.label(p) for p in sg.birkhoff.irreducibles]),
        ("ambient_dim", sg.ambient_dim),
        *((f"vector_{lat.label(a)}", sg.vector_of[a]) for a in range(lat.size)),
        ("normal", rep.normal), ("as_cohen_macaulay", rep.as_cohen_macaulay),
        ("as_gorenstein", rep.as_gorenstein), ("as_regular", rep.as_regular),
        ("maximal_order", rep.maximal_order),
    ]


# name -> (handler, help, {argument: help}); an argument named "--x" is an
# option whose default is None
_COMMANDS = {
    "analyze": (_cmd_analyze, "overview report for a semigroup", {"name": None}),
    "normal": (_cmd_normal, "normality decision with certificate", {"name": None}),
    "facets": (_cmd_facets, "facets of the cone of a full semigroup", {"name": None}),
    "decompose": (_cmd_decompose, "intersection of facet semigroups, proved exactly",
                  {"name": None}),
    "regularity": (_cmd_regularity, "exact ring-theoretic profile", {"name": None}),
    "embed-torus": (_cmd_embed_torus, "embed the algebra into a quantum torus",
                    {"name": None, "cocycle": None}),
    "twist-check": (_cmd_twist_check, "verify the twisting system reconstructs the algebra",
                    {"name": None, "cocycle": None}),
    "cohomologous": (_cmd_cohomologous, "decide cohomology of two cocycles",
                     {"first": None, "second": None}),
    "multiply": (_cmd_multiply, "product of two monomials X^s * X^t",
                 {"name": None, "cocycle": None, "left": "exponent vector, e.g. 0,1",
                  "right": "exponent vector, e.g. 1,0"}),
    "straighten": (_cmd_straighten, "straighten a word of lattice elements to normal form",
                   {"name": None, "cocycle": None,
                    "word": "comma-separated element labels, e.g. b,a"}),
    "lattice": (_cmd_lattice, "full distributive-lattice algebra pipeline",
                {"name": None, "--cocycle": None}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtoric",
        description="Exact computations with twisted affine semigroup algebras.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, arguments) in _COMMANDS.items():
        sub = subs.add_parser(command, help=text)
        for argument, argument_help in arguments.items():
            sub.add_argument(argument, help=argument_help)
        sub.add_argument("--model", required=True, help="path to the model file")
        sub.add_argument("--bound", type=int, default=None,
                         help="the Hilbert-function degree of analyze, recorded by "
                              "decompose and twist-check (default: QTORIC_BOUND, then "
                              "the model's bound line, then 6)")
        sub.add_argument("--self-check-corrupt", action="store_true",
                         help=argparse.SUPPRESS)
    return parser


def _corrupted_self_check() -> None:
    """Run an identity check against a deliberately corrupted evaluator.

    The checker must flag the corruption; either way the process reports an
    internal verification failure, which exercises exit code 4 end to end.
    """
    alpha = Cocycle.bicharacter(2, {"q": [[0, 1], [0, 0]]})

    def bad(s, t):
        value = alpha(s, t)
        if s == (1, 0) and t == (0, 1):
            return value * Scalar.param("q")
        return value

    grid = [(0, 0), (1, 0), (0, 1), (1, 1)]
    failing = check_cocycle_identity(alpha, list(itertools.product(grid, repeat=3)),
                                     eval_fn=bad)
    if failing is None:
        raise VerificationError(
            "corrupted evaluation passed the cocycle identity check")
    raise VerificationError(
        f"self-check corruption detected at triple {failing}")


_parser: argparse.ArgumentParser | None = None  # built by the first main call
_model: tuple[str, ModelFile] | None = None  # the last model parsed, with its sha256


def _read_model(path: str) -> tuple[str, ModelFile]:
    """The sha256 of the file's bytes and the model they parse to, from one read."""
    global _model
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ModelParseError(f"cannot read model file: {exc}", 0, 0) from exc
    digest = hashlib.sha256(data).hexdigest()
    if _model is None or _model[0] != digest:
        _model = (digest, parse_model(decode_model(data)))
    return _model


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args([f"[{a}]" if _NEGATIVE_VECTOR.fullmatch(a) else a
                               for a in (sys.argv[1:] if argv is None else argv)])
    try:
        digest, model = _read_model(args.model)
        if args.self_check_corrupt:
            _corrupted_self_check()
        pairs = _COMMANDS[args.command][0](args, model)
        sys.stdout.write("".join(
            f"{key} = {_fmt(value)}\n"
            for key, value in [("command", args.command), ("model_sha256", digest), *pairs]
            if value is not None))
        return 0
    except (_CliUsage, ModelParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: internal verification failure: {exc}", file=sys.stderr)
        return 4
    except (QtoricError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
