"""Command-line interface: deterministic key-value reports over model files.

Every command reads a model file, answers one question, and prints a report
of ``key = value`` lines (no timestamps; the model digest ties a report to
its input).  The digest and the parse come from one read of the file.  An
in-process caller of ``main`` reuses the argument parser, and the last
parsed model while the bytes just read have its sha256; a one-shot
``python -m qtoric`` process reads and parses its model once.  Exit codes:
0 success, 2 usage or parse or unknown-name errors, 3 precondition failures
(including size limits), 4 internal verification failures.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import sys

from .errors import ModelParseError, QtoricError, VerificationError
from .lattice_algebras import algebra_report, straighten
from .model import ModelFile, parse_model
from .scalars_cocycles import (Cocycle, Scalar, are_cohomologous,
                               check_cocycle_identity)
from .semigroups import decompose, hilbert_function, regularity_report
from .twisted_algebra import TwistedAlgebra

DEFAULT_BOUND = 6


class _CliUsage(Exception):
    """Bad command-line input; maps to exit code 2."""


def _fmt_num(x) -> str:
    return str(x)


def _fmt_vec(v) -> str:
    return "[" + ",".join(_fmt_num(x) for x in v) + "]"


def _fmt_mat(m) -> str:
    return "[" + ",".join(_fmt_vec(row) for row in m) + "]"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _parse_vector(text: str) -> tuple[int, ...]:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    try:
        return tuple(int(p.strip()) for p in body.split(",") if p.strip() != "")
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


# -- command handlers; each returns the report lines after the header ---------

def _cmd_analyze(args, model: ModelFile) -> list[str]:
    s = _get(model, "semigroup", args.name)
    bound = _resolve_bound(args, model)
    lines = [
        f"semigroup = {args.name}",
        f"generators = {_fmt_mat(s.generators)}",
        f"ambient_dim = {s.ambient_dim}",
        f"rank = {s.rank}",
        f"full = {_fmt_bool(s.is_full())}",
        f"positive = {_fmt_bool(s.positive)}",
        f"pointed = {_fmt_bool(s.is_pointed())}",
    ]
    cert = s.normality()
    lines.append(f"normal = {_fmt_bool(cert.normal)}")
    if not cert.normal:
        lines.append(f"witness_g = {_fmt_vec(cert.witness_g)}")
        lines.append(f"witness_p = {cert.witness_p}")
    if s.is_full():
        lines.append(f"facet_count = {len(s.facets())}")
    if s.positive:
        counts = hilbert_function(s, bound)
        lines.append(f"hilbert_function = {_fmt_vec(counts)}")
        lines.append(f"hilbert_bound = {bound}")
    return lines


def _cmd_normal(args, model: ModelFile) -> list[str]:
    s = _get(model, "semigroup", args.name)
    cert = s.normality()
    lines = [
        f"semigroup = {args.name}",
        f"normal = {_fmt_bool(cert.normal)}",
        f"saturation_hilbert_basis = {_fmt_mat(cert.saturation_hilbert_basis)}",
    ]
    if not cert.normal:
        lines.append(f"witness_g = {_fmt_vec(cert.witness_g)}")
        lines.append(f"witness_p = {cert.witness_p}")
    return lines


def _cmd_facets(args, model: ModelFile) -> list[str]:
    s = _get(model, "semigroup", args.name)
    facets = s.facets()
    lines = [f"semigroup = {args.name}", f"facet_count = {len(facets)}"]
    for i, f in enumerate(facets):
        lines.append(f"facet_{i}_normal = {_fmt_vec(f.inner_normal)}")
        lines.append(f"facet_{i}_incident = {_fmt_vec(sorted(f.incident))}")
    return lines


def _cmd_decompose(args, model: ModelFile) -> list[str]:
    s = _get(model, "semigroup", args.name)
    bound = _resolve_bound(args, model)
    dec = decompose(s, bound)
    lines = [
        f"semigroup = {args.name}",
        f"facet_count = {len(dec.facet_semigroups)}",
        f"verified_degree = {dec.verified_to_degree}",
    ]
    for i, fs in enumerate(dec.facet_semigroups):
        lines.append(f"facet_{i}_normal = {_fmt_vec(fs.inner_normal)}")
        lines.append(f"facet_{i}_units = {_fmt_mat(fs.unit_basis)}")
        lines.append(f"facet_{i}_transversal = {_fmt_vec(fs.transversal)}")
        lines.append(f"facet_{i}_positive = {_fmt_mat(fs.positive_generators)}")
        lines.append(f"facet_{i}_auxiliary_basis = {_fmt_bool(fs.used_auxiliary_basis)}")
    return lines


def _cmd_regularity(args, model: ModelFile) -> list[str]:
    s = _get(model, "semigroup", args.name)
    rep = regularity_report(s)
    lines = [
        f"semigroup = {args.name}",
        f"normal = {_fmt_bool(rep.normal)}",
    ]
    if rep.normality_witness is not None:
        g, p = rep.normality_witness
        lines.append(f"witness_g = {_fmt_vec(g)}")
        lines.append(f"witness_p = {p}")
    lines.extend([
        f"as_cohen_macaulay = {rep.as_cohen_macaulay}",
        f"as_gorenstein = {rep.as_gorenstein}",
    ])
    if rep.gorenstein_witness is not None:
        lines.append(f"gorenstein_witness = {_fmt_vec(rep.gorenstein_witness)}")
    lines.extend([
        f"as_regular = {_fmt_bool(rep.as_regular)}",
        f"maximal_order = {_fmt_bool(rep.maximal_order)}",
        f"balanced_dualizing_complex = {_fmt_bool(rep.has_balanced_dualizing_complex)}",
        f"rank = {rep.rank}",
    ])
    return lines


def _cmd_embed_torus(args, model: ModelFile) -> list[str]:
    s = _get(model, "semigroup", args.name)
    alpha = _get(model, "cocycle", args.cocycle)
    algebra = TwistedAlgebra(s, alpha)
    emb = algebra.torus_embedding()
    lines = [f"semigroup = {args.name}", f"cocycle = {args.cocycle}"]
    for i, (sv, tv) in enumerate(emb.pairs):
        lines.append(f"pair_{i} = [{_fmt_vec(sv)},{_fmt_vec(tv)}]")
    for i, y in enumerate(emb.y_monomials):
        lines.append(f"y_{i} = {y}")
    for i, row in enumerate(emb.q_matrix):
        lines.append(f"q_{i} = [" + ",".join(str(x) for x in row) + "]")
    for j, g in enumerate(s.generators):
        lines.append(f"generator_{j}_scalar = {emb.generator_scalars[g]}")
    return lines


def _cmd_twist_check(args, model: ModelFile) -> list[str]:
    s = _get(model, "semigroup", args.name)
    alpha = _get(model, "cocycle", args.cocycle)
    bound = _resolve_bound(args, model)
    TwistedAlgebra(s, alpha).twisting_system()
    return [
        f"semigroup = {args.name}",
        f"cocycle = {args.cocycle}",
        f"axiom_verified_degree = {min(bound, 3)}",
        f"product_verified_degree = {bound}",
        "twisting_system = ok",
    ]


def _cmd_cohomologous(args, model: ModelFile) -> list[str]:
    alpha = _get(model, "cocycle", args.first)
    beta = _get(model, "cocycle", args.second)
    result = are_cohomologous(alpha, beta)
    lines = [
        f"first = {args.first}",
        f"second = {args.second}",
        f"cohomologous = {_fmt_bool(result.cohomologous)}",
    ]
    if result.cohomologous:
        w = result.witness
        if w.quad is None or all(not any(any(row) for row in m) for m in w.quad):
            lines.append("witness = trivial")
        else:
            for k, p in enumerate(w.params):
                if any(any(row) for row in w.quad[k]):
                    lines.append(f"witness_quad:{p} = {_fmt_mat(w.quad[k])}")
    else:
        u, v = result.distinguishing_pair
        lines.append(f"distinguishing_pair = [{_fmt_vec(u)},{_fmt_vec(v)}]")
        lines.append(f"first_ratio = {alpha(u, v) / alpha(v, u)}")
        lines.append(f"second_ratio = {beta(u, v) / beta(v, u)}")
    return lines


def _cmd_multiply(args, model: ModelFile) -> list[str]:
    s = _get(model, "semigroup", args.name)
    alpha = _get(model, "cocycle", args.cocycle)
    left = _parse_vector(args.left)
    right = _parse_vector(args.right)
    algebra = TwistedAlgebra(s, alpha)
    product = algebra.product(algebra.monomial(left), algebra.monomial(right))
    return [
        f"semigroup = {args.name}",
        f"cocycle = {args.cocycle}",
        f"left = {_fmt_vec(left)}",
        f"right = {_fmt_vec(right)}",
        f"product = {product}",
    ]


def _cmd_straighten(args, model: ModelFile) -> list[str]:
    lat = _get(model, "lattice", args.name)
    alpha = _get(model, "cocycle", args.cocycle)
    sg = model.straightening(args.name)
    try:
        word = [lat.index_of(w.strip()) for w in args.word.split(",") if w.strip()]
    except QtoricError as exc:
        raise _CliUsage(str(exc)) from exc
    scalar, standard = straighten(sg, alpha, word)
    labels = standard.labels(lat)
    return [
        f"lattice = {args.name}",
        f"cocycle = {args.cocycle}",
        "word = [" + ",".join(lat.label(a) for a in word) + "]",
        f"scalar = {scalar}",
        "standard = [" + ",".join(labels) + "]",
        f"standard_vector = {_fmt_vec(sg.vector_of_word(standard.chain))}",
    ]


def _cmd_lattice(args, model: ModelFile) -> list[str]:
    lat = _get(model, "lattice", args.name)
    if args.cocycle is not None:
        alpha = _get(model, "cocycle", args.cocycle)
    else:
        alpha = Cocycle.trivial(len(lat.join_irreducibles()) + 1)
    report = algebra_report(model.straightening(args.name), alpha)
    sg = report.semigroup
    rep = report.regularity
    lines = [
        f"lattice = {args.name}",
        f"cocycle = {args.cocycle if args.cocycle is not None else 'trivial'}",
        "elements = [" + ",".join(lat.labels) + "]",
        "irreducibles = [" + ",".join(lat.label(p) for p in sg.birkhoff.irreducibles) + "]",
        f"ambient_dim = {sg.ambient_dim}",
    ]
    for a in range(lat.size):
        lines.append(f"vector_{lat.label(a)} = {_fmt_vec(sg.vector_of[a])}")
    lines.extend([
        f"normal = {_fmt_bool(rep.normal)}",
        f"as_cohen_macaulay = {rep.as_cohen_macaulay}",
        f"as_gorenstein = {rep.as_gorenstein}",
        f"as_regular = {_fmt_bool(rep.as_regular)}",
        f"maximal_order = {_fmt_bool(rep.maximal_order)}",
    ])
    return lines


_HANDLERS = {
    "analyze": _cmd_analyze,
    "normal": _cmd_normal,
    "facets": _cmd_facets,
    "decompose": _cmd_decompose,
    "regularity": _cmd_regularity,
    "embed-torus": _cmd_embed_torus,
    "twist-check": _cmd_twist_check,
    "cohomologous": _cmd_cohomologous,
    "multiply": _cmd_multiply,
    "straighten": _cmd_straighten,
    "lattice": _cmd_lattice,
}


def _add_common(sub):
    sub.add_argument("--model", required=True, help="path to the model file")
    sub.add_argument("--bound", type=int, default=None,
                     help="degree bound for bounded verifications "
                          "(default: QTORIC_BOUND, then the model's bound line, then 6)")
    sub.add_argument("--self-check-corrupt", action="store_true",
                     help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtoric",
        description="Exact computations with twisted affine semigroup algebras.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="overview report for a semigroup")
    p.add_argument("name")
    _add_common(p)

    p = subs.add_parser("normal", help="normality decision with certificate")
    p.add_argument("name")
    _add_common(p)

    p = subs.add_parser("facets", help="facets of the cone of a full semigroup")
    p.add_argument("name")
    _add_common(p)

    p = subs.add_parser("decompose",
                        help="intersection of facet semigroups, proved exactly")
    p.add_argument("name")
    _add_common(p)

    p = subs.add_parser("regularity", help="exact ring-theoretic profile")
    p.add_argument("name")
    _add_common(p)

    p = subs.add_parser("embed-torus", help="embed the algebra into a quantum torus")
    p.add_argument("name")
    p.add_argument("cocycle")
    _add_common(p)

    p = subs.add_parser("twist-check",
                        help="verify the twisting system reconstructs the algebra")
    p.add_argument("name")
    p.add_argument("cocycle")
    _add_common(p)

    p = subs.add_parser("cohomologous", help="decide cohomology of two cocycles")
    p.add_argument("first")
    p.add_argument("second")
    _add_common(p)

    p = subs.add_parser("multiply", help="product of two monomials X^s * X^t")
    p.add_argument("name")
    p.add_argument("cocycle")
    p.add_argument("left", help="exponent vector, e.g. 0,1")
    p.add_argument("right", help="exponent vector, e.g. 1,0")
    _add_common(p)

    p = subs.add_parser("straighten",
                        help="straighten a word of lattice elements to normal form")
    p.add_argument("name")
    p.add_argument("cocycle")
    p.add_argument("word", help="comma-separated element labels, e.g. b,a")
    _add_common(p)

    p = subs.add_parser("lattice", help="full distributive-lattice algebra pipeline")
    p.add_argument("name")
    p.add_argument("--cocycle", default=None)
    _add_common(p)

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
        _model = (digest, parse_model(data.decode("utf-8")))
    return _model


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        digest, model = _read_model(args.model)
        if args.self_check_corrupt:
            _corrupted_self_check()
        lines = _HANDLERS[args.command](args, model)
        header = [f"command = {args.command}", f"model_sha256 = {digest}"]
        sys.stdout.write("\n".join(header + lines) + "\n")
        return 0
    except _CliUsage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelParseError as exc:
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
