"""The oracles must reject deliberately corrupted answers.

Each case checks a right answer (which must pass) and a corrupted copy of
it (which must be rejected): a scalar exponent off by one, a dropped facet,
a reducible Hilbert-basis element, a flipped Gorenstein flag, and a CLI
report whose model digest does not match.  run.py runs this before every
benchmark run; ``python3 bench/selftest.py`` runs it alone.
"""

from __future__ import annotations

import hashlib
import random
import sys

import checks
import oracles
import posets
from oracles import CheckError


def _rejects(fn, *args):
    try:
        fn(*args)
    except CheckError:
        return True
    return False


def cases():
    form = oracles.CocycleForm(3, ["q"], [[[0, 1, 0], [0, 0, 0], [1, 0, 0]]])
    word = [(1, 0, 1), (1, 1, 0)]
    chain = [(1, 0, 0), (1, 1, 1)]
    want = oracles.sub(form.chain_exponents(word), form.chain_exponents(chain))
    right = (1, want)
    wrong = (1, {p: e + 1 for p, e in want.items()})
    yield ("scalar exponent off by one", oracles.check_scalar, (right, want, "straighten"),
           (wrong, want, "straighten"))

    gens = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 2, 1)]
    facets = sorted(oracles.brute_facets(gens).items())
    yield ("dropped facet", oracles.check_facets, (gens, facets, random.Random(1)),
           (gens, facets[1:], random.Random(1)))

    cf = checks.ConeFacts([(1, 0), (1, 1), (1, 2)])
    hb = [(1, 0), (1, 1), (1, 2)]
    yield ("reducible Hilbert-basis element", checks.check_hilbert_basis, (cf, hb),
           (cf, hb + [(2, 1)]))

    pure = (3, ((0, 1), (0, 2)))        # one element below two: both maximal chains have 2
    impure = (4, ((0, 1), (1, 2)))      # a 3-chain beside a single point
    for poset, name in ((pure, "pure"), (impure, "impure")):
        gens = [tuple([1] + [int(e in i) for e in range(poset[0])])
                for i in posets.down_sets(poset)]
        hibi = checks.ConeFacts(gens)
        flag = "yes" if posets.is_pure(poset) else "no"
        flipped = "no" if flag == "yes" else "yes"
        yield (f"flipped Gorenstein flag ({name} poset)", checks.check_gorenstein,
               (hibi, flag, None, gens, poset), (hibi, flipped, None, gens, poset))

    model = b"semigroup A1 gens=[[1,0],[1,1],[1,2]]\n"
    oracle = checks.CliOracle(model)
    good = oracles.parse_report("\n".join([
        "command = analyze", f"model_sha256 = {hashlib.sha256(model).hexdigest()}",
        "semigroup = A1", "generators = [[1,0],[1,1],[1,2]]", "ambient_dim = 2", "rank = 2",
        "full = true", "positive = true", "pointed = true", "normal = true",
        "facet_count = 2", "hilbert_function = [1,1,2,3,3]", "hilbert_bound = 4"]))
    bad = dict(good, model_sha256=hashlib.sha256(model + b"\n").hexdigest())
    argv = ["analyze", "A1", "--bound", "4"]
    yield ("CLI report with a wrong model digest", oracle.check, (argv, dict(good)),
           (argv, bad))


def run():
    """Problems found; empty when every oracle passes right answers and
    rejects the corrupted ones."""
    problems = []
    for name, fn, right, wrong in cases():
        if _rejects(fn, *right):
            problems.append(f"{name}: the right answer was rejected")
        if not _rejects(fn, *wrong):
            problems.append(f"{name}: the corrupted answer was accepted")
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line)
    print("oracle self-test:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
