"""The package's import structure: stdlib-only at run time, and layered.

The layers run linalg -> lattice_geometry -> semigroups -> scalars_cocycles
-> twisted_algebra -> lattice_algebras -> model/cli; ``errors`` sits below
them all and the package entry points above.  A module may import from its
own layer or an earlier one, never from a later one.  Public signatures
take no bound that the function would only record.
"""

import ast
import dataclasses
import inspect
import sys
from pathlib import Path

from qtoric import (FacetSemigroup, RegularityReport, TwistedAlgebra, facet_subsemigroup,
                    lattice_algebra_report, regularity_report, straightening_semigroup)

PACKAGE = Path(__file__).parent.parent / "src" / "qtoric"
LAYER = {"errors": 0, "linalg": 1, "lattice_geometry": 2, "semigroups": 3,
         "scalars_cocycles": 4, "twisted_algebra": 5, "lattice_algebras": 6,
         "model": 7, "cli": 7, "__init__": 8, "__main__": 8}


def _imports(path):
    """(absolute top-level names, package-relative module names) imported by a file."""
    absolute, relative = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            absolute.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            relative.update([node.module.split(".")[0]] if node.module
                            else (alias.name for alias in node.names))
    return absolute, relative


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYER)


def test_runtime_imports_only_the_standard_library():
    for path in sorted(PACKAGE.glob("*.py")):
        absolute, _ = _imports(path)
        assert absolute <= sys.stdlib_module_names, (path.name, absolute - sys.stdlib_module_names)


def test_no_module_imports_a_later_layer():
    for path in sorted(PACKAGE.glob("*.py")):
        _, relative = _imports(path)
        later = {m for m in relative if LAYER[m] > LAYER[path.stem]}
        assert not later, f"{path.name} imports the later layer(s) {sorted(later)}"


def test_no_function_takes_a_bound_it_only_records():
    # each of these once took a bound that it stored and used for nothing;
    # decompose(bound) keeps its bound because the benchmark's cone-ladder
    # check (bench/checks.py, check_decomposition) requires
    # verified_to_degree == bound
    signatures = {
        TwistedAlgebra.twisting_system: ["self"],
        straightening_semigroup: ["lattice", "order"],
        lattice_algebra_report: ["lattice", "cocycle"],
        facet_subsemigroup: ["semigroup", "facet"],
        regularity_report: ["semigroup"],
    }
    for fn, params in signatures.items():
        assert list(inspect.signature(fn).parameters) == params, fn.__qualname__
    for cls in (FacetSemigroup, RegularityReport):
        assert not [f.name for f in dataclasses.fields(cls) if "bound" in f.name], cls
