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

from qtoric import (AffineSemigroup, FacetSemigroup, RegularityReport, TwistedAlgebra,
                    facet_subsemigroup, ideal_lattice, lattice_algebra_report,
                    regularity_report, straightening_semigroup)

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


def test_one_domain_per_algebra():
    # a twisted algebra reads its dimension from its domain, which decides
    # its own membership (a torus is a Sublattice), and a straightening
    # semigroup is its own AffineSemigroup
    params = inspect.signature(TwistedAlgebra.__init__).parameters
    assert list(params) == ["self", "domain", "cocycle"]
    sg = straightening_semigroup(ideal_lattice(2, [(0, 1)]))
    assert isinstance(sg, AffineSemigroup) and sg.semigroup is sg


def test_one_cone_pass_owns_the_size_charges():
    # lattice_geometry.ConePass is the only code that runs the
    # double-description pass and reads the cone limits and the
    # parallelepiped budget, and no public function takes a point budget
    owned = {"_double_description", "MAX_CONE_GENERATORS", "MAX_CONE_DIM",
             "MAX_PARALLELEPIPED_POINTS"}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        if path.stem != "lattice_geometry":
            assert not names & owned, (path.name, sorted(names & owned))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args.args + node.args.kwonlyargs + node.args.posonlyargs
                assert "max_points" not in [a.arg for a in args], (path.name, node.name)
    tree = ast.parse((PACKAGE / "lattice_geometry.py").read_text(encoding="utf-8"))
    cone_pass = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "ConePass")
    inside = {id(node) for node in ast.walk(cone_pass)}
    loads = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
             and node.id in owned and isinstance(node.ctx, ast.Load)]
    assert loads and all(id(node) in inside for node in loads)
