"""Spans around the program's public functions, installed from outside.

``Tracer.install()`` replaces each traced function by a wrapper in every
``qtoric`` namespace that holds it (a module that did ``from .x import f``
holds its own reference) and, for methods, on the class.  Each call
records a span (name, start, end, parent span) in flat arrays kept in
memory; self times are derived from the spans after the run.  Repeat
ratios are keyed on object identity, so no ``Cocycle`` is ever rehashed;
the keyed objects are kept alive so that identities are not reused.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (metric prefix, module, attribute path).  The six linalg entry points
# share one prefix.
TARGETS = [
    ("linalg", "qtoric.linalg", "row_hnf"),
    ("linalg", "qtoric.linalg", "int_rank"),
    ("linalg", "qtoric.linalg", "kernel_basis"),
    ("linalg", "qtoric.linalg", "solve_integer"),
    ("linalg", "qtoric.linalg", "det_int"),
    ("linalg", "qtoric.linalg", "invert_fractions"),
    ("lattice_geometry.cone_facets", "qtoric.lattice_geometry", "cone_facets"),
    ("lattice_geometry.hilbert_basis", "qtoric.lattice_geometry", "hilbert_basis"),
    ("lattice_geometry.lattice_of", "qtoric.lattice_geometry", "lattice_of"),
    ("lattice_geometry.Sublattice.coordinates", "qtoric.lattice_geometry",
     "Sublattice.coordinates"),
    ("semigroups.AffineSemigroup.membership", "qtoric.semigroups", "AffineSemigroup.membership"),
    ("semigroups.normality", "qtoric.semigroups", "AffineSemigroup.normality"),
    ("semigroups.decompose", "qtoric.semigroups", "decompose"),
    ("semigroups.facet_subsemigroup", "qtoric.semigroups", "facet_subsemigroup"),
    ("semigroups.regularity_report", "qtoric.semigroups", "regularity_report"),
    ("scalars_cocycles.Cocycle.__call__", "qtoric.scalars_cocycles", "Cocycle.__call__"),
    ("scalars_cocycles.Scalar.__mul__", "qtoric.scalars_cocycles", "Scalar.__mul__"),
    ("scalars_cocycles.Scalar.__add__", "qtoric.scalars_cocycles", "Scalar.__add__"),
    ("scalars_cocycles.are_cohomologous", "qtoric.scalars_cocycles", "are_cohomologous"),
    ("twisted_algebra.TwistedAlgebra.product", "qtoric.twisted_algebra", "TwistedAlgebra.product"),
    ("twisted_algebra.twisting_system", "qtoric.twisted_algebra", "TwistedAlgebra.twisting_system"),
    ("twisted_algebra.torus_embedding", "qtoric.twisted_algebra", "TwistedAlgebra.torus_embedding"),
    ("lattice_algebras.straighten", "qtoric.lattice_algebras", "straighten"),
    ("lattice_algebras.StrSemigroup.standard_word", "qtoric.lattice_algebras",
     "StrSemigroup.standard_word"),
    ("lattice_algebras.straightening_semigroup", "qtoric.lattice_algebras",
     "straightening_semigroup"),
    ("model.load_model", "qtoric.model", "load_model"),
    ("cli.main", "qtoric.cli", "main"),
]

# The per-layer metrics a traced run reports, by layer, and their units.
LAYERS = [
    ("linalg", ("calls", "self_s")),
    ("lattice_geometry.cone_facets", ("calls", "self_s")),
    ("lattice_geometry.hilbert_basis", ("calls", "self_s", "out_elems")),
    ("lattice_geometry.lattice_of", ("calls", "self_s")),
    ("lattice_geometry.Sublattice.coordinates", ("calls", "self_s")),
    ("semigroups.AffineSemigroup.membership", ("calls", "self_s", "repeat_ratio")),
    ("semigroups.normality", ("calls", "self_s")),
    ("semigroups.decompose", ("calls", "self_s")),
    ("semigroups.facet_subsemigroup", ("calls", "self_s")),
    ("semigroups.regularity_report", ("calls", "self_s")),
    ("scalars_cocycles.Cocycle.__call__", ("calls", "self_s", "repeat_ratio")),
    ("scalars_cocycles.Scalar.__mul__", ("calls", "self_s")),
    ("scalars_cocycles.Scalar.__add__", ("calls", "self_s")),
    ("scalars_cocycles.are_cohomologous", ("calls", "self_s")),
    ("twisted_algebra.TwistedAlgebra.product", ("calls", "self_s", "terms_out")),
    ("twisted_algebra.twisting_system", ("calls", "self_s")),
    ("twisted_algebra.torus_embedding", ("calls", "self_s")),
    ("lattice_algebras.straighten", ("calls", "self_s")),
    ("lattice_algebras.StrSemigroup.standard_word", ("calls", "self_s")),
    ("lattice_algebras.straightening_semigroup", ("calls", "self_s")),
    ("model.load_model", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
]
UNITS = {"calls": "count", "self_s": "s", "out_elems": "count", "repeat_ratio": "ratio",
         "terms_out": "count"}
PER_LAYER = [(f"{name}.{stat}", UNITS[stat]) for name, stats in LAYERS for stat in stats] + [
    ("trace.overhead_s", "s"), ("trace.wall_s", "s"), ("trace.unspanned_s", "s"),
    ("trace.spans", "count")]

# Repeat ratios: calls whose (object, vector arguments) were already asked;
# the value is how many leading arguments form the key.
REPEAT_KEYED = {"semigroups.AffineSemigroup.membership": 2,
                "scalars_cocycles.Cocycle.__call__": 3}
# Output sizes: metric name and the size of one result.
COUNTED = {"lattice_geometry.hilbert_basis": ("lattice_geometry.hilbert_basis.out_elems", len),
           "twisted_algebra.TwistedAlgebra.product":
               ("twisted_algebra.TwistedAlgebra.product.terms_out", lambda e: len(e.terms))}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.patches = []
        self.seen = {name: set() for name in REPEAT_KEYED}
        self.repeats = {name: 0 for name in REPEAT_KEYED}
        self.alive = {}
        self.counters = {key: 0 for key, _ in COUNTED.values()}

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "qtoric" or n.startswith("qtoric.")]
        for name, module_name, path in TARGETS:
            if name not in self.names:
                self.names.append(name)
            owner = sys.modules[module_name]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[parts[-1]]
            wrapper = self._wrap(original, self.names.index(name), name)
            if isinstance(owner, type):
                self._patch(owner, parts[-1], original, wrapper)
            else:
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def _wrap(self, fn, index, name):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        keyed = REPEAT_KEYED.get(name)
        seen = self.seen.get(name)
        alive = self.alive
        counters = self.counters
        counter, size = COUNTED.get(name, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            if keyed:
                obj = args[0]
                alive.setdefault(id(obj), obj)
                key = (id(obj),) + tuple(tuple(a) for a in args[1:keyed])
                if key in seen:
                    tracer.repeats[name] += 1
                else:
                    seen.add(key)
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[span] = t0
                ends[span] = t1
            if counter is not None:
                counters[counter] += size(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def summary(self, wall):
        """Per-layer metrics; ``wall`` is the traced interval in seconds."""
        n = len(self.span_name)
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur
            else:
                top += dur
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += self.span_end[i] - self.span_start[i] - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
            if name in REPEAT_KEYED:
                out[f"{name}.repeat_ratio"] = self.repeats[name] / calls[k] if calls[k] else 0.0
        out.update(self.counters)
        out["trace.wall_s"] = wall
        out["trace.unspanned_s"] = wall - top
        out["trace.spans"] = n
        out["trace.self_sum_s"] = sum(self_s)
        return out

    def write(self, path):
        """Spans as one JSON header line followed by the four raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_name),
                      "arrays": ["name:H", "parent:q", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
