"""Exact computations with cocycle-twisted affine semigroup algebras.

The package covers the commutative backbone (lattices, cones, Hilbert bases,
affine semigroups and their normality / regularity certificates), the twisted
layer (scalars, normalized 2-cocycles, twisted algebras, twisting systems,
quantum-torus embeddings, facet localizations), and the distributive-lattice
pipeline with its straightening laws.  Every nontrivial answer ships with a
certificate.
"""

from .errors import (DimensionError, ModelParseError, NotNormalError,
                     PreconditionError, QtoricError, SizeLimitError,
                     VerificationError)
from .lattice_geometry import (Cone, Facet, Sublattice, cone_facets,
                               hilbert_basis, lattice_of)
from .scalars_cocycles import (Cocycle, CohomologyResult, Scalar,
                               ScalarMonomial, are_cohomologous,
                               check_cocycle_identity, commutation_matrix)
from .semigroups import (AffineSemigroup, Decomposition, FacetSemigroup,
                         Membership, NormalityCertificate, RegularityReport,
                         decompose, elements_by_degree, facet_subsemigroup,
                         hilbert_function, regularity_report)
from .twisted_algebra import (FacetLocalization, TorusEmbedding,
                              TwistedAlgebra, TwistedElement, TwistingSystem)
from .lattice_algebras import (BirkhoffData, DistLattice, LatticeAlgebraReport,
                               StandardWord, StrSemigroup, birkhoff,
                               ideal_lattice, lattice_algebra_report,
                               straighten, straightening_semigroup)
from .model import ModelFile, load_model, parse_model

__version__ = "0.1.0"

__all__ = [
    "AffineSemigroup", "BirkhoffData", "Cocycle", "CohomologyResult", "Cone",
    "Decomposition", "DimensionError", "DistLattice", "Facet",
    "FacetLocalization", "FacetSemigroup",
    "LatticeAlgebraReport", "Membership", "ModelFile", "ModelParseError",
    "NormalityCertificate", "NotNormalError", "PreconditionError",
    "QtoricError", "RegularityReport", "Scalar", "ScalarMonomial",
    "SizeLimitError", "StandardWord", "StrSemigroup", "Sublattice",
    "TorusEmbedding", "TwistedAlgebra", "TwistedElement", "TwistingSystem",
    "VerificationError", "are_cohomologous", "birkhoff",
    "check_cocycle_identity", "commutation_matrix", "cone_facets", "decompose",
    "elements_by_degree", "facet_subsemigroup", "hilbert_basis",
    "hilbert_function", "ideal_lattice", "lattice_algebra_report",
    "lattice_of", "load_model", "parse_model", "regularity_report",
    "straighten", "straightening_semigroup",
]
