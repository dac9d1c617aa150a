"""Exact rational-homotopy invariants of free DGL models.

The package computes homology of derivation complexes, adjoint maps,
evaluation and Gottlieb subgroups, Whitehead centers, relative evaluation
subgroups, the G-sequence with its omega-homology, product models with wedges
of spheres, and DGL cylinder objects, entirely over exact rationals.
"""

from .errors import (
    DglError,
    InternalError,
    ParseError,
    PreconditionError,
    TruncationError,
    ValidationError,
)
from .lie import FreeLieAlgebra, Generator, LieElement
from .model import DglModel, DglMorphism, ValidationReport, zero_morphism
from .derivations import DerComplex, GenDerivation, adjoint
from .complexes import DglComplex
from .relative import LesReport, RelComplex, assemble_les_of_chain_map
from .subgroups import (
    CoformalReport,
    EvaluationContext,
    GvpReport,
    SubspaceReport,
    coformal_bounding_derivation,
    coformal_check,
    gottlieb,
)
from .constructions import (
    CylinderModel,
    HomotopyReport,
    ProductModel,
    cylinder,
    product_model,
    sphere_wedge_model,
    verify_homotopy,
)
from .modelfile import SuspensionMap, Workspace, parse_workspace, print_workspace

__all__ = [
    "DglError",
    "InternalError",
    "ParseError",
    "PreconditionError",
    "TruncationError",
    "ValidationError",
    "FreeLieAlgebra",
    "Generator",
    "LieElement",
    "DglModel",
    "DglMorphism",
    "ValidationReport",
    "zero_morphism",
    "DerComplex",
    "GenDerivation",
    "adjoint",
    "DglComplex",
    "LesReport",
    "RelComplex",
    "assemble_les_of_chain_map",
    "CoformalReport",
    "EvaluationContext",
    "GvpReport",
    "SubspaceReport",
    "coformal_bounding_derivation",
    "coformal_check",
    "gottlieb",
    "CylinderModel",
    "HomotopyReport",
    "ProductModel",
    "cylinder",
    "product_model",
    "sphere_wedge_model",
    "verify_homotopy",
    "SuspensionMap",
    "Workspace",
    "parse_workspace",
    "print_workspace",
]
