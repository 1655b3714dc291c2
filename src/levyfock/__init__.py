"""Field operators of Levy noise on a truncated extended Fock space.

Build monic orthogonal polynomial recurrences from a finite jump measure,
assemble the creation/neutral/annihilation operator blocks they induce on
the extended Fock space over a quadrature grid, and verify the assembly
against cumulant-based moments and a brute-force chaos oracle.
"""
from .fock import (
    ExtendedFockVector,
    FockSpace,
    MultiIndex,
    SymmetricTensor,
    block_weight,
    inner_product,
    level_inner_product,
    partitions,
)
from .jacobi import (
    FieldOperator,
    adjoint_defect,
    annihilation,
    creation,
    export_lines,
    full,
    neutral,
    symmetry_defect,
    vacuum_moments,
)
from .measures import GridSpace, JumpMeasure, TestFunction, gauss_laguerre_gamma
from .meixner import MeixnerParameters, detect
from .moments import CumulantModel, chaos_inner_product, moments_from_cumulants
from .orthopoly import RecurrenceTable, stieltjes

__all__ = [
    "CumulantModel",
    "ExtendedFockVector",
    "FieldOperator",
    "FockSpace",
    "GridSpace",
    "JumpMeasure",
    "MeixnerParameters",
    "MultiIndex",
    "RecurrenceTable",
    "SymmetricTensor",
    "TestFunction",
    "adjoint_defect",
    "annihilation",
    "block_weight",
    "chaos_inner_product",
    "creation",
    "detect",
    "export_lines",
    "full",
    "gauss_laguerre_gamma",
    "inner_product",
    "level_inner_product",
    "moments_from_cumulants",
    "neutral",
    "partitions",
    "stieltjes",
    "symmetry_defect",
    "vacuum_moments",
]

__version__ = "0.1.0"
