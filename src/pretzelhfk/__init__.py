"""Knot Floer homology ranks of three-strand pretzel knots.

Computes the bigraded rank table of the hat-flavor knot Floer homology
for the pretzel families K(-2a, 2b+1, 2c+1) and K(2a, -(2b+1), 2c+1)
(and their mirrors) from Kauffman state combinatorics, and verifies every
result against an independent Fox-calculus Alexander polynomial oracle.
"""

from .alexander import (bareiss_determinant, euler_characteristic,
                        fox_alexander, torus_alexander)
from .hfk import (BigradedTable, HfkResult, MatrixHomology, PairingEntry,
                  all_pairings, homology_via_matrix, mirror_transform,
                  pairing_differential, readouts, reduce_two_lines,
                  smith_diagonal, symmetry_check, theorem1_closed_form,
                  theorem2_closed_form)
from .kauffman import (Bigrading, ChainSummary, KauffmanState, chain_summary,
                       enumerate_states, grading)
from .laurent import LaurentError, LaurentPoly
from .pretzel import (FamilyTag, PretzelClass, PretzelParams,
                      WirtingerPresentation, canonical_triple, classify,
                      wirtinger)

__version__ = "0.1.0"

__all__ = [
    "Bigrading", "BigradedTable", "ChainSummary", "FamilyTag", "HfkResult",
    "KauffmanState", "LaurentError", "LaurentPoly", "MatrixHomology",
    "PairingEntry", "PretzelClass", "PretzelParams", "WirtingerPresentation",
    "all_pairings", "bareiss_determinant", "canonical_triple", "chain_summary",
    "classify", "enumerate_states", "euler_characteristic", "fox_alexander",
    "grading", "homology_via_matrix", "mirror_transform", "pairing_differential",
    "readouts", "reduce_two_lines", "smith_diagonal", "symmetry_check",
    "theorem1_closed_form", "theorem2_closed_form", "torus_alexander", "wirtinger",
]
