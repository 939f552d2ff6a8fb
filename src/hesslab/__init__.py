"""Exact combinatorics of regular Hessenberg spaces in type A.

Graded symmetric-group characters (the Schur expansion of chromatic
quasisymmetric functions, by closed forms and the modular law), Betti numbers of all regular Hessenberg
spaces through invariant subrings, a support criterion for which irreducibles
can appear, and a moment-graph model with certified Poincare duality, hard
Lefschetz, and signed primitive forms.
All arithmetic is exact (integers and fractions); nothing is floating point.
"""

from .dotchar import (
    GradedMultiplicity,
    betti_rs,
    chromatic_qsym,
    dot_action_multiplicities,
    multiplicities_json,
    regular_betti,
)
from .errors import (
    ConsistencyError,
    CostGuardError,
    HesslabError,
    TheoremViolation,
)
from .gkm import (
    GKMGraph,
    build_gkm,
    flow_up_class,
    invariant_subring,
    kahler_report,
    morse_betti,
    poincare_pairing,
)
from .hessenberg import (
    dimension,
    enumerate_hessenberg,
    hessenberg_str,
    is_indecomposable,
    parse_hessenberg,
)
from .partitions import (
    conjugate,
    dim_irrep,
    dominance_leq,
    invariant_dim,
    partitions_of,
)
from .springer import generic_jordan_type, support_violations
from .symfunc import QPoly, QSymPoly

__version__ = "0.8.0"

__all__ = [
    "GradedMultiplicity",
    "betti_rs",
    "chromatic_qsym",
    "dot_action_multiplicities",
    "multiplicities_json",
    "regular_betti",
    "ConsistencyError",
    "CostGuardError",
    "HesslabError",
    "TheoremViolation",
    "GKMGraph",
    "build_gkm",
    "flow_up_class",
    "invariant_subring",
    "kahler_report",
    "morse_betti",
    "poincare_pairing",
    "dimension",
    "enumerate_hessenberg",
    "hessenberg_str",
    "is_indecomposable",
    "parse_hessenberg",
    "conjugate",
    "dim_irrep",
    "dominance_leq",
    "invariant_dim",
    "partitions_of",
    "generic_jordan_type",
    "support_violations",
    "QPoly",
    "QSymPoly",
    "__version__",
]
