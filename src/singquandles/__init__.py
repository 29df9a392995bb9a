"""Finite oriented singquandles and their link invariants.

The package provides exact axiom validation for finite singquandle tables,
the singquandle polynomial and its subset refinement, and coloring
invariants of singular links given either by generators and relations or by
planar-diagram codes.  The hot loops are numpy kernels (see
:mod:`singquandles.kernels`).
"""

from .core import (
    FiniteSingquandle,
    IsomorphismResult,
    ValidationReport,
    Violation,
    find_isomorphism,
    table_singquandle,
    validate_tables,
)
from .diagram import Crossing, SingularPD, parse_pd, pd_to_presentation, render_pd
from .errors import (
    ParseError,
    SingquandleError,
    ValidationError,
)
from .fileformats import load_singquandle, parse_singquandle, render_singquandle
from .formulas import BivariatePolyFormula, affine_singquandle, formula_singquandle, parse_formula
from .polynomial import PhiInvariant, SqPolynomial, quandle_restriction, sqp, ssqp
from .presentation import (
    SingPresentation,
    counting_invariant,
    enumerate_homs,
    parse_presentation,
    phi_ssqp,
    render_presentation,
)
from .terms import Apply, Gen, Term, generators_of, parse_term, render_term

__version__ = "0.1.0"

__all__ = [
    "Apply",
    "BivariatePolyFormula",
    "Crossing",
    "FiniteSingquandle",
    "Gen",
    "IsomorphismResult",
    "ParseError",
    "PhiInvariant",
    "SingPresentation",
    "SingquandleError",
    "SingularPD",
    "SqPolynomial",
    "Term",
    "ValidationError",
    "ValidationReport",
    "Violation",
    "__version__",
    "affine_singquandle",
    "counting_invariant",
    "enumerate_homs",
    "find_isomorphism",
    "formula_singquandle",
    "generators_of",
    "load_singquandle",
    "parse_formula",
    "parse_pd",
    "parse_presentation",
    "parse_singquandle",
    "parse_term",
    "pd_to_presentation",
    "phi_ssqp",
    "quandle_restriction",
    "render_pd",
    "render_presentation",
    "render_singquandle",
    "render_term",
    "sqp",
    "ssqp",
    "table_singquandle",
    "validate_tables",
]
