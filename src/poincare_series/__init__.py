"""Exact Poincare series of invariant algebras of systems of binary forms.

Two independent routes to the same series: Sylvester-Cayley weight
counting (counting) and a Springer-type operator pipeline built from
partial fractions, multisection and diagonal extraction (springer), with
closed differential formulas for all-linear and all-quadratic systems
(closedform). The semi-invariant algebra coincides with the covariant
algebra and with the kernel of the associated Weitzenboeck derivation.
"""

from .algebra import (
    FactoredRatFun,
    Poly,
    RatFun,
    cross_equal,
    pochhammer,
    q_block,
    q_shifted_factorial,
)
from .closedform import all_ones, all_twos
from .counting import (
    DegreeVector,
    MultiplicityTable,
    build_factored_gf,
    dimension,
    gamma,
    multiplicity_table,
    omega,
)
from .springer import (
    PFD,
    partial_fractions,
    phi_factored,
    poincare_series,
    psi_term_factored,
    single_form_series,
)

__version__ = "0.1.0"

__all__ = [
    "FactoredRatFun",
    "Poly",
    "RatFun",
    "cross_equal",
    "pochhammer",
    "q_block",
    "q_shifted_factorial",
    "all_ones",
    "all_twos",
    "DegreeVector",
    "MultiplicityTable",
    "build_factored_gf",
    "dimension",
    "gamma",
    "multiplicity_table",
    "omega",
    "PFD",
    "partial_fractions",
    "phi_factored",
    "poincare_series",
    "psi_term_factored",
    "single_form_series",
    "__version__",
]
