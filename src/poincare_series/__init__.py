"""Exact Poincare series of invariant algebras of systems of binary forms.

Two independent routes to the same series: Sylvester-Cayley weight
counting (counting) and a Springer-type operator pipeline built from
partial fractions, multisection and diagonal extraction (springer), with
closed differential formulas for all-linear and all-quadratic systems
(closedform). The semi-invariant algebra coincides with the covariant
algebra and with the kernel of the associated Weitzenboeck derivation.
"""

from .algebra import Poly, RatFun
from .closedform import all_ones, all_twos
from .counting import (
    DegreeVector,
    MultiplicityTable,
    dimension,
    gamma,
    multiplicity_table,
    omega,
)
from .springer import PFD, partial_fractions, poincare_series, single_form_series

__version__ = "0.1.0"

__all__ = [
    "poincare_series",
    "single_form_series",
    "all_ones",
    "all_twos",
    "dimension",
    "gamma",
    "multiplicity_table",
    "omega",
    "Poly",
    "RatFun",
    "DegreeVector",
    "MultiplicityTable",
    "partial_fractions",
    "PFD",
    "__version__",
]
