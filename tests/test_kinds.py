"""One vocabulary of kinds: every series entry point takes the four spellings.

``counting.canonical_kind`` maps invariants, semiinvariants, covariants and
kernel to the two series; each library route and each ``cli.ROUTES`` entry
must give one value for the three names of the semi-invariant series and
reject any other name.
"""

import pytest

from poincare_series import cli
from poincare_series.closedform import all_ones, all_twos, applicable, for_degree_vector
from poincare_series.counting import (
    KIND_CHOICES,
    KINDS,
    DegreeVector,
    canonical_kind,
    dimension,
    dimensions,
)
from poincare_series.springer import poincare_series, single_form_series

SYSTEMS = [(3,), (2, 2), (1, 1, 1), (2, 2, 2), (4, 1)]
SEMI_SPELLINGS = ("semiinvariants", "covariants", "kernel")
UNKNOWN = ("coinvariants", "", "Invariants", "semi-invariants", None)
HORIZON = 8


def entry_points(degs):
    """name -> function of a kind, for every entry point that applies to degs."""
    d = DegreeVector(degs)
    out = {
        "poincare_series": lambda kind: poincare_series(degs, kind),
        "dimension": lambda kind: dimension(degs, HORIZON, kind),
        "dimensions": lambda kind: dimensions(degs, HORIZON, kind),
    }
    if d.size == 1:
        out["single_form_series"] = lambda kind: single_form_series(d.d_star, kind)
    if applicable(d):
        closed = all_ones if d.d_star == 1 else all_twos
        out[closed.__name__] = lambda kind: closed(d.size, kind)
        out["for_degree_vector"] = lambda kind: for_degree_vector(degs, kind)
    for name, (applies, route) in cli.ROUTES.items():
        if applies(d):
            out[f"route {name}"] = lambda kind, route=route: route(d, kind)
    return out


def expected(name, degs, kind):
    series = poincare_series(degs, kind)
    if name == "dimension":
        return series.expand(HORIZON)[HORIZON]
    if name == "dimensions":
        return series.expand(HORIZON)
    return series


def test_canonical_kind():
    assert KIND_CHOICES[:2] == KINDS
    assert [canonical_kind(k) for k in KIND_CHOICES] == ["invariants"] + ["semiinvariants"] * 3
    for kind in UNKNOWN:
        with pytest.raises(ValueError):
            canonical_kind(kind)


def test_every_route_is_covered():
    names = {degs: set(entry_points(degs)) for degs in SYSTEMS}
    assert {"single_form_series", "route single-form"} <= names[(3,)]
    assert {"all_twos", "for_degree_vector", "route closedform"} <= names[(2, 2, 2)]
    assert {"all_ones", "for_degree_vector", "route closedform"} <= names[(1, 1, 1)]
    assert names[(4, 1)] == {"poincare_series", "dimension", "dimensions"}


@pytest.mark.parametrize("degs", SYSTEMS)
def test_three_names_of_the_semiinvariant_series_agree(degs):
    for name, route in entry_points(degs).items():
        values = [route(kind) for kind in SEMI_SPELLINGS]
        assert all(v == expected(name, degs, "semiinvariants") for v in values), (name, degs)
        if name not in ("dimension", "dimensions"):
            # equal num and den, not only equal values
            first = values[0]
            assert all(v.num == first.num and v.den == first.den for v in values), (name, degs)
        assert route("invariants") == expected(name, degs, "invariants"), (name, degs)


@pytest.mark.parametrize("degs", SYSTEMS)
def test_unknown_kind_is_rejected_everywhere(degs):
    for name, route in entry_points(degs).items():
        for kind in UNKNOWN:
            with pytest.raises(ValueError):
                route(kind)


def test_single_form_series_takes_a_degree_or_a_one_form_system():
    for kind in KIND_CHOICES:
        by_int = single_form_series(5, kind)
        assert single_form_series(DegreeVector((5,)), kind) == by_int
        assert single_form_series((5,), kind) == by_int
        assert by_int == poincare_series((5,), kind)
    with pytest.raises(ValueError):
        single_form_series((2, 1), "invariants")
    with pytest.raises(ValueError):
        single_form_series(DegreeVector((2, 1)), "kernel")
