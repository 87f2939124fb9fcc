import pytest

from poincare_series.algebra import ONE, Poly, RatFun, one_minus_z
from poincare_series.closedform import all_ones, all_twos, applicable, for_degree_vector
from poincare_series.counting import DegreeVector
from poincare_series.springer import poincare_series

from _oracles import ref_all_ones, ref_all_twos


def assemble(num, factors):
    den = ONE
    for a, e in factors:
        den = den * one_minus_z(a) ** e
    return RatFun(Poly(num) if isinstance(num, list) else num, den)


class TestAllOnes:
    def test_single_variable(self):
        assert all_ones(1, "semiinvariants") == assemble([1], [(1, 1)])
        assert all_ones(1, "invariants") == RatFun(ONE)

    def test_pair(self):
        assert all_ones(2, "semiinvariants") == assemble([1], [(1, 2), (2, 1)])
        assert all_ones(2, "invariants") == assemble([1], [(2, 1)])

    def test_triple_matches_table(self):
        shown = assemble([1, 1, 1], [(2, 3), (1, 2)])
        assert all_ones(3, "semiinvariants") == shown

    def test_agrees_with_operator_route(self):
        for n in range(1, 7):
            for kind in ("invariants", "semiinvariants"):
                assert all_ones(n, kind) == poincare_series((1,) * n, kind), (n, kind)

    def test_series_nonnegative_integers(self):
        for n in (2, 4, 5):
            for c in all_ones(n, "semiinvariants").expand(12):
                assert c == int(c) and c >= 0


class TestAllTwos:
    def test_single_quadratic(self):
        assert all_twos(1, "semiinvariants") == assemble([1], [(1, 1), (2, 1)])
        assert all_twos(1, "invariants") == assemble([1], [(2, 1)])

    def test_pair(self):
        assert all_twos(2, "invariants") == assemble([1], [(2, 3)])

    def test_triple_matches_table(self):
        shown = assemble([1, 0, 4, 0, 1], [(1, 3), (2, 5)])
        assert all_twos(3, "semiinvariants") == shown

    def test_agrees_with_operator_route(self):
        for n in range(1, 6):
            for kind in ("invariants", "semiinvariants"):
                assert all_twos(n, kind) == poincare_series((2,) * n, kind), (n, kind)

    def test_larger_system_still_agrees(self):
        assert all_twos(6, "semiinvariants") == poincare_series((2,) * 6, "semiinvariants")


class TestAgainstFactoredChain:
    """The integer cover kernel against Horner's rule on RatFun, which shares no kernel with it.

    The reference takes each derivative by the quotient rule and reduces
    every step by Euclid's gcd (``ratfun_derivative``, ``ratfun_add``).
    """

    @pytest.mark.parametrize("kind", ["invariants", "semiinvariants"])
    def test_all_ones(self, kind):
        for n in range(1, 11):
            assert all_ones(n, kind) == ref_all_ones(n, kind), n

    @pytest.mark.parametrize("kind", ["invariants", "semiinvariants"])
    def test_all_twos(self, kind):
        for n in range(1, 11):
            assert all_twos(n, kind) == ref_all_twos(n, kind), n


class TestRequestApi:
    def test_validation(self):
        with pytest.raises(ValueError):
            all_ones(0, "invariants")
        with pytest.raises(ValueError):
            for_degree_vector((3, 3), "invariants")
        with pytest.raises(ValueError):
            all_ones(2, "coinvariants")

    def test_evaluate_routes(self):
        assert for_degree_vector((1, 1, 1), "semiinvariants") == all_ones(3, "semiinvariants")
        assert for_degree_vector((2, 2), "invariants") == all_twos(2, "invariants")

    def test_applicable(self):
        assert applicable(DegreeVector((1, 1, 1)))
        assert applicable(DegreeVector((2, 2)))
        assert not applicable(DegreeVector((1, 2)))
        assert not applicable(DegreeVector((3, 3)))

    def test_for_degree_vector(self):
        direct = for_degree_vector(DegreeVector((2, 2, 2)), "invariants")
        assert direct == all_twos(3, "invariants")
        assert for_degree_vector((1, 1), "semiinvariants") == all_ones(2, "semiinvariants")
        with pytest.raises(ValueError):
            for_degree_vector(DegreeVector((1, 3)), "invariants")
