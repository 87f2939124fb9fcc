from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincare_series import counting
from poincare_series.counting import (
    DegreeVector,
    as_degree_vector,
    build_factored_gf,
    degree_multisets,
    dimension,
    dimensions,
    gamma,
    multiplicity_table,
    omega,
)
from poincare_series.springer import poincare_series

from _oracles import enumerate_omega, generating_function_biseries, ref_count, ref_omega_table

degree_tuples = st.lists(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=4
).map(tuple)


class TestDegreeVector:
    def test_sorted_descending(self):
        assert DegreeVector((1, 3, 2)).degrees == (3, 2, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DegreeVector(())

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError):
            DegreeVector((2, 0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DegreeVector((-1,))

    def test_rejects_non_integral(self):
        # 2.9 once became 2 and "3" became 3
        for degs in ((2.9, 1.5), (3.0,), ("3",), (2, Fraction(3))):
            with pytest.raises(TypeError):
                DegreeVector(degs)
        with pytest.raises(TypeError):
            poincare_series((2.9,), "invariants")

    def test_variable_count(self):
        assert DegreeVector((1, 2, 3)).variable_count == 9

    def test_weights(self):
        assert DegreeVector((2,)).weights() == (2, 0, -2)
        assert DegreeVector((1, 2)).weights() == (2, 1, 0, -1, -2)

    @pytest.mark.parametrize("degs", [(10**46,), (2, 10**18)])
    def test_weights_too_long_to_allocate_fail_at_once(self, degs):
        # each ladder has d + 1 weights; a list of that length cannot be
        # allocated, so building it fails before any weight is computed
        with pytest.raises((OverflowError, MemoryError)):
            DegreeVector(degs).weights()

    def test_as_degree_vector_accepts_int(self):
        assert as_degree_vector(3).degrees == (3,)

    @given(degree_tuples)
    @settings(deadline=None, max_examples=40)
    def test_order_irrelevant(self, degs):
        assert DegreeVector(degs) == DegreeVector(tuple(reversed(degs)))


class TestFactorExponents:
    def test_single_linear_form(self):
        assert build_factored_gf((1,)) == {0: 1, 2: 1}

    def test_mixed_system(self):
        assert build_factored_gf((1, 2, 3)) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 6: 1}

    def test_one_two_four(self):
        assert build_factored_gf((1, 2, 4)) == {0: 1, 2: 2, 3: 1, 4: 2, 5: 1, 6: 2, 8: 1}

    @given(degree_tuples)
    @settings(deadline=None, max_examples=40)
    def test_sum_and_symmetry(self, degs):
        d = DegreeVector(degs)
        beta = build_factored_gf(d)
        assert sum(beta.values()) == d.variable_count
        top = 2 * d.d_star
        assert all(beta[e] == beta.get(top - e) for e in beta)


class TestOmega:
    def test_known_quadratic(self):
        assert omega((2,), 2, 0) == 2
        assert omega((2,), 2, 2) == 1

    def test_empty_weight_out_of_range(self):
        assert omega((2,), 2, 5) == 0
        assert omega((2,), 2, -7) == 0

    def test_degree_zero(self):
        assert omega((3, 1), 0, 0) == 1
        assert omega((3, 1), 0, 2) == 0

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            omega((2,), -1, 0)

    def test_against_enumeration(self):
        for degs in [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (1, 2, 3)]:
            d = DegreeVector(degs)
            for m in range(5):
                for i in range(-m * d.d_star, m * d.d_star + 1):
                    assert omega(d, m, i) == enumerate_omega(d, m, i), (degs, m, i)

    def test_symmetry_and_total(self):
        for degs in [(2, 1), (3,), (1, 1, 1)]:
            d = DegreeVector(degs)
            n = d.variable_count
            for m in range(6):
                span = m * d.d_star
                values = [omega(d, m, i) for i in range(-span, span + 1)]
                assert values == values[::-1]
                assert sum(values) == comb(m + n - 1, n - 1)

    def test_matches_generating_function(self):
        # coefficient of t^m z^(i + m d*) in the shifted product equals omega
        for degs in [(1, 2), (2, 2), (3,)]:
            d = DegreeVector(degs)
            beta = build_factored_gf(d)
            M, Z = 4, 4 * 2 * d.d_star
            table = generating_function_biseries(beta, M, Z)
            for m in range(M + 1):
                for i in range(-m * d.d_star, m * d.d_star + 1):
                    assert table.rows[m][i + m * d.d_star] == omega(d, m, i)


class TestGammaAndDimension:
    def test_known_values(self):
        assert gamma((2,), 2, 0) == 1
        assert gamma((1, 2, 3), 1, 2) == 1

    def test_nonnegative_everywhere(self):
        for degs in [(1,), (3,), (2, 2), (1, 2, 3), (4, 1)]:
            d = DegreeVector(degs)
            for m in range(6):
                for k in range(m * d.d_star + 1):
                    assert gamma(d, m, k) >= 0

    def test_negative_weight_is_a_usage_error(self, monkeypatch):
        # once a RuntimeError claiming that counting was inconsistent
        def no_counting(*args):
            raise AssertionError("counting ran for an invalid weight")

        monkeypatch.setattr(counting, "_packed_rows", no_counting)
        for degs, m, k in (((2,), 2, -2), ((3, 1), 1, -1)):
            with pytest.raises(ValueError):
                gamma(degs, m, k)

    def test_dimension_known(self):
        assert dimension((2,), 2, "invariants") == 1
        assert dimension((1, 1), 2, "semiinvariants") == 4

    def test_dimension_kind_validation(self):
        with pytest.raises(ValueError):
            dimension((2,), 2, "coinvariants")
        with pytest.raises(ValueError):
            dimensions((2,), 2, "coinvariants")
        with pytest.raises(ValueError):
            dimensions((2,), -1, "invariants")

    def test_dimensions_read_one_table(self):
        # horizons 0 and 1 leave no DP column for weight 1 or 2 when d* is small
        for degs in degree_multisets(8, 4):
            for kind in ("invariants", "semiinvariants"):
                for horizon in (0, 1, 10):
                    # the definition: omega(0) - omega(2), or omega(0) + omega(1)
                    if kind == "invariants":
                        expected = [
                            omega(degs, m, 0) - omega(degs, m, 2) for m in range(horizon + 1)
                        ]
                    else:
                        expected = [
                            omega(degs, m, 0) + omega(degs, m, 1) for m in range(horizon + 1)
                        ]
                    assert dimensions(degs, horizon, kind) == expected, (degs, kind, horizon)

    def test_degree_zero_dimension(self):
        assert dimension((3,), 0, "invariants") == 1
        assert dimension((3,), 0, "semiinvariants") == 1


class TestMultiplicityTable:
    def test_total_matches_binomial(self):
        for degs in [(1,), (2, 1), (2, 2), (1, 2, 3)]:
            for m in range(5):
                table = multiplicity_table(degs, m)
                assert table.total() == table.expected_total(), (degs, m)

    def test_negative_degree_rejected(self):
        # once an empty table whose total() matched expected_total() (both 0)
        with pytest.raises(ValueError):
            multiplicity_table((2, 3), -1)

    def test_entries_cover_all_weights(self):
        table = multiplicity_table((2,), 3)
        assert [k for k, _ in table.entries] == list(range(7))


def assert_dimensions_match(degs, horizon):
    """dimensions in both kinds equal omega(0) -/+ omega(2)/omega(1) of the list table."""
    span, table = ref_omega_table(degs, horizon)
    for kind, step, sign in (("invariants", 2, -1), ("semiinvariants", 1, 1)):
        expected = [row[span] + sign * ref_count(span, row, step) for row in table]
        assert dimensions(degs, horizon, kind) == expected, (degs, horizon, kind)
    return span, table


def packed_rows_margin(degs, horizon):
    """Spare bits of ``_packed_rows``' digit width over its largest count, each count checked.

    Digit e of row k must be the list DP's count of weight k d* - e, no
    digit may lie past 2 k d*, and every count must be at most the
    docstring's C(horizon + N - 1, N - 1) and below 2^bits.
    """
    d = as_degree_vector(degs)
    s, bits, rows = counting._packed_rows(d, horizon)
    span, table = ref_omega_table(degs, horizon)
    bound = comb(horizon + d.variable_count - 1, horizon)
    largest = 0
    for k, row in enumerate(rows):
        size = 2 * k * s + 1
        digits = [row >> bits * e & (1 << bits) - 1 for e in range(size)]
        assert row >> bits * size == 0, (degs, k)
        assert digits == table[k][span - k * s : span + k * s + 1][::-1], (degs, k)
        assert sum(digits) == comb(k + d.variable_count - 1, k), (degs, k)
        largest = max(largest, *digits)
    assert largest <= bound < 1 << bits, (degs, horizon, largest, bits)
    return bits - largest.bit_length()


# the counting requests of a CLI session, then the six ladder anchors
CLI_COUNTING_SYSTEMS = [(1, 2, 4), (3, 4), (2, 5), (1, 1, 4), (2, 2, 3), (1, 6)]
LADDER_ANCHORS = [(1, 2, 3), (1, 2, 3, 4, 5), (3, 4, 5, 6), (8, 8), (12,), (10, 10)]


class TestPackedRowsMatchListTable:
    """The packed-row kernel against the list dynamic program of the tests' oracles."""

    @given(st.sampled_from(degree_multisets(8, 4)), st.sampled_from((0, 1, 10)))
    @example((1,), 1)  # d* = 1: no digit of weight 2 in row 1
    @example((1, 1, 1), 10)
    @example((4, 2, 1), 0)
    @settings(deadline=None, max_examples=60)
    def test_counts(self, degs, horizon):
        span, table = assert_dimensions_match(degs, horizon)
        row = table[horizon]
        for i in range(-span - 3, span + 4):
            assert omega(degs, horizon, i) == ref_count(span, row, i), (degs, horizon, i)
        gammas = [ref_count(span, row, k) - ref_count(span, row, k + 2) for k in range(span + 4)]
        assert [gamma(degs, horizon, k) for k in range(span + 4)] == gammas, (degs, horizon)
        entries = multiplicity_table(degs, horizon).entries
        assert entries == tuple(enumerate(gammas[: span + 1]))
        packed_rows_margin(degs, horizon)

    @pytest.mark.parametrize("degs, horizon", [((1,) * 12, 40), ((30,), 100)])
    def test_long_horizons(self, degs, horizon):
        assert_dimensions_match(degs, horizon)

    @pytest.mark.parametrize("degs", CLI_COUNTING_SYSTEMS + LADDER_ANCHORS)
    def test_every_count_fits_the_width(self, degs):
        packed_rows_margin(degs, 36)
