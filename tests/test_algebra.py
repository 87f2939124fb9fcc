import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poincare_series.algebra as algebra
from poincare_series.algebra import (
    ONE,
    ZERO,
    FactoredRatFun,
    Poly,
    RatFun,
    _pack,
    _unpack,
    cross_equal,
    one_minus_z,
    pochhammer,
    poly_gcd,
)
from poincare_series.springer import poincare_series

from _oracles import (
    cyclotomics,
    den_poly,
    factored_series,
    ratfun_add,
    ratfun_derivative,
    ref_cancel_binomials,
    ref_expand,
)

small_polys = st.builds(
    Poly, st.lists(st.integers(min_value=-5, max_value=5), max_size=6)
)
nonzero_polys = small_polys.filter(bool)
fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)
# constant terms away from +-1, negative ones included, so d0^m grows in the recurrence
constant_terms = st.sampled_from([-3, -2, Fraction(-1, 2), Fraction(2, 3), 2, Fraction(7, 4)])


class TestRational:
    # coefficients are exact rationals in lowest terms
    def test_normalizes(self):
        assert Poly([Fraction(2, 4)])[0] == Fraction(1, 2)

    def test_positive_denominator(self):
        assert Poly([Fraction(1, -2)]).denom == 2

    def test_zero(self):
        assert Poly([Fraction(0, 5)])[0] == 0


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert Poly([0, 0]).is_zero()

    def test_degree(self):
        assert Poly([1, 0, 3]).degree == 2
        assert ZERO.degree == -1

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Poly([0.5])

    def test_product(self):
        assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])

    @pytest.mark.parametrize(
        "p",
        [Poly([3]), Poly([1, 0, -2]), Poly([1, 2, 0, 3, 4, 5]), Poly([Fraction(1, 3), 0, -1])],
        ids=["one term", "two terms", "five terms", "Fraction"],
    )
    def test_zero_products(self, p):
        # the packed product of an operand with no nonzero term is empty, so
        # every zero product is the canonical zero, over 1 even when p is not
        for product in (ZERO * p, p * ZERO, ZERO * ZERO):
            assert product == ZERO
            assert product.denom == 1

    def test_divmod_exact(self):
        q = Poly([1, 1, 1]).divexact(Poly([1, 1, 1]))
        assert q == ONE
        with pytest.raises(ValueError):
            Poly([1, 1]).divexact(Poly([1, 1, 1, 7]))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly([1]), ZERO)

    def test_derivative(self):
        assert Poly([5, 1, 3]).derivative() == Poly([1, 6])

    def test_to_string(self):
        assert Poly([1, 0, -2, 1]).to_string() == "1 - 2z^2 + z^3"
        assert ZERO.to_string() == "0"

    @pytest.mark.parametrize(
        "form",
        [
            lambda p: p + 1,
            lambda p: 1 + p,
            lambda p: p - 1,
            lambda p: 1 - p,
            lambda p: 2 * p,
            lambda p: Fraction(1, 2) * p,
        ],
        ids=["p + 1", "1 + p", "p - 1", "1 - p", "2 * p", "Fraction * p"],
    )
    def test_number_operands_rejected(self, form):
        # + and - take Polys only, and a number multiplies only on the right
        with pytest.raises(TypeError):
            form(Poly([1, 2]))

    def test_poly_operands_and_right_scalars(self):
        p, q = Poly([1, 2]), Poly([Fraction(1, 3), 0, -1])
        assert p * 2 == Poly([2, 4])
        assert p * Fraction(1, 2) == Poly([Fraction(1, 2), 1])
        assert p + q == Poly([Fraction(4, 3), 2, -1])
        assert p - q == Poly([Fraction(2, 3), 2, 1])

    @given(small_polys, small_polys, small_polys)
    @settings(deadline=None, max_examples=60)
    def test_ring_axioms(self, p, q, r):
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)

    @given(small_polys, nonzero_polys)
    @settings(deadline=None, max_examples=60)
    def test_divmod_roundtrip(self, p, q):
        quot, rem = divmod(p, q)
        assert quot * q + rem == p
        assert rem.degree < q.degree or rem.is_zero()

    @given(small_polys, small_polys)
    @settings(deadline=None, max_examples=60)
    def test_derivative_product_rule(self, p, q):
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


class TestGcd:
    def test_known(self):
        g = poly_gcd(one_minus_z(2), one_minus_z(1))
        assert g == one_minus_z(1).monic()

    def test_zero_cases(self):
        assert poly_gcd(ZERO, ZERO) == ZERO
        assert poly_gcd(Poly([2, 2]), ZERO) == Poly([1, 1])

    @given(nonzero_polys, nonzero_polys)
    @settings(deadline=None, max_examples=60)
    def test_divides_both(self, p, q):
        g = poly_gcd(p, q)
        assert (p % g).is_zero() and (q % g).is_zero()
        assert g.coeffs[-1] == 1

    @given(small_polys, nonzero_polys)
    @settings(deadline=None, max_examples=60)
    def test_common_factor_cancels(self, p, q):
        f = RatFun(p * q, q)
        assert f == RatFun(p)


class TestRatFun:
    def test_normalize_cancels(self):
        f = RatFun(Poly([-1, 0, 1]), Poly([-1, 1]))
        assert f == RatFun(Poly([1, 1]))

    def test_normalize_monic_convention(self):
        # 1/(2 - 2z) has monic denominator z - 1 and numerator -1/2
        f = RatFun(ONE, Poly([2, -2]))
        assert f.den == Poly([-1, 1])
        assert f.num == Poly([Fraction(-1, 2)])

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFun(ONE, ZERO)

    def test_zero_canonical(self):
        f = RatFun(ZERO, Poly([3, 1]))
        assert f.num == ZERO and f.den == ONE

    def test_structural_equality_is_value_equality(self):
        a = RatFun(Poly([1, 1]), one_minus_z(2))
        b = RatFun(ONE, one_minus_z(1))
        assert a == b

    def test_cross_equal_on_unreduced(self):
        assert cross_equal(one_minus_z(2), one_minus_z(1) * one_minus_z(2), ONE, one_minus_z(1))
        assert not cross_equal(ONE, one_minus_z(1), ONE, one_minus_z(2))

    def test_sum(self):
        f = ratfun_add(RatFun(ONE, one_minus_z(1)), RatFun(ONE, Poly([1, 1])))
        assert f == RatFun(Poly([2]), one_minus_z(2))

    def test_derivative_quotient_rule(self):
        f = RatFun(Poly([0, 1]), one_minus_z(2))
        expected = RatFun(Poly([1, 0, 1]), one_minus_z(2) * one_minus_z(2))
        assert ratfun_derivative(f) == expected

    def test_derivative_order(self):
        f = RatFun(ONE, one_minus_z(1))
        assert ratfun_derivative(f, 2) == RatFun(Poly([2]), one_minus_z(1) ** 3)

    def test_expand_known(self):
        f = RatFun(ONE, one_minus_z(1) ** 2 * one_minus_z(2))
        assert f.expand(4) == [1, 2, 4, 6, 9]

    def test_expand_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            RatFun(ONE, Poly([0, 1])).expand(3)

    @given(
        st.lists(fractions, max_size=6),
        constant_terms,
        st.lists(fractions, max_size=5),
        st.integers(min_value=0, max_value=20),
    )
    @settings(deadline=None, max_examples=60)
    def test_expand_matches_fraction_recurrence(self, num, d0, den_tail, n):
        f = RatFun(Poly(num), Poly([d0] + den_tail))
        series = f.expand(n)
        assert series == ref_expand(f, n)
        assert all(type(c) is Fraction for c in series)

    def test_expand_route_results_match_fraction_recurrence(self):
        for degs, n in (((4, 5, 6, 7), 120), ((30,), 100), ((1, 2, 3), 60)):
            for kind in ("invariants", "semiinvariants"):
                f = poincare_series(degs, kind)
                assert f.expand(n) == ref_expand(f, n), (degs, kind)

    @given(small_polys, nonzero_polys)
    @settings(deadline=None, max_examples=40)
    def test_expand_matches_derivative(self, p, q):
        if not q[0]:
            q = q + ONE
            if q.is_zero() or not q[0]:
                return
        f = RatFun(p, q)
        n = 8
        series = f.expand(n)
        deriv = ratfun_derivative(f).expand(n - 1)
        assert deriv == [(j + 1) * series[j + 1] for j in range(n)]


class TestBlocksAndFactorials:
    def test_q_block_identity(self):
        # (1 - z^a)(1 + z^a + ... + z^(a(n-1))) = 1 - z^(an), the block that
        # springer._times_block multiplies in by shift-adds of a packed integer
        from poincare_series.springer import _times_block

        for a in range(1, 7):
            for n in range(1, 7):
                # every digit of 1 - z^(an) fits one signed byte
                packed = _times_block(_pack(one_minus_z(a).ints, 1), 8 * a, n)
                assert _unpack(packed, a * n + 1, 1) == list(one_minus_z(a * n).ints)

    def test_pochhammer(self):
        assert pochhammer(3, 3) == 60
        assert pochhammer(7, 0) == 1
        assert pochhammer(1, 5) == 120
        assert pochhammer(0, 3) == 0
        with pytest.raises(ValueError):
            pochhammer(2, -1)


class TestFactoredRatFun:
    def test_value(self):
        f = FactoredRatFun(Poly([1, 1]) * Fraction(1, 2), {2: 1, 1: 2})
        explicit = RatFun(
            Poly([Fraction(1, 2), Fraction(1, 2)]),
            one_minus_z(2) * one_minus_z(1) ** 2,
        )
        assert f.to_ratfun() == explicit

    def test_repr(self):
        assert repr(FactoredRatFun(Poly([1, 2]), {1: 1, 3: 2})) == "FactoredRatFun((1 + 2z) / (1-z) (1-z^3)^2)"
        assert repr(FactoredRatFun(Poly([0, 0, -1]))) == "FactoredRatFun((-z^2) / 1)"

    def test_merges_duplicate_factors(self):
        f = FactoredRatFun(ONE, ((2, 1), (2, 2)))
        assert f.factors == ((2, 3),)

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            FactoredRatFun(ONE, {0: 1})
        with pytest.raises(ValueError):
            FactoredRatFun(ONE, {2: 0})

    def test_rejects_non_integral_factors(self):
        # a float fails here, not later inside range() in expand or to_ratfun
        for factors in ({2.0: 1}, {2: 1.0}, [(Fraction(2), 1)]):
            with pytest.raises(TypeError):
                FactoredRatFun(ONE, factors)

    def test_never_expands_factors(self):
        f = FactoredRatFun(ONE, {3: 2, 5: 4})
        assert dict(f.factors) == {3: 2, 5: 4}

    def test_expand_against_convolution(self):
        rng = random.Random(7)
        from _oracles import random_factored

        for _ in range(25):
            f = random_factored(rng)
            n = 24
            assert f.to_ratfun().expand(n) == factored_series(f, n)

    def test_add_matches_ratfun(self):
        rng = random.Random(8)
        from _oracles import random_factored

        for _ in range(20):
            f, g = random_factored(rng), random_factored(rng)
            assert (f + g).to_ratfun() == ratfun_add(f.to_ratfun(), g.to_ratfun())

    def test_derivative_matches_ratfun(self):
        rng = random.Random(9)
        from _oracles import random_factored

        cases = [random_factored(rng) for _ in range(20)]
        cases += [random_factored(rng, max_factors=8, max_exp=9, max_mult=3) for _ in range(6)]
        # six distinct factors, each repeated, over a rational numerator
        num = Poly([Fraction(1, 2), 0, Fraction(-5, 3), 1])
        cases.append(FactoredRatFun(num, {1: 2, 2: 3, 3: 2, 4: 2, 5: 3, 7: 2}))
        # a zero numerator over factors, a constant and a polynomial over none:
        # the kernel's empty-list and empty-cover paths
        cases += [FactoredRatFun(ZERO, {2: 1, 3: 2}), FactoredRatFun(Poly([Fraction(-7, 2)]))]
        cases.append(FactoredRatFun(Poly([2, 0, Fraction(-1, 3), 5])))
        for f in cases:
            assert f.derivative().to_ratfun() == ratfun_derivative(f.to_ratfun())

    def test_reduced_preserves_value(self):
        f = FactoredRatFun(one_minus_z(2) * Poly([1, 1]), {2: 2, 1: 1})
        r = f.reduced()
        assert dict(r.factors) == {2: 1, 1: 1}
        assert r.to_ratfun() == f.to_ratfun()

    def test_value_at_zero(self):
        # every (1 - z^a) is 1 at the origin, so the value there is num(0)
        f = FactoredRatFun(Poly([3, 1]) * Fraction(1, 3), {4: 2})
        assert f.num[0] == factored_series(f, 0)[0] == 1


class TestCyclotomics:
    def test_divisor_product_is_z_n_minus_one(self):
        phi = cyclotomics(range(1, 61))
        for n in range(1, 61):
            prod = ONE
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * phi[d]
            assert prod == Poly([-1] + [0] * (n - 1) + [1]), n

    def test_monic_integer_of_totient_degree(self):
        phi = cyclotomics(range(1, 61))
        assert sorted(phi) == list(range(1, 61))
        for n, p in phi.items():
            assert p.denom == 1 and p.ints[-1] == 1, n
            assert p.degree == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1), n

    def test_known_values(self):
        phi = cyclotomics([12, 7])
        assert sorted(phi) == [1, 2, 3, 4, 6, 7, 12]
        assert phi[1] == Poly([-1, 1])
        assert phi[7] == Poly([1] * 7)
        assert phi[12] == Poly([1, 0, -1, 0, 1])

    def test_first_coefficient_outside_unit_range_at_105(self):
        phi = cyclotomics(range(1, 106))
        for n in range(1, 105):
            assert set(phi[n].ints) <= {-1, 0, 1}, n
        assert -2 in phi[105].ints
        assert min(phi[105].ints) == -2 and max(phi[105].ints) == 1


def euclid_reference(f):
    """The general route: Euclid's gcd over Q inside the RatFun constructor."""
    return RatFun(f.num, den_poly(f))


# factor exponents chosen so that one Phi_n is shared by several factors
# (Phi_2 by 1 - z^2, 1 - z^4, 1 - z^6; Phi_3 by 1 - z^3, 1 - z^6, ...)
factor_maps = st.dictionaries(
    st.sampled_from([1, 2, 3, 4, 6, 8, 9, 10, 12]), st.integers(1, 3), max_size=4
)


@st.composite
def cyclotomic_numerator_cases(draw):
    factors = draw(factor_maps)
    orders = [n for a in factors for n in range(1, a + 1) if a % n == 0]
    orders += draw(st.lists(st.integers(1, 12), max_size=2))
    phi = cyclotomics(orders or [1])
    num = Poly(draw(st.lists(st.integers(-6, 6), min_size=1, max_size=7)))
    for n in draw(st.lists(st.sampled_from(sorted(phi)), max_size=8)):
        num = num * phi[n]
    scale = draw(
        st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
    )
    return FactoredRatFun(num * scale, factors)


class TestCyclotomicReduction:
    @given(cyclotomic_numerator_cases())
    @settings(deadline=None, max_examples=150)
    def test_matches_euclid_reference(self, f):
        got = f.to_ratfun()
        assert got == euclid_reference(f)
        assert got.den.ints[-1] == 1 and got.den.denom == 1

    def test_edge_cases(self):
        phi = cyclotomics([6])
        cases = [
            FactoredRatFun(ZERO, {2: 1, 6: 2}),
            FactoredRatFun(Poly([2, -3, 5]) * Fraction(-5, 3), {}),
            FactoredRatFun(ZERO),
            FactoredRatFun(ONE),
            # Phi_2 divides the numerator twice and is shared by (1 - z^2)
            # and (1 - z^6): the cancellation is partial in both
            FactoredRatFun(phi[2] ** 2 * phi[3] * Fraction(2, 3), {2: 1, 6: 2}),
            # everything cancels
            FactoredRatFun(-(phi[1] * phi[2] * phi[3] * phi[6]), {6: 1}),
        ]
        for f in cases:
            assert f.to_ratfun() == euclid_reference(f), f
        assert cases[0].to_ratfun() == RatFun(ZERO)
        assert cases[-1].to_ratfun() == RatFun(ONE)


@st.composite
def cover_cancellation_cases(draw):
    """A cover {a: e}, a <= 12 and e <= 4, over any integer polynomial times
    prod Psi_n^(k_n) with k_n <= c_n, the multiplicity of Phi_n in the cover."""
    cover = draw(st.dictionaries(st.integers(1, 12), st.integers(1, 4), min_size=1, max_size=4))
    counts: dict = {}
    for a, e in cover.items():
        for n in range(1, a + 1):
            if a % n == 0:
                counts[n] = counts.get(n, 0) + e
    phi = cyclotomics(counts)
    num = Poly(draw(st.lists(st.integers(-6, 6), min_size=1, max_size=6)))
    for n, c in sorted(counts.items()):
        num = num * phi[n] ** draw(st.integers(0, c))
    return FactoredRatFun(num, cover)


class TestCoverOverCancelled:
    """The denominator is the kept cover divided by the Psi_n that cancelled."""

    @given(cover_cancellation_cases())
    @settings(deadline=None, max_examples=150)
    def test_matches_euclid_reference(self, f):
        # the routes reduce int lists with _reduce; to_ratfun hands it f's lists
        expected = euclid_reference(f)
        assert algebra._reduce(list(f.num.ints), f.num.denom, dict(f.factors)) == expected
        assert f.to_ratfun() == expected

    def test_nothing_divided_out_when_nothing_cancels(self, monkeypatch):
        passes, calls = algebra._binomial_passes, []

        def recorded(ints, times, over):
            calls.append((list(ints), list(times), list(over)))
            return passes(ints, times, over)

        expected = euclid_reference(FactoredRatFun(ONE, {6: 1}))
        monkeypatch.setattr(algebra, "_binomial_passes", recorded)
        got = algebra._reduce([1], 1, {6: 1})
        # the last call builds the denominator: 1 - z^6 itself, no quotient
        assert calls[-1] == ([1], [6], [])
        assert got == expected

    def test_wrong_moebius_split_raises(self, monkeypatch):
        # taking every Psi_n for 1 - z, (1 - z)^2 cancels twice from a
        # cover that holds 1 - z once, and the denominator pass is inexact
        monkeypatch.setattr(algebra, "_moebius_binomials", lambda n: ([1], []))
        with pytest.raises(ArithmeticError):
            algebra._reduce([1, -2, 1], 1, {6: 1})
        with pytest.raises(ArithmeticError):
            FactoredRatFun(Poly([1, -2, 1]), {6: 1}).to_ratfun()


@st.composite
def binomial_cancellation_cases(draw):
    """An int list, empty or zero or shorter than some a included, times some
    (1 - z^a) units, with trailing zeros, over a cover {a: e} with a <= 12."""
    ints = draw(st.lists(st.integers(-4, 4), max_size=8))
    for a in draw(st.lists(st.integers(1, 12), max_size=5)):
        ints = algebra._binomial_passes(ints, (a,), ()) if ints else ints
    ints = ints + [0] * draw(st.integers(0, 3))
    cover = draw(st.dictionaries(st.integers(1, 12), st.integers(1, 4), min_size=1, max_size=4))
    return ints, cover


class TestCancelByResidueClasses:
    """_cancel_binomials by residue classes equals one full trial per unit."""

    @given(binomial_cancellation_cases())
    @settings(deadline=None, max_examples=300)
    def test_matches_unit_trials(self, case):
        ints, cover = case
        assert algebra._cancel_binomials(ints, cover) == ref_cancel_binomials(ints, cover)

    @pytest.mark.parametrize(
        "ints", [[], [0], [0, 0, 0], [0] * 13, [1, -1], [1, -1, 0, 0], [2], [1, 0, -1], [3, 0, 0, -3, 0]]
    )
    def test_edge_numerators(self, ints):
        # an empty class sums to zero and divides, as the unit trial treats []
        for cover in ({1: 3}, {2: 2}, {3: 1, 5: 2}, {12: 4}, {1: 1, 2: 1, 3: 1}):
            got = algebra._cancel_binomials(ints, cover)
            assert got == ref_cancel_binomials(ints, cover), (ints, cover)
            assert algebra._cancel_binomials(tuple(ints), cover)[1] == got[1]

    def test_untouched_numerator_is_returned_as_is(self):
        ints = (1, 1, 1)
        assert algebra._cancel_binomials(ints, {2: 1, 4: 2}) == (ints, {2: 1, 4: 2})


class TestResidueSumTest:
    """Phi_n divides a numerator iff it divides its n residue sums mod z^n - 1."""

    @pytest.mark.parametrize("n", range(1, 31))
    def test_agrees_with_the_full_pass(self, n):
        plus, minus = algebra._moebius_binomials(n)
        phi = cyclotomics([n])[n]
        rng = random.Random(n)
        for k in range(4):
            for _ in range(3):
                head = [rng.randint(-5, 5) for _ in range(rng.randint(0, 8))]
                ints = list((Poly(head + [rng.choice([-2, 1, 3])]) * phi**k).ints)
                for perturb in (False, True):
                    if perturb:
                        ints[rng.randrange(len(ints))] += rng.choice([-1, 1])
                    residues = [sum(ints[r::n]) for r in range(n)]
                    full = algebra._binomial_passes(ints, minus, plus)
                    short = algebra._binomial_passes(residues, minus, plus)
                    assert (full is None) == (short is None), (n, k, perturb, ints)
                    assert full is not None or perturb or not k, (n, k, ints)

    @pytest.mark.parametrize("kind", ["invariants", "semiinvariants"])
    def test_no_full_pass_fails_on_the_ladder(self, monkeypatch, kind):
        from poincare_series import springer

        recorded = []
        monkeypatch.setattr(springer, "_reduce", lambda *args: recorded.append(args) or algebra._reduce(*args))
        springer._poincare_cached.cache_clear()
        springer._poles.cache_clear()
        try:
            for degs in [(1, 2, 3), (1, 2, 3, 4, 5), (3, 4, 5, 6), (8, 8), (12,), (10, 10)]:
                poincare_series(degs, kind)
        finally:
            springer._poincare_cached.cache_clear()
            springer._poles.cache_clear()
        assert len(recorded) == 6
        passes, calls = algebra._binomial_passes, []

        def spy(ints, times, over):
            out = passes(ints, times, over)
            calls.append((len(ints), max(over, default=0), out is not None))
            return out

        monkeypatch.setattr(algebra, "_binomial_passes", spy)
        full = []
        for args in recorded:
            algebra._reduce(*args)
            # the last call builds the denominator. Before it, a Psi_n trial on a
            # numerator longer than 4n tests the n residue sums first, and passes
            # over the whole numerator only when they were exact
            full += [ok for size, n, ok in calls[:-1] if size > 4 * n]
            calls.clear()
        assert all(full)
        # Psi_n cancels in both kinds of (8,8) and the invariants of (12,) and (10,10)
        assert full

    def test_failing_full_pass_raises(self, monkeypatch):
        # 1 - z^2 does not divide the numerator as a whole, the residue sum [0]
        # of Psi_1 is exact, and a full pass that then fails is an error, not a skip
        passes = algebra._binomial_passes
        monkeypatch.setattr(algebra, "_binomial_passes", lambda ints, t, o: None if len(ints) > 1 else passes(ints, t, o))
        with pytest.raises(ArithmeticError, match="Psi_1"):
            algebra._reduce([1, 1, 1, 1, 1, -5], 1, {2: 1})


def run_every_route():
    """Each route once: library series, closed forms and CLI requests with checks."""
    from poincare_series import cli, closedform, springer

    springer._poincare_cached.cache_clear()
    springer._poles.cache_clear()
    try:
        for d in ((1, 2, 3), (2, 2), (4, 5), (3, 3, 1), (6,)):
            for kind in ("invariants", "semiinvariants"):
                springer.poincare_series(d, kind)
        for kind in ("invariants", "covariants"):
            springer.single_form_series(7, kind)
        for kind in ("invariants", "semiinvariants"):
            closedform.all_ones(4, kind)
            closedform.all_twos(3, kind)
        for argv in (
            ["--d", "2,3", "--kind", "invariants", "--format", "factored"],
            ["--d", "1,1,1", "--method", "all", "--format", "json"],
            ["--d", "2,2", "--kind", "invariants", "--method", "all"],
            ["--d", "5", "--kind", "covariants", "--method", "all"],
        ):
            assert cli.main(argv) == 0, argv
    finally:
        # results made under a patch are correct; dropping them keeps later
        # tests independent of this one
        springer._poincare_cached.cache_clear()
        springer._poles.cache_clear()


class TestNoGcdOnHotPath:
    """Every route's result is reduced without Euclid's gcd."""

    def test_routes_never_call_poly_gcd(self, monkeypatch, capsys):
        def forbidden(p, q):
            raise AssertionError("poly_gcd on the hot path")

        monkeypatch.setattr(algebra, "poly_gcd", forbidden)
        run_every_route()
        capsys.readouterr()


class TestOnlyPolesBelowTheShift:
    """The operator route sums the poles below the shift alone; the psi terms at
    and above it are zero and are never computed."""

    def test_routes_never_call_psi_term(self, monkeypatch, capsys):
        from poincare_series import springer

        def forbidden(i, k, r_fun, n):
            raise AssertionError(f"psi term at pole {i} of shift {n} on the route")

        monkeypatch.setattr(springer, "psi_term_factored", forbidden)
        run_every_route()
        capsys.readouterr()


class TestPfdBelowTheShift:
    """The operator route decomposes only the poles below the shift."""

    def test_routes_never_decompose_poles_at_or_above_the_shift(self, monkeypatch, capsys):
        from poincare_series import springer

        decompose = springer._pole_numerators
        poles = []

        def recorded(exponents, shift):
            for pole in decompose(exponents, shift):
                poles.append((pole[0], shift))
                yield pole

        monkeypatch.setattr(springer, "_pole_numerators", recorded)
        run_every_route()
        capsys.readouterr()
        assert poles
        assert [(i, shift) for i, shift in poles if shift is None or i >= shift] == []


class TestClosedFormsByHorner:
    """sum_k c_k D^(k-1) T_k is one Horner chain of n - 1 steps, not one chain per k."""

    @pytest.mark.parametrize("name", ["all_ones", "all_twos"])
    @pytest.mark.parametrize("kind", ["invariants", "semiinvariants"])
    def test_at_most_n_derivatives(self, monkeypatch, name, kind):
        from poincare_series import closedform

        steps = []
        horner = closedform._cover_horner

        def counted(base, terms, consts=None):
            assert consts is None, "the closed forms step in d/dz"
            steps.append(len(terms) - 1)
            return horner(base, terms, consts)

        monkeypatch.setattr(closedform, "_cover_horner", counted)
        n = 6
        getattr(closedform, name)(n, kind)
        assert steps == [n - 1], steps


class TestNoFactoredDerivative:
    """No route differentiates a FactoredRatFun: pole sums and closed forms
    run their Horner steps on integer lists over one cover."""

    def test_routes_never_call_factored_derivative(self, monkeypatch, capsys):
        from poincare_series import closedform

        def forbidden(self):
            raise AssertionError("FactoredRatFun.derivative on a route")

        monkeypatch.setattr(FactoredRatFun, "derivative", forbidden)
        run_every_route()
        for kind in ("invariants", "semiinvariants"):
            closedform.all_ones(8, kind)
            closedform.all_twos(8, kind)
        capsys.readouterr()


class TestNoFactoredSum:
    """No route adds two FactoredRatFun: the poles and the single-form terms are
    multisected and summed on one cover by ``springer._multisect_sum``."""

    def test_routes_never_call_factored_add(self, monkeypatch, capsys):
        def forbidden(self, other):
            raise AssertionError("FactoredRatFun sum on a route")

        monkeypatch.setattr(FactoredRatFun, "__add__", forbidden)
        run_every_route()
        capsys.readouterr()


class TestNoFractionSeries:
    """Series output runs on integers: the recurrence does no Fraction arithmetic."""

    def test_long_series_without_fraction_arithmetic(self, monkeypatch, capsys):
        from poincare_series import cli, springer

        f = springer.poincare_series((4, 5, 6, 7), "semiinvariants")

        def forbidden(*args):
            raise AssertionError("Fraction arithmetic in series output")

        for name in ("__mul__", "__sub__", "__truediv__"):
            monkeypatch.setattr(Fraction, name, forbidden)
        assert len(f.expand(500)) == 501
        argv = ["--d", "4,5,6,7", "--format", "series", "--truncate", "500"]
        assert cli.main(argv) == 0
        capsys.readouterr()


class TestNoLongDivisionByBinomials:
    """Every quotient by 1 - z^a is a stride prefix sum, never Poly.__divmod__."""

    def test_routes_never_divmod_by_a_binomial(self, monkeypatch, capsys):
        long_division = Poly.__divmod__

        def guarded(p, q):
            if len(q.ints) > 1 and q.ints[0] == 1 and q.ints[-1] == -1 and not any(q.ints[1:-1]):
                raise AssertionError(f"long division by 1 - z^{q.degree}")
            return long_division(p, q)

        monkeypatch.setattr(Poly, "__divmod__", guarded)
        run_every_route()
        capsys.readouterr()


class TestNoLongDivision:
    """Every quotient on every route, by 1 - z^a or by Phi_n, is a binomial pass."""

    def test_routes_never_divmod(self, monkeypatch, capsys):
        def forbidden(p, q):
            raise AssertionError(f"long division by {q!r}")

        monkeypatch.setattr(Poly, "__divmod__", forbidden)
        run_every_route()
        capsys.readouterr()
