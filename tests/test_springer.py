import random
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_series.algebra import (
    ONE,
    ZERO,
    FactoredRatFun,
    Poly,
    RatFun,
    _width,
    one_minus_z,
    pochhammer,
)
from poincare_series.counting import (
    DegreeVector,
    as_degree_vector,
    build_factored_gf,
    degree_multisets,
    dimensions,
)
from poincare_series import springer
from poincare_series.springer import (
    PFD,
    _CACHE_SIZE,
    _multisect_sum,
    _poincare_cached,
    _pole_part,
    _poles,
    partial_fractions,
    phi_factored,
    poincare_series,
    psi_term_factored,
    single_form_series,
)

from _oracles import (
    convolve,
    factored_series,
    generating_function_biseries,
    multisection,
    psi_diagonal,
    random_factored,
    random_pole,
    recombined_biseries,
    ref_below_shift,
    ref_majorants,
    ref_partial_fractions,
    ref_phi,
    times_poly,
)


def assemble(num, factors):
    den = ONE
    for a, e in factors:
        den = den * one_minus_z(a) ** e
    return RatFun(num if isinstance(num, Poly) else Poly(num), den)


ONE_PLUS_Z = Poly([1, 1])


def factored(result):
    """The FactoredRatFun of a ``_multisect_sum`` result (ints, denom, cover)."""
    ints, denom, cover = result
    return FactoredRatFun(Poly._from_ints(list(ints), denom), cover)


def multisect_sum(parts):
    return factored(_multisect_sum(parts))


def pole_sum(r_funs, m, prefactor):
    """The route's sum at one pole below the shift: phi_m of sum_k C(theta/m + k - 1, k - 1) R_k.

    The R_k reach ``_pole_part`` as lists over their common denominator, with
    D_0 read off R_beta; a nonzero R_k not over D_0 L^(beta - k) raises ValueError.
    """
    beta, cover = len(r_funs), r_funs[-1].factors
    denom = lcm(*[r.num.denom for r in r_funs])
    for k, r in enumerate(r_funs, 1):
        if r.num and r.factors != tuple((a, b + beta - k) for a, b in cover):
            raise ValueError(f"R_{k} over {dict(r.factors)} does not share one pole's cover")
    nums = [[c * (denom // r.num.denom) for c in r.num.ints] for r in r_funs]
    return multisect_sum([_pole_part(nums, dict(cover), m, prefactor, denom)])


# the semi-invariant and invariant prefactors, 1 + z and 1 - z^2
PREFACTORS = [[1, 1], [1, 0, -1]]


def exponent_maps():
    """Exponent maps of small systems, then maps of 1-4 exponents in 0..7.

    The three fixed maps put two exponents at the same distance on both
    sides of a pole, so that one (1 - z^m) factor collects both; the rest
    are random, with multiplicities 1-4.
    """
    maps = [build_factored_gf(degs) for degs in [(1,), (2,), (1, 1), (2, 1), (1, 2, 3), (2, 2)]]
    maps += [{1: 2, 3: 1, 5: 3}, {0: 4, 3: 2, 6: 1}, {2: 1, 4: 3, 6: 2, 7: 4}]
    rng = random.Random(29)
    while len(maps) < 150:
        exps = rng.sample(range(8), rng.randint(1, 4))
        maps.append({e: rng.randint(1, 4) for e in exps})
    return maps


def pfd_terms(terms):
    return [(i, k, a.num, a.factors) for i, k, a in terms]


@st.composite
def single_distance_maps(draw):
    """Two or three exponents m apart: at each pole the others sit at one distance."""
    e, m = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    betas = draw(st.lists(st.integers(1, 12), min_size=2, max_size=3))
    return {e + j * m: beta for j, beta in enumerate(betas)}


pfd_exponent_maps = st.one_of(
    single_distance_maps(),
    st.dictionaries(st.integers(0, 12), st.integers(1, 12), min_size=1, max_size=4),
)


# every system of degree sum at most 12 in at most 6 forms, plus ladder anchors
SHIFT_SYSTEMS = list(degree_multisets(12, 6)) + [(1, 2, 3), (20,), (4, 5, 6, 7), (10, 10), (2,) * 14]
# every system of degree sum at most 12 in at most 6 forms, plus the springer-ladder anchors
POLE_SYSTEMS = list(degree_multisets(12, 6)) + [(1, 2, 3), (1, 2, 3, 4, 5), (3, 4, 5, 6), (8, 8), (12,), (10, 10)]


class TestPartialFractions:
    @pytest.mark.parametrize(
        "beta",
        [{0: n, 2: n} for n in (1, 2, 7, 12)]
        + [{1: 3}, {0: 12, 3: 12, 6: 12}]
        + [build_factored_gf(d) for d in [(2,) * 14, (1, 2, 3, 4, 5), (10, 10), (4, 5, 6, 7)]]
        # high multiplicity at many distances: the packed recurrence's widest digits
        + [build_factored_gf(d) for d in [(2,) * 16, (3,) * 10, (1,) * 20]]
        + [{0: 16, 3: 16, 7: 16}, {0: 9, 1: 9, 2: 9, 4: 9, 5: 9}]
        # coefficients of r S_r (198, 176) near their bound (220): a width
        # one bit short would be one byte, too narrow for them
        + [{3: 3, 4: 9, 7: 1}, {0: 3, 4: 8, 11: 2}],
    )
    def test_matches_binomial_series_reference(self, beta):
        assert pfd_terms(partial_fractions(beta).terms) == pfd_terms(ref_partial_fractions(beta))

    def test_packs_once_per_pole_and_distance(self, monkeypatch):
        # the recurrence runs on packed integers: no Kronecker product, and
        # no more packs than (pole, distance) pairs
        from poincare_series import algebra, springer

        packs = []
        pack = algebra._pack

        def counted(ints, width):
            packs.append(len(ints))
            return pack(ints, width)

        def forbidden(a, b):
            raise AssertionError("Kronecker product inside partial_fractions")

        for module in (algebra, springer):
            monkeypatch.setattr(module, "_pack", counted, raising=False)
        monkeypatch.setattr(algebra, "_kronecker_mul", forbidden)
        beta = build_factored_gf((2,) * 12)
        partial_fractions(beta)
        pairs = sum(len({abs(e - i) for e in beta if e != i}) for i in beta)
        assert 0 < len(packs) <= pairs, (packs, pairs)

    def test_inexact_recurrence_rejected(self, monkeypatch):
        # r S_r is checked digit by digit: a coefficient that r does not divide raises
        unpack = springer._unpack

        def off_by_one(value, size, width):
            digits = unpack(value, size, width)
            digits[0] += 1
            return digits

        monkeypatch.setattr(springer, "_unpack", off_by_one)
        with pytest.raises(ArithmeticError, match="not divisible"):
            partial_fractions({0: 3, 1: 1, 2: 1})

    @pytest.mark.parametrize("d", SHIFT_SYSTEMS)
    def test_shift_keeps_the_poles_below_it(self, d):
        beta = build_factored_gf(d)
        full = partial_fractions(beta)
        below = partial_fractions(beta, full.d_star)
        assert below.d_star == full.d_star
        prefix = [t for t in full.terms if t[0] < full.d_star]
        assert prefix and pfd_terms(below.terms) == pfd_terms(prefix)
        assert pfd_terms(partial_fractions(beta, None).terms) == pfd_terms(full.terms)

    @given(pfd_exponent_maps)
    @settings(deadline=None, max_examples=120)
    def test_matches_binomial_series_reference_on_random_maps(self, beta):
        assert pfd_terms(partial_fractions(beta).terms) == pfd_terms(ref_partial_fractions(beta))

    def test_single_linear_form(self):
        pfd = partial_fractions(build_factored_gf((1,)))
        assert pfd.d_star == 1
        terms = {(i, k): A for i, k, A in pfd.terms}
        assert set(terms) == {(0, 1), (2, 1)}
        assert terms[(0, 1)].to_ratfun() == assemble([1], [(2, 1)])
        assert terms[(2, 1)].to_ratfun() == assemble([0, 0, -1], [(2, 1)])

    def test_all_powers_present_including_zero(self):
        pfd = partial_fractions(build_factored_gf((1, 1)))
        keys = [(i, k) for i, k, _ in pfd.terms]
        assert keys == [(0, 1), (0, 2), (2, 1), (2, 2)]

    def test_all_ones_closed_coefficients(self):
        # n linear forms: A_{0,k} = (-1)^(n-k) (n)_(n-k)/(n-k)! z^(2(n-k)) / (1-z^2)^(2n-k)
        for n in range(1, 6):
            pfd = partial_fractions(build_factored_gf((1,) * n))
            terms = {(i, k): A for i, k, A in pfd.terms}
            for k in range(1, n + 1):
                r = n - k
                num = Poly([0] * (2 * r) + [Fraction((-1) ** r * pochhammer(n, r), factorial(r))])
                assert terms[(0, k)].to_ratfun() == assemble(num, [(2, 2 * n - k)])

    def test_mixed_system_first_coefficients(self):
        pfd = partial_fractions(build_factored_gf((1, 2, 3)))
        terms = {(i, k): A for i, k, A in pfd.terms}
        a01 = assemble([1], [(4, 2), (2, 2), (5, 1), (3, 1), (1, 1), (6, 1)])
        assert terms[(0, 1)].to_ratfun() == a01
        a11 = assemble([0, -1], [(3, 2), (1, 3), (4, 1), (2, 1), (5, 1)])
        assert terms[(1, 1)].to_ratfun() == a11
        a21 = assemble(
            Poly([0, 0, 0, -1]) * Poly([-2, -2, -1, 2, 6, 5, 5]),
            [(4, 2), (1, 1), (3, 2), (2, 3)],
        )
        assert terms[(2, 1)].to_ratfun() == a21
        a22 = assemble([0, 0, 0, 1], [(4, 1), (1, 2), (3, 1), (2, 3)])
        assert terms[(2, 2)].to_ratfun() == a22
        a31 = assemble([0] * 7 + [1], [(3, 2), (1, 4), (2, 2)])
        assert terms[(3, 1)].to_ratfun() == a31
        assert terms[(3, 1)].num[0] == 0

    def test_recombination_identity(self):
        for beta in exponent_maps():
            pfd = partial_fractions(beta)
            t_order, z_order = 6, 12
            assert recombined_biseries(pfd, t_order, z_order) == generating_function_biseries(
                beta, t_order, z_order
            ), beta

    def test_integer_numerators_over_distance_factors(self):
        # A_{i,k} = integer polynomial / prod_m (1 - z^m)^(B_m + beta_i - k)
        for beta in exponent_maps():
            for i, k, a_ik in partial_fractions(beta).terms:
                assert a_ik.num.denom == 1, (beta, i, k)
                expected = {}
                for e, b in beta.items():
                    if e != i:
                        expected[abs(e - i)] = expected.get(abs(e - i), 0) + b
                for m in expected:
                    expected[m] += beta[i] - k
                assert dict(a_ik.factors) == expected, (beta, i, k)

    def test_empty_exponent_map_rejected(self):
        with pytest.raises(ValueError):
            partial_fractions({})

    @pytest.mark.parametrize("beta", [{0: 0}, {0: 0, 1: 2}, {0: -1, 1: 1}])
    def test_multiplicity_below_one_rejected(self, beta):
        # a zero or negative beta_e is not a pole: reject it, naming the exponent
        with pytest.raises(ValueError, match="beta_0"):
            partial_fractions(beta)

    @pytest.mark.parametrize("d", SHIFT_SYSTEMS)
    def test_terms_at_and_above_the_shift_vanish_at_the_origin(self, d):
        # what lets poincare_series sum only the poles below the shift: with
        # beta_0 >= 1 every A_{i,k} with i >= d* is a multiple of z, so its psi
        # terms R_k(0)/(1 - z)^k and R_k(0) are zero
        beta = build_factored_gf(d)
        assert beta.get(0, 0) >= 1
        pfd = partial_fractions(beta)
        at_or_above = [(i, k, a) for i, k, a in pfd.terms if i >= pfd.d_star]
        assert at_or_above
        assert [(i, k) for i, k, a in at_or_above if a.num[0] != 0] == []


def packed_poles(exponents):
    """(i, below, above, top) of each pole that _pole_series packs: two or more distances, top >= 1."""
    for i, beta_i in sorted(exponents.items()):
        below = {i - e: beta for e, beta in exponents.items() if e < i}
        above = {e - i: beta for e, beta in exponents.items() if e > i}
        if beta_i > 1 and len({*below, *above}) > 1:
            yield i, below, above, beta_i - 1


def pole_width_margins(exponents):
    """Spare bits of each packed pole's width over the largest coefficient of L and of every r S_r.

    S_r is read off the list oracle ``ref_partial_fractions``, which divides
    by long division and packs nothing; the width is the one that
    ``_pole_series`` packs L at. Each coefficient must be at most half the
    docstring's l1 bound top T_top, T_r = C(beta + r - 1, r) 2^((#m - 1) r),
    and below 2^(8W - 1), where a packed digit would overflow.
    """
    oracle = {(i, k): a for i, k, a in ref_partial_fractions(exponents)}
    margins = {}
    for i, below, above, top in packed_poles(exponents):
        dists = sorted({*below, *above})
        widths = []
        pack = springer._pack

        def recorded(ints, width):
            widths.append(width)
            return pack(ints, width)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(springer, "_pack", recorded)
            series = springer._pole_series(below, above, top)
        beta = sum(below.values()) + sum(above.values())
        bound = top * comb(beta + top - 1, top) << (len(dists) - 1) * top
        assert widths == [_width(bound // 2)], (exponents, i)
        lead, sign = sum(m * b for m, b in below.items()), (-1) ** sum(below.values())
        coeffs = list(prod(map(one_minus_z, dists), start=ONE).ints)
        for r in range(1, top + 1):
            s_r = [sign * c for c in oracle[(i, top + 1 - r)].num.ints[lead:]]
            assert s_r == series[r][: len(s_r)] and not any(series[r][len(s_r) :]), (exponents, i, r)
            coeffs += [r * c for c in s_r]
        largest = max(map(abs, coeffs))
        assert largest <= bound // 2, (exponents, i, largest, bound)
        assert largest < 1 << 8 * widths[0] - 1, (exponents, i, largest, widths)
        margins[i] = 8 * widths[0] - 1 - largest.bit_length()
    return margins


# the six ladder anchors, then equal forms, deep cancellation and five distinct forms
WIDTH_AUDIT_SYSTEMS = [
    (1, 2, 3), (1, 2, 3, 4, 5), (3, 4, 5, 6), (8, 8), (12,), (10, 10),
    (2,) * 14, (3,) * 8, (3, 3, 3, 3, 2, 2, 2, 2), (3, 4, 5, 6, 7),
]


class TestPoleSeriesWidth:
    """The packed width of _pole_series, from the closed form of its l1 bound."""

    @pytest.mark.parametrize("d", WIDTH_AUDIT_SYSTEMS)
    def test_every_coefficient_fits_the_width(self, d):
        margins = pole_width_margins(build_factored_gf(d))
        # a single form has beta = 1 at every exponent, so no pole is packed
        assert bool(margins) == (len(d) > 1)

    @given(st.dictionaries(st.integers(0, 12), st.integers(1, 12), min_size=2, max_size=5))
    @settings(deadline=None, max_examples=120)
    def test_every_coefficient_fits_the_width_on_random_maps(self, beta):
        pole_width_margins(beta)

    @pytest.mark.parametrize("beta", range(1, 60))
    def test_closed_form_matches_the_recurrence(self, beta):
        # T_r = C(beta + r - 1, r) 2^((#m - 1) r) solves r T_r = beta sum_j 2^((#m - 1) j) T_(r-j)
        # exactly, so the ceilings never round, and r T_r grows with r
        for count in range(2, 12):
            t, u = ref_majorants(beta, count, 39)
            for top in range(1, 40):
                closed = comb(beta + top - 1, top) << (count - 1) * top
                assert (t[top], u[top]) == (closed, top * closed), (beta, count, top)


class TestPhi:
    def test_identity_at_one(self):
        f = FactoredRatFun(Poly([1, 2, 3]), {2: 1})
        assert phi_factored(f, 1) is f

    def test_geometric(self):
        f = FactoredRatFun(ONE, {1: 1})
        assert phi_factored(f, 2).to_ratfun() == assemble([1], [(1, 1)])

    def test_reduces_factors_by_gcd(self):
        # each (1 - z^a)^e becomes (1 - z^(a/gcd(a, n)))^e
        f = FactoredRatFun(Poly([1, 1, 1, 1]), {2: 2, 3: 1, 6: 4})
        assert phi_factored(f, 3).factors == ((1, 1), (2, 6))
        assert phi_factored(f, 4).factors == ((1, 2), (3, 5))
        for n in (3, 4):
            got = factored_series(phi_factored(f, n), 20)
            assert got == multisection(factored_series(f, 20 * n), n)
        g = phi_factored(FactoredRatFun(ONE, {2: 3}), 2)
        assert g.num == ONE
        assert g.factors == ((1, 3),)

    def test_even_part_substitution(self):
        # phi_2 of F(z^2) is F(z); phi_2 of z F(z^2) vanishes
        rng = random.Random(3)
        for _ in range(20):
            coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
            spread = [c for x in coeffs for c in (x, 0)]
            even = FactoredRatFun(Poly(spread))
            assert phi_factored(even, 2).to_ratfun() == RatFun(Poly(coeffs))
            odd = FactoredRatFun(Poly([0] + spread))
            assert phi_factored(odd, 2).to_ratfun() == RatFun(Poly([]))

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            phi_factored(FactoredRatFun(ONE), 0)

    def test_against_series_multisection(self):
        rng = random.Random(41)
        cases = [(random_factored(rng), rng.randint(1, 6)) for _ in range(60)]
        # longer blocks and multiplicities up to 4, then Fraction numerator coefficients
        for _ in range(40):
            cases.append((random_factored(rng, max_factors=4, max_exp=8, max_mult=4), rng.randint(1, 12)))
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 6))]
            factors = random_factored(rng, max_exp=8, max_mult=4).factors
            cases.append((FactoredRatFun(Poly(coeffs), factors), rng.randint(1, 12)))
        terms = 30
        for f, n in cases:
            direct = factored_series(phi_factored(f, n), terms)
            assert direct == multisection(factored_series(f, terms * n), n), (f, n)

    def test_worked_multisection(self):
        # phi_3 of (1+z) times the first mixed-system coefficient
        pfd = partial_fractions(build_factored_gf((1, 2, 3)))
        a01 = next(A for i, k, A in pfd.terms if (i, k) == (0, 1))
        shown = assemble(
            Poly([1, 4, 14, 21, 33, 42, 42, 34, 29, 14, 7, 2]),
            [(5, 1), (1, 3), (4, 2), (2, 2)],
        )
        assert phi_factored(times_poly(a01, ONE_PLUS_Z), 3).to_ratfun() == shown

    def test_worked_multisection_second(self):
        pfd = partial_fractions(build_factored_gf((1, 2, 3)))
        a11 = next(A for i, k, A in pfd.terms if (i, k) == (1, 1))
        shown = assemble(
            Poly([0, -1]) * Poly([4, 6, 13, 12, 13, 9, 6, 1]),
            [(2, 1), (5, 1), (3, 2), (1, 4)],
        )
        assert phi_factored(times_poly(a11, ONE_PLUS_Z), 2).to_ratfun() == shown


def pairwise_phi_sum(parts):
    """The parts' multisections by block passes, summed pairwise by ``FactoredRatFun.__add__``."""
    total = FactoredRatFun(ZERO)
    for ints, denom, factors, n in parts:
        total = total + ref_phi(FactoredRatFun(Poly._from_ints(list(ints), denom), factors), n)
    return total


class TestMultisectSum:
    """``_multisect_sum`` multisects each part on one packed integer and sums the parts on one cover."""

    def test_matches_pairwise_block_passes(self):
        rng = random.Random(53)
        for _ in range(80):
            parts = []
            for _ in range(rng.randint(1, 4)):
                f = random_factored(rng, max_factors=4, max_exp=8, max_mult=3)
                parts.append((f.num.ints, f.num.denom, f.factors, rng.randint(1, 12)))
            got, want = multisect_sum(parts), pairwise_phi_sum(parts)
            assert (got.num, got.factors) == (want.num, want.factors), parts

    def test_edge_parts(self):
        parts = [
            ([], 1, [(7, 2)], 3),  # zero numerator: no value, but (1 - z^7)^2 in the cover
            ([1, 2, 3], 5, [(2, 1), (3, 2)], 1),  # n = 1: no block, no multisection
            ([1, -1, 4, 0, 2], 3, [(6, 2), (3, 1)], 3),  # n divides every a: a slice
            ([0, 0, -3, 1], 2, [(2, 1), (2, 2), (5, 1)], 4),  # one a twice, merged
            ([4, 0, 1], 1, [], 2),  # no factor at all
        ]
        got, want = multisect_sum(parts), pairwise_phi_sum(parts)
        assert (got.num, got.factors) == (want.num, want.factors)
        assert dict(got.factors)[7] == 2
        assert multisect_sum([]).is_zero()
        for part in parts:
            got, want = multisect_sum([part]), pairwise_phi_sum([part])
            assert (got.num, got.factors) == (want.num, want.factors), part

    def test_digit_at_the_width_bound(self):
        # N = [c] * L with L > deg prod B^e: every coefficient of N prod B^e from
        # deg prod B^e to L - 1 is c prod k^e, the bound the packed width is sized
        # for, and multiples of n lie among them
        c, n, factors = 7, 6, [(1, 2), (2, 1), (4, 3)]
        blocks = [(a, n // gcd(a, n), e) for a, e in factors]
        # B^e with B = 1 + z^a + ... + z^(a (k - 1))
        powers = [Poly([int(j % a == 0) for j in range(a * (k - 1) + 1)]) ** e for a, k, e in blocks]
        product = prod(powers, start=ONE)
        ints = [c] * (product.degree + 3 * n)
        full = (Poly(ints) * product).ints
        bound = c * prod(k**e for _, k, e in blocks)
        assert max(map(abs, full)) == bound
        assert bound in full[::n]
        got = multisect_sum([(ints, 1, factors, n)])
        want = ref_phi(FactoredRatFun(Poly(ints), factors), n)
        assert (got.num, got.factors) == (want.num, want.factors)


    def test_distinct_denominators_and_lift_units(self):
        # parts over coprime denominators, each missing units of the cover
        # that another part brings: every part is lifted while packed
        rng = random.Random(29)
        lifted = 0
        for _ in range(60):
            parts = []
            for denom in rng.sample([1, 2, 3, 5, 7, 12], rng.randint(2, 4)):
                ints = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
                factors = [(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
                parts.append((ints, denom, factors, rng.randint(1, 8)))
            got, want = multisect_sum(parts), pairwise_phi_sum(parts)
            assert (got.num, got.factors) == (want.num, want.factors), parts
            owns = [dict(ref_phi(FactoredRatFun(ONE, f), n).factors) for _, _, f, n in parts]
            lifted += any(own != dict(got.factors) for own in owns)
        assert lifted > 30

    def test_summed_digit_at_the_common_width(self, monkeypatch):
        # (-1)^popcount(j) c for j < 8, lifted by (1 - z)(1 - z^2)(1 - z^4), has
        # the digit -8 c at z^7: each unit doubles it, as the width bound allows.
        # The second part brings those units and -c2 at z^7, the third a
        # multisection with its own lift. Over the denominators 3, 2 and 5 the
        # digit at z^7 comes within 48 of the whole bound, a 64-bit digit in 9
        # bytes; the bound without the doublings, or the largest part's bound
        # alone, would give 8 bytes
        c, c2 = 1 << 56, 1 << 58
        parts = [
            ([c * (-1) ** bin(j).count("1") for j in range(8)], 3, [], 1),
            ([0] * 7 + [-c2], 2, [(1, 1), (2, 1), (4, 1)], 1),
            ([1, -1, 1], 5, [(1, 1)], 2),
        ]
        reads = []
        unpack = springer._unpack

        def recorded(value, size, width):
            digits = unpack(value, size, width)
            reads.append((width, digits))
            return digits

        monkeypatch.setattr(springer, "_unpack", recorded)
        got, want = multisect_sum(parts), pairwise_phi_sum(parts)
        assert (got.num, got.factors) == (want.num, want.factors)
        ((width, digits),) = reads
        bound = 10 * 8 * c + 15 * c2 + 6 * 2 * 4
        assert bound - 48 <= -digits[7] <= bound
        assert abs(digits[7]).bit_length() == 8 * width - 8

    def test_lift_stays_packed(self, monkeypatch):
        # no list pass lifts a part, and each sum is unpacked once
        calls = {"passes": 0, "unpack": 0}
        passes, unpack = springer._binomial_passes, springer._unpack

        def counted_passes(*args):
            calls["passes"] += 1
            return passes(*args)

        def counted_unpack(*args):
            calls["unpack"] += 1
            return unpack(*args)

        monkeypatch.setattr(springer, "_binomial_passes", counted_passes)
        monkeypatch.setattr(springer, "_unpack", counted_unpack)
        sums = [
            [([1, 2, 3], 5, [(2, 1), (3, 2)], 1), ([0, 1], 3, [(6, 4)], 4), ([], 1, [(7, 2)], 3)],
            [([4, -1, 0, 2], 2, [(1, 3), (2, 1)], 6), ([1], 1, [(5, 1)], 1)],
            [([1, -1, 4, 0, 2], 3, [(6, 2), (3, 1)], 3)],
        ]
        for parts in sums:
            _multisect_sum(parts)
        assert calls == {"passes": 0, "unpack": len(sums)}


def recorded_sums(call):
    """(parts, [(w, W) per nonzero part], result) of each ``_multisect_sum`` call that call() makes."""
    sums, multisect_sum, packed_multisect = [], springer._multisect_sum, springer._packed_multisect

    def recorded(parts):
        widths = []

        def packed(ints, factors, n, width, out):
            widths.append((width, out))
            return packed_multisect(ints, factors, n, width, out)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(springer, "_packed_multisect", packed)
            result = multisect_sum(parts)
        sums.append((list(parts), widths, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(springer, "_multisect_sum", recorded)
        call()
    return sums


def prime_factors(n):
    """The primes of n with multiplicity, ascending: the order in which ``_packed_multisect`` takes them."""
    p = 2
    while n > 1:
        while n % p:
            p += 1
        n //= p
        yield p


def multisect_width_margins(parts, widths, result):
    """Spare bits of the block width w and the common width W of one ``_multisect_sum`` call.

    Every part is recomputed on int lists by the oracles' convolution: at
    each prime p of n, the block of p terms at z^a for each factor that p
    does not divide, then every p-th digit (``multisection``); then one
    (1 - z^b) per lift unit and the scale to the common denominator, and
    the running sum. Each block-stage digit, N's own included, must be at
    most the docstring's max|N| prod k^e and below 2^(8w - 1); each lift
    stage, scaled part and partial sum at most the sum bound and below
    2^(8W - 1). Returns (block margin, sum margin), the smallest spare bits.
    """
    cover = dict(result[2])
    common = lcm(*[denom for _, denom, _, _ in parts])
    live = []
    for ints, denom, factors, n in parts:
        if any(ints):
            own = {}
            for a, e in factors:
                own[a // gcd(a, n)] = own.get(a // gcd(a, n), 0) + e
            bound = max(map(abs, ints)) * prod((n // gcd(a, n)) ** e for a, e in factors)
            lift = [b for b, e in sorted(cover.items()) for _ in range(e - own.get(b, 0))]
            live.append((ints, common // denom, factors, n, bound, lift))
    sum_bound = sum(scale * bound << len(lift) for _, scale, _, _, bound, lift in live)
    assert [out for _, out in widths] == [_width(sum_bound)] * len(live), parts
    block_margin = sum_margin = 8 * _width(sum_bound) - 1
    total = []
    for (ints, scale, factors, n, bound, lift), (width, out) in zip(live, widths):
        assert width == _width(bound), (parts, n)
        digits = list(ints)
        stages = [digits]
        for p in prime_factors(n):
            rest = []
            for a, e in factors:
                if a % p:
                    block = [int(j % a == 0) for j in range(a * (p - 1) + 1)]
                    for _ in range(e):
                        digits = convolve(digits, block, len(digits) + len(block) - 2)
                        stages.append(digits)
                else:
                    a //= p
                rest.append((a, e))
            factors, digits = rest, multisection(digits, p)
        largest = max(max(map(abs, stage)) for stage in stages)
        assert largest <= bound and largest < 1 << 8 * width - 1, (parts, n, largest, width)
        block_margin = min(block_margin, 8 * width - 1 - largest.bit_length())
        stages = [digits]
        for b in lift:
            digits = convolve(digits, [1] + [0] * (b - 1) + [-1], len(digits) + b - 1)
            stages.append(digits)
        digits = [scale * c for c in digits]
        total = [x + y for x, y in zip_longest(total, digits, fillvalue=0)]
        largest = max(max(map(abs, stage)) for stage in [*stages, digits, total])
        assert largest <= sum_bound and largest < 1 << 8 * out - 1, (parts, n, largest, out)
        sum_margin = min(sum_margin, 8 * out - 1 - largest.bit_length())
    assert result[1] == common and Poly._from_ints(total, common) == factored(result).num, parts
    return block_margin, sum_margin


# the six ladder anchors, a deep cancellation and equal forms, then single forms and (4,5,6,7)
MULTISECT_AUDIT_SYSTEMS = WIDTH_AUDIT_SYSTEMS[:6] + [
    (3, 3, 3, 3, 2, 2, 2, 2), (2,) * 12, (2,) * 14, (3,) * 5, (20,), (30,), (4, 5, 6, 7),
]

multisect_parts = st.lists(
    st.tuples(
        st.lists(st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)), max_size=8),
        st.sampled_from([1, 2, 3, 5, 12]),
        st.lists(st.tuples(st.integers(1, 8), st.integers(1, 3)), max_size=4),
        st.integers(1, 12),
    ),
    min_size=1,
    max_size=4,
)


class TestMultisectWidths:
    """The block width w of ``_packed_multisect`` and the common width W of ``_multisect_sum``."""

    @pytest.mark.parametrize("kind", ["invariants", "semiinvariants"])
    @pytest.mark.parametrize("d", MULTISECT_AUDIT_SYSTEMS)
    def test_operator_route(self, d, kind):
        # past the series cache, so that the route runs its one sum
        (call,) = recorded_sums(lambda: _poincare_cached.__wrapped__(d, kind))
        multisect_width_margins(*call)

    @pytest.mark.parametrize("kind", ["invariants", "semiinvariants"])
    def test_single_form_route(self, kind):
        (call,) = recorded_sums(lambda: single_form_series(24, kind))
        multisect_width_margins(*call)

    @given(multisect_parts)
    @settings(deadline=None, max_examples=150)
    def test_random_parts(self, parts):
        (call,) = recorded_sums(lambda: springer._multisect_sum(parts))
        multisect_width_margins(*call)


class TestPsiTerm:
    def test_below_shift_plain(self):
        r = FactoredRatFun(ONE_PLUS_Z, {2: 1})
        assert psi_term_factored(0, 1, r, 1).to_ratfun() == assemble([1], [(1, 1)])

    def test_at_shift(self):
        r = FactoredRatFun(Poly([5, 7]), {3: 2})
        f = psi_term_factored(2, 3, r, 2).to_ratfun()
        assert f == assemble([5], [(1, 3)])

    def test_above_shift(self):
        r = FactoredRatFun(Poly([5, 7]), {3: 2})
        assert psi_term_factored(4, 2, r, 2).to_ratfun() == RatFun(Poly([5]))
        zero_at_origin = FactoredRatFun(Poly([0, 1]), {2: 1})
        assert psi_term_factored(4, 2, zero_at_origin, 2).to_ratfun().is_zero()

    def test_branch_validation(self):
        r = FactoredRatFun(ONE)
        with pytest.raises(ValueError):
            psi_term_factored(0, 0, r, 1)
        with pytest.raises(ValueError):
            psi_term_factored(0, 1, r, 0)

    def test_all_branches_against_diagonal(self):
        rng = random.Random(17)
        count = 12
        for _ in range(40):
            r = random_factored(rng, max_num_deg=4, max_factors=2, max_exp=3)
            n = rng.randint(1, 4)
            i = rng.randint(0, 2 * n)
            k = rng.randint(1, 3)
            need = count * max(n - i, 0)
            reference = psi_diagonal(factored_series(r, need), i, k, n, count)
            computed = factored_series(psi_term_factored(i, k, r, n), count)
            assert computed == reference, (i, k, n)

    def test_whole_pole_against_diagonal(self):
        # one pole i < n: sum_k psi(i, k, R_k) from one multisection, with
        # every R_k over the pole's cover, N_k / prod (1 - z^a)^(B_a + beta - k)
        rng = random.Random(23)
        count = 12
        for _ in range(40):
            beta = rng.randint(1, 4)
            r_funs = random_pole(rng, beta, max_cover=2, max_exp=3)
            n = rng.randint(1, 4)
            i = rng.randint(0, n - 1)
            reference = [0] * (count + 1)
            for k, r in enumerate(r_funs, start=1):
                terms = psi_diagonal(factored_series(r, count * (n - i)), i, k, n, count)
                reference = [x + y for x, y in zip(reference, terms)]
            assert factored_series(pole_sum(r_funs, n - i, [1]), count) == reference, (beta, i, n)

    def test_derivative_branch_explicit(self):
        # i < n with k = 2: 1/(1)! d/dz [z phi_{n-i}(R)]
        r = FactoredRatFun(ONE, {1: 1})
        f = psi_term_factored(0, 2, r, 2).to_ratfun()
        inner = times_poly(phi_factored(r, 2), Poly([0, 1]))
        assert f == inner.derivative().to_ratfun()


class TestCoverKernel:
    """``_pole_part`` runs the pole's Horner chain on integer lists over one cover."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12), st.integers(1, 4), st.sampled_from(PREFACTORS), st.randoms(use_true_random=False)
    )
    def test_matches_factored_chain(self, beta, m, p, rng):
        r_funs = random_pole(rng, beta)
        expected = ref_below_shift([times_poly(r, Poly(p)) for r in r_funs], m).to_ratfun()
        assert pole_sum(r_funs, m, p).to_ratfun() == expected

    @pytest.mark.parametrize("beta", [2, 5, 12])
    def test_empty_cover(self, beta):
        # a pole with no other exponent: every R_k is a polynomial and L = 1
        pfd = partial_fractions({3: beta})
        a_funs = [a for _, _, a in pfd.terms]
        assert all(not a.factors for a in a_funs)
        r_funs = [times_poly(a, ONE_PLUS_Z) for a in a_funs]
        for m in (1, 2, 3):
            assert pole_sum(a_funs, m, [1, 1]).to_ratfun() == ref_below_shift(r_funs, m).to_ratfun()

    @settings(max_examples=25, deadline=None)
    @given(pfd_exponent_maps, st.integers(1, 5), st.sampled_from(PREFACTORS))
    def test_matches_factored_chain_on_pfd_poles(self, beta, m, p):
        pfd = partial_fractions(beta)
        for i in sorted(beta):
            a_funs = [a for j, _, a in pfd.terms if j == i]
            expected = ref_below_shift([times_poly(a, Poly(p)) for a in a_funs], m).to_ratfun()
            assert pole_sum(a_funs, m, p).to_ratfun() == expected

    def test_zero_padding_accepted(self):
        # psi_term_factored hands the pole R_1..R_(k-1) = 0 with no factors
        r = FactoredRatFun(Poly([3, -1, 2]) * Fraction(1, 2), {2: 2, 3: 1})
        r_funs = [FactoredRatFun(ZERO)] * 3 + [r]
        assert pole_sum(r_funs, 2, [1]).to_ratfun() == ref_below_shift(r_funs, 2).to_ratfun()
        assert pole_sum([FactoredRatFun(ZERO)] * 3, 2, [1, 0, -1]).is_zero()

    def test_factors_off_the_cover_rejected(self):
        top = FactoredRatFun(Poly([1, 1]), {2: 1})
        for below in (
            FactoredRatFun(Poly([1]), {2: 1}),  # needs (1 - z^2)^2
            FactoredRatFun(Poly([1]), {2: 2, 3: 1}),  # (1 - z^3) is not in the cover
            FactoredRatFun(Poly([1])),
        ):
            with pytest.raises(ValueError):
                pole_sum([below, top], 3, [1])
        # R_1 of three over (1 - z) would need B_1 = -1; D_0, read off R_3, is 1
        with pytest.raises(ValueError):
            pole_sum([FactoredRatFun(Poly([1]), {1: 1})] + [FactoredRatFun(ZERO)] * 2, 1, [1])


class TestPoincareSeries:
    def test_trivial_invariants(self):
        assert poincare_series((1,), "invariants") == RatFun(ONE)

    def test_single_quadratic(self):
        assert poincare_series((2,), "invariants") == assemble([1], [(2, 1)])
        assert poincare_series((1,), "semiinvariants") == assemble([1], [(1, 1)])

    def test_two_linear_forms(self):
        assert poincare_series((1, 1), "semiinvariants") == assemble([1], [(1, 2), (2, 1)])

    def test_mixed_golden(self):
        shown = assemble(
            [1, 1, 6, 12, 20, 29, 35, 39, 35, 29, 20, 12, 6, 1, 1],
            [(4, 2), (1, 2), (2, 1), (3, 2), (5, 1)],
        )
        assert poincare_series((1, 2, 3), "semiinvariants") == shown

    def test_permutation_invariance(self):
        assert poincare_series((3, 1, 2), "semiinvariants") == poincare_series(
            (1, 2, 3), "semiinvariants"
        )
        assert poincare_series([2, 1], "invariants") == poincare_series((1, 2), "invariants")

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            poincare_series((1,), "coinvariants")

    def test_cache_is_bounded_and_hit(self):
        info = _poincare_cached.cache_info()
        # bounded, yet above the 50 series one benchmark CLI session fills
        assert info.maxsize is not None and info.maxsize >= 50
        first = poincare_series((2, 1), "invariants")
        hits = _poincare_cached.cache_info().hits
        assert poincare_series((1, 2), "invariants") is first
        assert _poincare_cached.cache_info().hits == hits + 1

    def test_one_decomposition_for_both_kinds(self, monkeypatch):
        decompose, calls = springer._pole_numerators, []

        def counted(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr(springer, "_pole_numerators", counted)
        _poincare_cached.cache_clear()
        _poles.cache_clear()
        try:
            poincare_series((3, 4), "invariants")
            poincare_series((3, 4), "covariants")
        finally:
            _poincare_cached.cache_clear()
            _poles.cache_clear()
        assert len(calls) == 1

    @pytest.mark.parametrize("d", POLE_SYSTEMS)
    def test_route_poles_match_partial_fractions(self, d):
        # the route reads _poles' lists, never partial_fractions' terms: both
        # come from one per-pole generator and must not drift apart
        d = as_degree_vector(d)
        d_star, poles = _poles(d.degrees)
        pfd = partial_fractions(build_factored_gf(d), d.d_star)
        assert d_star == d.d_star
        got = [
            (i, k, tuple(num), tuple(sorted((m, b + len(nums) - k) for m, b in base.items())))
            for i, base, nums in poles
            for k, num in enumerate(nums, 1)
        ]
        assert got == [(i, k, a.num.ints, a.factors) for i, k, a in pfd.terms]
        assert all(a.num.denom == 1 for _, _, a in pfd.terms)

    def test_pfd_cache_is_bounded(self):
        assert _poles.cache_info().maxsize == _CACHE_SIZE

    def test_shared_pfd_is_not_mutated(self):
        degrees = DegreeVector((2, 3, 4)).degrees
        _poincare_cached.cache_clear()
        _poles.cache_clear()

        def snapshot():
            d_star, poles = _poles(degrees)
            return d_star, [(i, dict(base), [tuple(num) for num in nums]) for i, base, nums in poles]

        before = snapshot()
        poincare_series(degrees, "invariants")
        poincare_series(degrees, "covariants")
        assert snapshot() == before
        _poles.cache_clear()
        assert snapshot() == before

    def test_counting_agreement_sample(self):
        for degs in [(3,), (2, 2), (4, 1)]:
            for kind in ("invariants", "semiinvariants"):
                series = poincare_series(degs, kind).expand(8)
                assert series == dimensions(degs, 8, kind)


def pole_order_at_one(den: Poly) -> int:
    r = 0
    while True:
        q, rem = divmod(den, one_minus_z(1))
        if not rem.is_zero():
            return r
        den, r = q, r + 1


def reverse(p: Poly) -> Poly:
    """z^deg p * p(1/z)."""
    return Poly._from_ints(list(reversed(p.ints)), p.denom)


# past the crosscheck sweep (N <= 8): 5 <= N = sum(d_k + 1) <= 16, d_k <= 8
LARGE_SYSTEMS = [d for d in degree_multisets(16, 8) if sum(k + 1 for k in d) >= 5]


class TestStructuralIdentities:
    """O(degree) identities of every series, for systems too big for brute force.

    With N = sum(d_k + 1) and r the pole order at z = 1: r is N - 3 for
    invariants and N - 1 for semi-invariants, deg num - deg den = -N, and
    the Gorenstein equation P(1/z) = (-1)^r z^N P(z) holds, which on
    num/den reads rev(num) den = (-1)^r num rev(den).
    """

    @given(
        st.sampled_from(LARGE_SYSTEMS),
        st.sampled_from(["invariants", "semiinvariants"]),
    )
    @settings(deadline=None, max_examples=60)
    def test_pole_order_degree_and_functional_equation(self, d, kind):
        n = sum(k + 1 for k in d)
        f = poincare_series(d, kind)
        r = pole_order_at_one(f.den)
        assert r == (n - 3 if kind == "invariants" else n - 1)
        assert f.num.degree - f.den.degree == -n
        assert reverse(f.num) * f.den == f.num * reverse(f.den) * (-1) ** r


class TestSingleForm:
    def test_linear(self):
        assert single_form_series(1, "covariants") == assemble([1], [(1, 1)])
        assert single_form_series(1, "invariants") == RatFun(ONE)

    def test_quadratic(self):
        assert single_form_series(2, "invariants") == assemble([1], [(2, 1)])
        assert single_form_series(2, "covariants") == assemble([1], [(1, 1), (2, 1)])

    def test_cubic_invariants_classical(self):
        assert single_form_series(3, "invariants") == assemble([1], [(4, 1)])

    def test_matches_pipeline(self):
        for d in range(1, 7):
            assert single_form_series(d, "invariants") == poincare_series((d,), "invariants")
            assert single_form_series(d, "covariants") == poincare_series(
                (d,), "semiinvariants"
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            single_form_series(0, "invariants")
        with pytest.raises(ValueError):
            single_form_series(2, "coinvariants")


class TestPfdType:
    def test_terms_sorted(self):
        pfd = partial_fractions(build_factored_gf((2, 1)))
        assert [(i, k) for i, k, _ in pfd.terms] == sorted((i, k) for i, k, _ in pfd.terms)

    def test_d_star(self):
        assert partial_fractions(build_factored_gf((1, 2, 3))).d_star == 3
        assert isinstance(partial_fractions(build_factored_gf((1,))), PFD)
