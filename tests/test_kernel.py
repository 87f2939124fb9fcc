"""The integer Poly kernel against a schoolbook Fraction reference.

Inputs cover the places a packed or integer kernel can go wrong: signed
coefficients, magnitudes at the edges of a byte-wide digit, coefficients
far beyond a machine word, rationals over different denominators, empty,
constant, single-term and two-term operands, and divisors that are
1 - z^a or are not monic.
"""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_series import algebra, cli
from poincare_series.algebra import (
    ONE,
    ZERO,
    FactoredRatFun,
    Poly,
    _binomial_passes,
    _pack,
    _unpack,
    _width,
    one_minus_z,
)
from poincare_series.springer import _packed_multisect

from _oracles import convolve, ref_phi


# schoolbook reference on lists of Fractions, ascending exponents


def strip(cs):
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return strip(out)


def ref_divmod(a, b):
    a, b = strip(a), strip(b)
    rem = list(a)
    if len(a) < len(b):
        return [], rem
    quot = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        q = rem[k + len(b) - 1] / b[-1]
        quot[k] = q
        for j, c in enumerate(b):
            rem[k + j] -= q * c
    return strip(quot), strip(rem)


def ref_derivative(a):
    return strip([i * c for i, c in enumerate(a)][1:])


def ref_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for cs in (a, b):
        for i, c in enumerate(cs):
            out[i] += c
    return strip(out)


def ref_pow(a, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_monic(a):
    a = strip(a)
    return [c / a[-1] for c in a]


def values(p: Poly):
    return list(p.coeffs)


# inputs

BYTE_EDGES = [s * (2 ** (8 * k) - 1) for k in range(1, 5) for s in (1, -1)] + [
    -(2 ** (8 * k)) for k in range(1, 5)
]
HALF_EDGES = [s * 2 ** (8 * k - 1) + t for k in range(1, 5) for s in (1, -1) for t in (-1, 0)]

coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.sampled_from(BYTE_EDGES + HALF_EDGES),
    st.integers(min_value=2**256, max_value=2**300).flatmap(
        lambda v: st.sampled_from((v, -v))
    ),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)


def monomials(coeff):
    return st.builds(lambda k, c: [0] * k + [c], st.integers(0, 6), coeff.filter(bool))


coeff_lists = st.one_of(
    st.lists(coefficients, max_size=24),
    st.lists(coefficients, min_size=1, max_size=1),
    monomials(coefficients),
)

# one or two nonzero terms, zeros below the first: the shifted-add operands;
# 1 and -1 (as in 1 - z^a and 1 + z) take their own branch
sparse_coefficients = st.one_of(st.sampled_from((1, -1)), coefficients.filter(bool))
sparse_lists = st.builds(
    lambda k, c, gap, d: [0] * k + [c] + ([0] * gap + [d] if gap >= 0 else []),
    st.integers(0, 6),
    sparse_coefficients,
    st.integers(-1, 8),
    sparse_coefficients,
)

nonmonic_divisors = st.builds(
    lambda body, lead: body + [lead],
    st.lists(coefficients, max_size=8),
    st.one_of(
        st.integers(min_value=2, max_value=2**70).flatmap(lambda v: st.sampled_from((v, -v))),
        st.fractions(max_denominator=30).filter(lambda x: x and abs(x) != 1),
    ),
)
divisor_lists = st.one_of(
    st.integers(1, 9).map(lambda a: values(one_minus_z(a))),
    nonmonic_divisors,
    coeff_lists.filter(lambda cs: any(cs)),
)

SETTINGS = settings(deadline=None, max_examples=150)

# (a, e) pairs of a multisection's factors (1 - z^a)^e
block_factors = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2)), max_size=2)


class TestAgainstReference:
    @given(coeff_lists, coeff_lists)
    @SETTINGS
    def test_mul(self, a, b):
        assert values(Poly(a) * Poly(b)) == ref_mul(a, b)

    @given(st.one_of(coeff_lists, sparse_lists), sparse_lists)
    @SETTINGS
    def test_mul_by_sparse_operand(self, a, b):
        assert values(Poly(a) * Poly(b)) == ref_mul(a, b)
        assert values(Poly(b) * Poly(a)) == ref_mul(b, a)

    def test_mul_at_digit_bound(self):
        # constant operands: the middle coefficients of the product reach
        # min(len) * max|a| * max|b|, the bound the packed digit must hold
        for v in (1, 11, 15, 16, 127, 128, 181, 255, 256, 46340, 2**16 - 1, 2**32 - 1, 2**256 + 1):
            for n in range(2, 6):
                for m in range(2, 6):
                    for sign in (1, -1):
                        a = [sign * v] * n
                        b = [v] * m
                        assert values(Poly(a) * Poly(b)) == ref_mul(a, b), (v, n, m, sign)

    @given(coeff_lists)
    @SETTINGS
    def test_square(self, a):
        p = Poly(a)
        assert values(p * p) == ref_mul(a, a)

    @given(coeff_lists, coefficients)
    @SETTINGS
    def test_scalar_mul(self, a, c):
        assert values(Poly(a) * c) == strip([x * c for x in a])

    @given(coeff_lists, coeff_lists, st.integers(1, 60), st.integers(1, 60))
    @SETTINGS
    def test_add(self, a, b, da, db):
        # each operand over its own denominator, so the sum is over their lcm
        a, b = [Fraction(c) / da for c in a], [Fraction(c) / db for c in b]
        assert values(Poly(a) + Poly(b)) == ref_add(a, b)
        assert values(Poly(b) + Poly(a)) == ref_add(b, a)

    @given(st.lists(coefficients, max_size=8), st.integers(0, 5))
    @SETTINGS
    def test_pow(self, a, n):
        assert values(Poly(a) ** n) == ref_pow(a, n)

    def test_negative_pow_rejected(self):
        for p in (ZERO, ONE, Poly([1, Fraction(1, 2)])):
            with pytest.raises(ValueError):
                p ** -1

    @given(
        coeff_lists,
        st.one_of(
            st.integers(1, 2**70),
            st.integers(-(2**70), -1),
            st.fractions(max_denominator=30).filter(bool),
        ),
    )
    @SETTINGS
    def test_monic(self, body, lead):
        # a positive, a negative or a Fraction leading coefficient
        a = body + [lead]
        assert values(Poly(a).monic()) == ref_monic(a)

    def test_monic_of_zero(self):
        # equal fields: no numerators, over 1
        assert ZERO.monic() == ZERO

    @given(coeff_lists, divisor_lists)
    @SETTINGS
    def test_divmod(self, a, b):
        q, r = divmod(Poly(a), Poly(b))
        assert (values(q), values(r)) == ref_divmod(a, b)

    @given(coeff_lists, divisor_lists)
    @SETTINGS
    def test_divexact(self, a, b):
        p, d = Poly(a), Poly(b)
        assert (p * d).divexact(d) == p
        if ref_divmod(a, b)[1]:
            with pytest.raises(ValueError):
                p.divexact(d)
        else:
            assert values(p.divexact(d)) == ref_divmod(a, b)[0]

    @given(coeff_lists, st.integers(1, 9))
    @SETTINGS
    def test_over_binomial(self, a, step):
        # the quotient by 1 - z^step is the stride-step prefix sum of the numerators
        p, d = Poly(a), one_minus_z(step)
        assert _binomial_passes((p * d).ints, (), (step,)) == list(p.ints)
        quot, rem = ref_divmod(a, values(d))
        q = _binomial_passes(p.ints, (), (step,))
        if rem:
            assert q is None
        else:
            assert [Fraction(c, p.denom) for c in q] == quot

    @given(coeff_lists)
    @SETTINGS
    def test_derivative(self, a):
        assert values(Poly(a).derivative()) == ref_derivative(a)

    @given(coeff_lists, block_factors, st.integers(1, 7), st.integers(0, 3))
    @SETTINGS
    def test_multisect(self, a, factors, n, wider):
        # phi_n of N times the blocks ((1 - z^(a k)) / (1 - z^a))^e, k = n/gcd(a, n),
        # on one packed integer at the width for max|N| prod k^e, against the
        # block passes on lists; the result's digits are ``wider`` bytes wider
        ints = Poly(a).ints
        if ints:
            width = _width(max(map(abs, ints)) * prod((n // gcd(b, n)) ** e for b, e in factors))
            x, size = _packed_multisect(ints, factors, n, width, width + wider)
            got = Poly._from_ints(_unpack(x, size, width + wider))
            assert got == ref_phi(FactoredRatFun(Poly._from_ints(list(ints)), factors), n).num

    def test_multisect_into_a_wider_digit(self):
        # one-byte blocks, negative digits at the edge of that byte, and a
        # result three bytes wide; with n = 6 only the last phi_p (p = 3)
        # writes the wider digits
        ints = [-30, 20, -25, 7]
        assert _packed_multisect(ints, [(1, 1)], 2, 1, 3) == (_pack([-30, -5, 7], 3), 3)
        ints, factors = [-127, 3, 0, -1, 2, 1, -5], [(1, 1), (2, 1)]
        width = _width(127 * 6 * 3)  # k = 6 for a = 1, k = 3 for a = 2
        x, size = _packed_multisect(ints, factors, 6, width, width + 3)
        want = ref_phi(FactoredRatFun(Poly(ints), factors), 6).num
        assert Poly._from_ints(_unpack(x, size, width + 3)) == want


class TestCanonicalForm:
    def test_equal_values_equal_fields(self):
        p = Poly([Fraction(2, 4), Fraction(3, 3)])
        q = Poly([Fraction(1, 2), 1])
        assert p == q
        assert hash(p) == hash(q)
        assert (p.ints, p.denom) == ((1, 2), 2)

    @given(coeff_lists)
    @SETTINGS
    def test_invariants(self, a):
        p = Poly(a)
        assert p.denom > 0
        assert not p.ints or p.ints[-1]
        assert gcd(p.denom, *p.ints) == 1
        assert [Fraction(c, p.denom) for c in p.ints] == strip(a)
        # the hash of the coefficient tuple, as when coefficients were Fractions
        assert hash(p) == hash(tuple(strip(a)))

    def test_never_equals_a_number(self):
        # equality with a number could not agree with the hash, which is the
        # hash of the coefficient tuple
        half = Fraction(1, 2)
        for p, c in ((Poly([3]), 3), (Poly([3]), Fraction(3)), (Poly([half]), half), (Poly(), 0)):
            assert p != c and c != p
            assert len({p, c}) == 2

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Poly([1, 0.5])
        with pytest.raises(TypeError):
            Poly([1, 2]) * 0.5

    def test_over_binomial_edges(self):
        assert _binomial_passes([], (), (3,)) == []
        # a nonzero polynomial of degree below a has no quotient
        assert _binomial_passes([1, 2], (), (3,)) is None
        assert _binomial_passes([0, 0, 5], (), (3,)) is None
        # a rational polynomial divides on its numerators, over its one denominator
        half = Poly([Fraction(1, 2), 0, Fraction(-1, 2)])
        assert (half.ints, half.denom) == ((1, 0, -1), 2)
        assert _binomial_passes(half.ints, (), (2,)) == [1]
        assert _binomial_passes(half.ints, (), (1,)) == [1, 1]

    def test_inexact_divexact_rejected(self):
        with pytest.raises(ValueError):
            (one_minus_z(3) + Poly([0, 1])).divexact(one_minus_z(2))


@st.composite
def signed_digits(draw):
    """A width in bytes and digits that fit it, from the edges of the signed range."""
    width = draw(st.integers(1, 5))
    half = 1 << (8 * width - 1)
    digit = st.one_of(
        st.sampled_from((0, 1, -1, half - 1, -(half - 1), -half)),
        st.integers(-half, half - 1),
    )
    return width, draw(st.lists(digit, max_size=20))


# the Kronecker product's operands: int lists with a nonzero coefficient each
int_coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.sampled_from(BYTE_EDGES + HALF_EDGES),
    st.integers(min_value=2**256, max_value=2**300).flatmap(lambda v: st.sampled_from((v, -v))),
)
int_lists = st.lists(int_coefficients, min_size=1, max_size=24).filter(any)


def recorded_products(call):
    """call()'s value and the (a, b, product, width) of each ``_kronecker_mul`` call it makes."""
    products, widths = [], []
    kronecker, unpack = algebra._kronecker_mul, algebra._unpack

    def unpacked(value, size, width):
        widths.append(width)
        return unpack(value, size, width)

    def recorded(a, b):
        product = kronecker(a, b)
        products.append((list(a), list(b), product, widths.pop()))
        return product

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_unpack", unpacked)
        mp.setattr(algebra, "_kronecker_mul", recorded)
        value = call()
    return value, products


def kronecker_width_margin(a, b, product, width):
    """Spare bits of a Kronecker product's digit width over its largest coefficient.

    The product must equal the oracles' convolution, and every coefficient
    must be at most the docstring's max|a| max|b| min(len) and below
    2^(8 width - 1).
    """
    assert product == convolve(a, b, len(a) + len(b) - 2), (a, b)
    largest = max(map(abs, product))
    assert largest <= max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)), (a, b)
    assert largest < 1 << 8 * width - 1, (a, b, width)
    return 8 * width - 1 - largest.bit_length()


class TestPackedDigits:
    """_pack and _unpack, the one Kronecker digit code of the kernel and the PFD."""

    @given(signed_digits())
    @SETTINGS
    def test_round_trip(self, case):
        width, digits = case
        assert _unpack(_pack(digits, width), len(digits), width) == digits

    @pytest.mark.parametrize(
        "digits", [[], [0], [5], [-5], [3, -1], [0, 0, -7], [4, 0, 0], [-1, 0, 0, 0], [0, 0, 0]]
    )
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_round_trip_edges(self, digits, width):
        # the zero list, one digit, a negative top digit and trailing zeros
        assert _unpack(_pack(digits, width), len(digits), width) == digits
        half = 1 << (8 * width - 1)
        edges = [((c > 0) - (c < 0)) * (half - 1) for c in digits]
        assert _unpack(_pack(edges, width), len(edges), width) == edges

    def test_pack_is_evaluation(self):
        # sums, products and shifts of packed values are those of the polynomials
        a, b, width = [3, -2, 0, 1], [-1, 4], 2
        base = 1 << 16
        assert _pack(a, width) == sum(c * base**k for k, c in enumerate(a))
        assert _unpack(_pack(a, width) * _pack(b, width), 5, width) == [-3, 14, -8, -1, 4]
        assert _unpack(_pack(b, width) << 32, 4, width) == [0, 0, -1, 4]

    @pytest.mark.parametrize("bound", [0, 1, 126, 127, 128, 255, 256, 2**15 - 1, 2**15, 2**40])
    def test_width_holds_the_bound(self, bound):
        width = _width(bound)
        assert bound < 1 << (8 * width - 1) and (width == 1 or bound >= 1 << (8 * width - 9))
        digits = [bound, -bound, 0, -bound]
        assert _unpack(_pack(digits, width), 4, width) == digits

    @given(int_lists, int_lists)
    @SETTINGS
    def test_kronecker_matches_convolution(self, a, b):
        # (a, a) packs once; each product is checked against the width it was read at
        for x, y in ((a, b), (a, a)):
            product, ((*_, width),) = recorded_products(lambda: algebra._kronecker_mul(x, y))
            kronecker_width_margin(x, y, product, width)

    def test_golden_check_products_fit_their_width(self, capsys):
        # record times f.den is the only full product per record
        rc, products = recorded_products(lambda: cli.main(["golden-check"]))
        assert rc == 0 and products
        for product in products:
            kronecker_width_margin(*product)
