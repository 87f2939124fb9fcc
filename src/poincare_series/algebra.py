"""Exact univariate arithmetic over the rationals.

A polynomial in one variable z is stored as integer numerators over one
positive integer denominator, so that products and divisions run on
Python ints. A product with an operand of one or two nonzero terms, such
as 1 - z^a, 1 + z or c z^k, is the other operand's numerators scaled and
shifted once per term and added, O(degree); packing would cost more than
that product. Any other product packs both numerator lists into single
big integers (Kronecker substitution) and lets the interpreter's
big-integer multiply do the convolution. A quotient by 1 - z^a is the
stride-a prefix sum of the numerators (``_binomial_passes``). Chains of
derivatives over one cover of (1 - z^a) factors run on the numerator
lists as well (``_cover_horner``): the pole sums of ``springer``, the
closed forms of ``closedform`` and ``FactoredRatFun.derivative``. On top
of that sit reduced rational functions, plus a factored representation
that keeps the denominator as a multiset of (1 - z^a) factors so that
multisection and cancellation can work factor by factor without ever
expanding a large product.

Results are reduced in the cyclotomic basis: prod (1 - z^a)^e is
prod_n Psi_n^(c_n) with c_n = sum of e over the a divisible by n, where
Psi_n = prod over d | n of (1 - z^d)^mu(n/d) is Phi_n up to sign. The Phi_n
are irreducible and pairwise coprime, so ``to_ratfun`` cancels each by
exact binomial passes and computes no gcd; the reduced denominator is
the kept cover prod (1 - z^a)^e divided by the Psi_n that cancelled.
Long division and ``poly_gcd`` (Euclid over Q, inside the ``RatFun``
constructor) remain the general route and the tests' reference.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm, prod
from operator import add, index, mul, sub


def _coeff(value) -> Fraction:
    # exact input only; a float here is always a caller bug
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational coefficient, got {type(value).__name__}")


def _bias(count: int, width: int) -> int:
    """2^(8*width - 1) in each of ``count`` digits of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _width(bound: int) -> int:
    """Bytes per packed digit: room for any signed coefficient of absolute value <= bound."""
    return (bound.bit_length() + 8) // 8


def _pack(ints, width: int) -> int:
    """The polynomial ints at z = 2^(8*width), when every |ints[i]| < 2^(8*width - 1)."""
    half = 1 << (8 * width - 1)
    digits = b"".join([(c + half).to_bytes(width, "little") for c in ints])
    return int.from_bytes(digits, "little") - _bias(len(ints), width)


def _unpack(value: int, size: int, width: int) -> list:
    """The ``size`` signed digits of ``value``, the inverse of ``_pack``.

    Adding half to every digit makes each one nonnegative, so no borrow
    crosses a digit boundary and one ``to_bytes`` splits them all.
    """
    half = 1 << (8 * width - 1)
    buf = (value + _bias(size, width)).to_bytes(size * width, "little")
    return [int.from_bytes(buf[i : i + width], "little") - half for i in range(0, size * width, width)]


def _kronecker_mul(a, b) -> list:
    """Convolution of two int sequences with a nonzero term each, by Kronecker substitution.

    Each sequence becomes one integer with a digit of ``width`` bytes per
    coefficient, the two integers are multiplied once, and the product's
    digits are read back. The width leaves room for the largest possible
    product coefficient and its sign.
    """
    width = _width(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
    x = _pack(a, width)
    y = x if b is a else _pack(b, width)
    return _unpack(x * y, len(a) + len(b) - 1, width)


def _add_scaled(out: list, shift: int, c: int, ints) -> None:
    """out += c z^shift ints in place, extending out as needed."""
    end = shift + len(ints)
    out += [0] * (end - len(out))
    window = out[shift:end]
    if c == 1:
        out[shift:end] = map(add, window, ints)
    else:
        out[shift:end] = map(add, window, map(mul, ints, repeat(c)))


def _int_mul(a, b) -> list:
    """Product of two int sequences with a nonzero term each: shifted adds or Kronecker."""
    if len(b) - b.count(0) > 2:
        a, b = b, a
    if len(b) - b.count(0) > 2:
        return _kronecker_mul(a, b)
    out = []
    for k, c in enumerate(b):
        if c:
            _add_scaled(out, k, c, a)
    return out


def _times_binomial(ints: list, a: int) -> None:
    """Multiply the numerator list ints by 1 - z^a in place."""
    ints += [0] * a
    # the right side is built in full before the slice is assigned
    ints[a:] = map(sub, ints[a:], ints)


def _prefix_sums(ints: list, a: int) -> None:
    """Replace ints by its stride-a prefix sums in place: the series of ints / (1 - z^a).

    One pass per residue class mod a, or one per block of a terms, whichever
    makes fewer passes.
    """
    if a * a < len(ints):
        for r in range(a):
            ints[r::a] = accumulate(ints[r::a])
    else:
        for k in range(a, len(ints), a):
            ints[k : k + a] = map(add, ints[k : k + a], ints[k - a : k])


def _binomial_passes(ints, times, over) -> "list | None":
    """ints * prod (1 - z^a) over ``times`` / prod (1 - z^a) over ``over``, or None if inexact.

    The products come first, so every quotient, a stride-a prefix sum whose
    last a sums must vanish, is exact iff the whole quotient is a polynomial.
    """
    out = list(ints)
    for a in times:
        _times_binomial(out, a)
    for a in over:
        _prefix_sums(out, a)
        if any(out[-a:]):
            return None
        del out[-a:]
    return out


def _series_ints(num, den, n: int) -> list:
    """Coefficients 0..n of num / den on int lists with den[0] == 1: w_m = N_m - sum_j D_j w_(m-j).

    With D_0 = 1 no step divides.
    """
    # D_j for j = k..1 pairs with w_(m-k..m-1); k zeros stand for w_(<0)
    k = len(den) - 1
    weights, w = den[:0:-1], [0] * k
    for m in range(n + 1):
        w.append((num[m] if m < len(num) else 0) - sum(map(mul, weights, w[m:])))
    return w[k:]


def _factor_text(factors) -> str:
    """(1-z^a)^e for each (a, e), space-separated; (1-z) for a = 1, no exponent for e = 1."""
    parts = []
    for a, e in factors:
        base = f"(1-z^{a})" if a > 1 else "(1-z)"
        parts.append(f"{base}^{e}" if e > 1 else base)
    return " ".join(parts)


def _cover_horner(base: dict, terms, consts=None) -> list:
    """Numerator of a Horner sum of derivatives on one growing cover, on integer lists.

    base maps each a of the cover to B_a >= 0, D_0 = prod (1 - z^a)^(B_a) and
    L is the product of the distinct (1 - z^a). With terms = [(w_0, N_0), ...],
    acc = w_0 N_0 / D_0 and then acc = D_s acc + w_s N_s / (D_0 L^s) for s >= 1,
    where D_s is d/dz, or theta + consts[s - 1] when consts is given; the
    result is P with acc = P / (D_0 L^(len(terms) - 1)). As d/dz of
    P / (D_0 L^j) is (P' L + P (U + j V)) / (D_0 L^(j + 1)), with
    x_a = L / (1 - z^a), U = sum B_a a z^(a-1) x_a and V = sum a z^(a-1) x_a,
    a theta step sets P = (c P + z P') L + z P (U + j V) + w_s N_s. Neither L
    nor U + j V is formed: one pass over the cover takes
    acc = acc (1 - z^a) + (B_a + j) a z^(a-1) full and full = full (1 - z^a),
    from acc = c P + z P' (or P') and full = z P (or P): 2 #cover - 1
    binomial passes and #cover scaled adds per step.
    """
    (w, p), *rest = terms
    p = [w * x for x in p]
    cover = sorted(base)
    for j, (w, num) in enumerate(rest):
        if consts is None:
            # p is not read again, so full may take it over
            acc, full = list(map(mul, range(1, len(p)), p[1:])), p
        else:
            c = consts[j]
            acc, full = list(map(mul, range(c, c + len(p)), p)), [0] + p
        for left, a in enumerate(cover, 1 - len(cover)):
            _times_binomial(acc, a)
            _add_scaled(acc, a - 1, (base[a] + j) * a, full)
            if left:
                _times_binomial(full, a)
        if w and num:
            _add_scaled(acc, 0, w, num)
        p = acc
    return p


class Poly:
    """Polynomial with rational coefficients, ascending exponents.

    Stored as ``ints``, a tuple of int numerators, over ``denom``, one
    positive int denominator: coefficient i is ints[i] / denom. The form
    is canonical, so equal polynomials have equal fields: the last
    numerator is nonzero, and the numerators' common divisor is coprime
    to ``denom``. The zero polynomial is ``()`` over 1, and ``degree`` is
    ``len(ints) - 1``.
    """

    __slots__ = ("ints", "denom")

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _coeff(c) for c in coeffs]
        denom = lcm(*[c.denominator for c in cs])
        self._set([c.numerator * (denom // c.denominator) for c in cs], denom)

    def _set(self, ints: list, denom: int) -> None:
        while ints and not ints[-1]:
            ints.pop()
        if not ints:
            denom = 1
        elif denom != 1:
            g = gcd(denom, *ints)
            if g != 1:
                ints = [c // g for c in ints]
                denom //= g
        self.ints = tuple(ints)
        self.denom = denom

    @classmethod
    def _from_ints(cls, ints: list, denom: int = 1) -> "Poly":
        """Canonical Poly of ints / denom, for any list of ints and positive denom."""
        p = cls.__new__(cls)
        p._set(ints, denom)
        return p

    @property
    def coeffs(self) -> tuple:
        """The exact coefficients: ints when the denominator is 1, Fractions otherwise."""
        if self.denom == 1:
            return self.ints
        return tuple([Fraction(c, self.denom) for c in self.ints])

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ints == other.ints and self.denom == other.denom

    def __hash__(self):
        # equal int and Fraction values hash alike, so a Poly hashes like
        # the tuple of its Fraction coefficients
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({[Fraction(c, self.denom) for c in self.ints]!r})"

    def __getitem__(self, exponent: int) -> Fraction:
        if 0 <= exponent < len(self.ints):
            return Fraction(self.ints[exponent], self.denom)
        return Fraction(0)

    def __neg__(self):
        return Poly._from_ints([-c for c in self.ints], self.denom)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b, denom = self.ints, other.ints, self.denom
        if other.denom != denom:
            denom = lcm(denom, other.denom)
            a = [c * (denom // self.denom) for c in a]
            b = [c * (denom // other.denom) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._from_ints(out, denom)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly([-_coeff(other)]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return Poly._from_ints(
                [n * a for a in self.ints] if n else [], self.denom * other.denominator
            )
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.ints or not other.ints:
            return ZERO
        return Poly._from_ints(_int_mul(self.ints, other.ints), self.denom * other.denom)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        """Quotient and remainder over Q, by long division on the numerators.

        The divisor's numerators are made primitive first, so that an exact
        division (the quotient then has integer numerators by Gauss's
        lemma) never leaves the integers. Otherwise, when a step's leading
        numerator is not a multiple of the divisor's, the open part of the
        remainder and the quotient so far are scaled by the missing factor,
        which the final denominators then carry. Each step touches only the
        divisor's nonzero terms. No route divides this way.
        """
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        dd, dv = self.degree, other.degree
        if dd < dv:
            return ZERO, self
        content = gcd(*other.ints)
        divisor = [c // content for c in other.ints]
        lead = divisor[-1]
        terms = [(j, c) for j, c in enumerate(divisor[:-1]) if c]
        rem = list(self.ints)
        quot = [0] * (dd - dv + 1)
        scale = 1
        for k in range(dd - dv, -1, -1):
            top = rem[k + dv]
            if not top:
                continue
            q, r = divmod(top, lead)
            if r:
                m = abs(lead) // gcd(top, lead)
                rem[: k + dv] = [c * m for c in rem[: k + dv]]
                quot[k + 1 :] = [c * m for c in quot[k + 1 :]]
                scale *= m
                q = top * m // lead
            quot[k] = q
            for j, c in terms:
                rem[k + j] -= q * c
        return (
            Poly._from_ints([c * other.denom for c in quot], scale * content * self.denom),
            Poly._from_ints(rem[:dv], scale * self.denom),
        )

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divexact(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def derivative(self) -> "Poly":
        return Poly._from_ints([i * c for i, c in enumerate(self.ints)][1:], self.denom)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.ints[-1]
        if lead == self.denom:
            return self
        if lead < 0:
            return Poly._from_ints([-c for c in self.ints], -lead)
        return Poly._from_ints(list(self.ints), lead)

    def to_string(self, var: str = "z") -> str:
        """Human-readable form, ascending exponents: 1 + 4z + 2z^3."""
        if not self.ints:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                body = str(c)
            else:
                mag = abs(c)
                coeff = "" if mag == 1 else str(mag)
                body = f"{coeff}{var}" if i == 1 else f"{coeff}{var}^{i}"
                if c < 0:
                    body = "-" + body
            parts.append(body)
        text = parts[0]
        for part in parts[1:]:
            text += " - " + part[1:] if part.startswith("-") else " + " + part
        return text


ZERO = Poly()
ONE = Poly([1])


def one_minus_z(a: int) -> Poly:
    """The factor 1 - z^a."""
    if a < 1:
        raise ValueError("factor exponent must be >= 1")
    return Poly._from_ints([1] + [0] * (a - 1) + [-1])


def _times_binomials(num: Poly, factors) -> Poly:
    """num * prod over (a, e) of (1 - z^a)^e, one shifted pass per unit of e."""
    out = _binomial_passes(num.ints, [a for a, e in factors for _ in range(e)], ())
    return Poly._from_ints(out, num.denom) if len(out) > len(num.ints) else num


def pochhammer(n: int, m: int) -> int:
    """Rising factorial n (n+1) ... (n+m-1); empty product for m = 0."""
    if m < 0:
        raise ValueError("negative length")
    return prod(range(n, n + m))


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def _moebius_binomials(n: int):
    """The d | n with mu(n/d) = +1, then those with mu(n/d) = -1.

    Moebius inversion of 1 - z^n = prod over d | n of Psi_d gives
    Psi_n = prod (1 - z^d)^mu(n/d): Phi_n for n > 1, and 1 - z = -Phi_1.
    """
    split, m, p = [(n, 1)], n, 2
    while m > 1:
        if m % p == 0:
            split += [(d // p, -s) for d, s in split]
            while m % p == 0:
                m //= p
        p += 1
    return [d for d, s in split if s > 0], [d for d, s in split if s < 0]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic GCD by Euclid's algorithm; remainders are made monic each step.

    The general route, used by the ``RatFun`` constructor and as the
    tests' reference; ``FactoredRatFun.to_ratfun`` reduces without it.
    """
    while not q.is_zero():
        p, q = q, (p % q).monic()
    return p.monic()


def cross_equal(num1: Poly, den1: Poly, num2: Poly, den2: Poly) -> bool:
    """Equality oracle on unreduced fractions: num1*den2 == num2*den1."""
    return num1 * den2 == num2 * den1


class RatFun:
    """Reduced rational function num/den, den monic and gcd(num, den) = 1.

    The result value every route returns. The constructor always
    canonicalizes by Euclid's gcd (``poly_gcd``), so structural equality of
    two RatFun instances is value equality. The routes' results come from
    ``FactoredRatFun.to_ratfun``, which reaches the same canonical form by
    exact cyclotomic division and hands it to ``_from_reduced``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE):
        if den.is_zero():
            raise ZeroDivisionError("division by zero")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num.divexact(g), den.divexact(g)
        lead = den[den.degree]
        if lead != 1:
            num, den = num * (1 / lead), den.monic()
        self.num, self.den = num, den

    @classmethod
    def _from_reduced(cls, num: Poly, den: Poly) -> "RatFun":
        """RatFun of num/den as given: den monic and coprime to num, or num zero and den one."""
        f = cls.__new__(cls)
        f.num, f.den = num, den
        return f

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFun({self.num.to_string()!r}, {self.den.to_string()!r})"

    def expand(self, n: int) -> list:
        """Power series coefficients at z = 0 through z^n inclusive, as Fractions.

        On the numerators N of num and D of den, with d0 = D_0, ``_series_ints``
        of N_m d0^m over D_j d0^(j-1) (constant term 1) gives integers w_m, and
        coefficient m is den.denom w_m / (num.denom d0^(m+1)); routes give d0 = +-1.
        """
        if n < 0:
            raise ValueError("negative truncation order")
        nums, dens = self.num.ints, self.den.ints
        d0 = dens[0]
        if not d0:
            raise ValueError("not a power series at the origin")
        # d0^0 .. d0^(n+1); the N_m and D_j that zip drops reach no coefficient up to z^n
        powers = list(accumulate(repeat(d0, n + 1), mul, initial=1))
        w = _series_ints(list(map(mul, nums, powers)), [1, *map(mul, dens[1:], powers)], n)
        return [Fraction(self.den.denom * x, self.num.denom * p) for x, p in zip(w, powers[1:])]


class FactoredRatFun:
    """Rational function num / prod over (a, e) of (1 - z^a)^e.

    Any rational factor lives in the numerator's ``denom``. The factor
    multiset is never expanded implicitly; sums, derivatives and factor
    cancellation all act on the (a, e) pairs directly. Convert with
    ``to_ratfun`` when a canonical reduced form is wanted.
    """

    __slots__ = ("num", "factors")

    def __init__(self, num, factors=()):
        if not isinstance(num, Poly):
            num = Poly([num])
        merged: dict[int, int] = {}
        items = factors.items() if isinstance(factors, dict) else factors
        for a, e in items:
            a, e = index(a), index(e)
            if a < 1 or e < 1:
                raise ValueError("factor exponents and multiplicities must be >= 1")
            merged[a] = merged.get(a, 0) + e
        self.num = num
        self.factors = tuple(sorted(merged.items()))

    def __repr__(self):
        return f"FactoredRatFun(({self.num.to_string()}) / {_factor_text(self.factors) or '1'})"

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        if not isinstance(other, FactoredRatFun):
            return NotImplemented
        mine, theirs = dict(self.factors), dict(other.factors)
        common = {a: max(mine.get(a, 0), theirs.get(a, 0)) for a in {*mine, *theirs}}
        n1 = _times_binomials(self.num, [(a, e - mine.get(a, 0)) for a, e in common.items()])
        n2 = _times_binomials(other.num, [(a, e - theirs.get(a, 0)) for a, e in common.items()])
        return FactoredRatFun(n1 + n2, common)

    def derivative(self) -> "FactoredRatFun":
        """d/dz without leaving the factored representation: one ``_cover_horner`` step.

        Every factor's multiplicity rises by one. No route calls this: pole
        sums and closed forms run their derivative chains on ``_cover_horner``.
        """
        p = _cover_horner(dict(self.factors), [(1, self.num.ints), (0, [])])
        return FactoredRatFun(Poly._from_ints(p, self.num.denom), {a: e + 1 for a, e in self.factors})

    def reduced(self) -> "FactoredRatFun":
        """Cancel every (1 - z^a) factor that divides the numerator exactly."""
        num, remaining = self.num.ints, {}
        for a, e in sorted(self.factors, reverse=True):
            while e and (q := _binomial_passes(num, (), (a,))) is not None:
                num, e = q, e - 1
            if e:
                remaining[a] = e
        return FactoredRatFun(Poly._from_ints(list(num), self.num.denom), remaining)

    def to_ratfun(self) -> RatFun:
        """The reduced RatFun of this value, by exact division by cyclotomic polynomials.

        prod (1 - z^a)^e = prod_n Psi_n^(c_n), where c_n sums e over the a
        that n divides and Psi_n = +-Phi_n (``_moebius_binomials``). The
        Phi_n are irreducible over Q and pairwise coprime, so dividing num
        by each Psi_n while the division is exact, at most c_n times, leaves
        it coprime to the rest of the denominator; no gcd is computed. A
        quotient by Psi_n multiplies by its binomials with mu = -1 and then
        divides by those with mu = +1, and is exact iff every pass is. Whole
        (1 - z^a) factors are cancelled first (``reduced``): one pass each.
        The denominator is that kept cover over the Psi_n the numerator
        lost, in one call of binomial passes: each cancelled Psi_n adds its
        mu = -1 binomials to the products and its mu = +1 ones to the
        quotients, so nothing that did not cancel is divided out.
        """
        slim = self.reduced()
        counts: dict[int, int] = {}
        for a, e in slim.factors:
            for n in _divisors(a):
                counts[n] = counts.get(n, 0) + e
        num, times, over = slim.num.ints, [a for a, e in slim.factors for _ in range(e)], []
        for n, c in counts.items():
            plus, minus = _moebius_binomials(n)
            while c and (q := _binomial_passes(num, minus, plus)) is not None:
                num, c = q, c - 1
                times += minus
                over += plus
        den = _binomial_passes([1], times, over)
        if den is None:
            raise ArithmeticError("the cancelled Psi_n do not divide the denominator")
        # the leftover prod Psi_n^(c_n) is monic up to sign
        sign = den[-1]
        return RatFun._from_reduced(
            Poly._from_ints([sign * c for c in num], slim.num.denom),
            Poly._from_ints([sign * c for c in den]),
        )
