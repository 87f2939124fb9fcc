"""Closed differential formulas for systems of equal-degree forms.

For n linear forms and for n quadratics the Poincare series collapses to
a single sum of higher derivatives of elementary rational functions;
these evaluate much faster than the general pipeline and cross-check it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .algebra import ZERO, FactoredRatFun, Poly, RatFun, pochhammer
from .counting import as_degree_vector, canonical_kind


def all_ones(n: int, kind: str) -> RatFun:
    """Series for n linear forms.

    Sum over k = 1..n of
    (-1)^(n-k) (n)_(n-k) / ((k-1)! (n-k)!) * (d/dz)^(k-1) of
    (1+z) z^(2n-k-1) / (1-z^2)^(2n-k)        for semi-invariants,
    (z / (1-z^2))^(2n-k-1)                   for invariants.

    Evaluated by Horner's rule in d/dz, acc = acc' + (k-th term) for
    k = n down to 1: n derivatives in all.
    """
    if n < 1:
        raise ValueError("need n >= 1 forms")
    kind = canonical_kind(kind)
    acc = FactoredRatFun(ZERO)
    for k in range(n, 0, -1):
        scale = Fraction(
            (-1) ** (n - k) * pochhammer(n, n - k),
            factorial(k - 1) * factorial(n - k),
        )
        power = 2 * n - k - 1
        if kind == "semiinvariants":
            term = FactoredRatFun(Poly([1, 1]) * Poly.monomial(power), {2: power + 1})
        else:
            term = FactoredRatFun(Poly.monomial(power), {2: power} if power else {})
        acc = acc.derivative() + term * scale
    return acc.to_ratfun()


def all_twos(n: int, kind: str) -> RatFun:
    """Series for n quadratic forms.

    Sum over k = 1..n of (-1)^(n-k)/((n-k)! (k-1)!) times the (k-1)-th
    derivative of

        sum over i = 0..n-k of C(n-k, i) (n)_i (n)_(n-k-i)
            * z^(2n-k-i-1) / ((1-z)^(n+i) (1-z^2)^(2n-k-i))

    with an extra (1-z) numerator factor for invariants. As in ``all_ones``,
    Horner's rule in d/dz takes n derivatives in all.
    """
    if n < 1:
        raise ValueError("need n >= 1 forms")
    kind = canonical_kind(kind)
    acc = FactoredRatFun(ZERO)
    for k in range(n, 0, -1):
        scale = Fraction((-1) ** (n - k), factorial(n - k) * factorial(k - 1))
        inner = FactoredRatFun(ZERO)
        for i in range(n - k + 1):
            c = comb(n - k, i) * pochhammer(n, i) * pochhammer(n, n - k - i)
            num = Poly.monomial(2 * n - k - i - 1, c)
            if kind == "invariants":
                num = num * Poly([1, -1])
            inner = inner + FactoredRatFun(num, {1: n + i, 2: 2 * n - k - i})
        acc = acc.derivative() + inner * scale
    return acc.to_ratfun()


def applicable(d) -> bool:
    d = as_degree_vector(d)
    return d.d_star in (1, 2) and d.degrees[-1] == d.d_star


def for_degree_vector(d, kind: str) -> RatFun:
    """Dispatch a degree vector to its closed form; reject mixed systems."""
    d = as_degree_vector(d)
    if not applicable(d):
        raise ValueError("closed forms cover all-ones and all-twos systems only")
    if d.d_star == 1:
        return all_ones(d.size, kind)
    return all_twos(d.size, kind)
