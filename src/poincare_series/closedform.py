"""Closed differential formulas for systems of equal-degree forms.

For n linear forms and for n quadratics the Poincare series collapses to
a single sum of higher derivatives of elementary rational functions;
these evaluate much faster than the general pipeline and cross-check it.
The weights of the sum are integers over one denominator (n - 1)!, and
every term lives on one cover, {2} for linear forms and {1, 2} for
quadratics, so Horner's rule in d/dz runs as integer-list work on that
cover (``algebra._cover_horner``): n - 1 steps, no ``Fraction``.
"""

from __future__ import annotations

from math import comb, factorial
from operator import add

from .algebra import RatFun, _add_scaled, _binomial_passes, _cover_horner, _reduce, pochhammer
from .counting import as_degree_vector, canonical_kind


def _horner_sum(base: dict, terms) -> RatFun:
    """sum over s of (d/dz)^(n-1-s) of w_s N_s / (D_0 L^s), divided by (n - 1)!.

    terms holds the (w_s, N_s) for s = 0..n-1 on the cover of base; see
    ``algebra._cover_horner``.
    """
    steps = len(terms) - 1
    p = _cover_horner(base, terms)
    factors = {a: b + steps for a, b in base.items() if b + steps}
    return _reduce(p, factorial(steps), factors)


def all_ones(n: int, kind: str) -> RatFun:
    """Series for n linear forms.

    Sum over k = 1..n of
    (-1)^(n-k) (n)_(n-k) / ((k-1)! (n-k)!) * (d/dz)^(k-1) of
    (1+z) z^(2n-k-1) / (1-z^2)^(2n-k)        for semi-invariants,
    (z / (1-z^2))^(2n-k-1)                   for invariants.

    The weight is (-1)^(n-k) (n)_(n-k) C(n-1, k-1) / (n-1)!, and the k-th
    term is over D_0 L^(n-k) with L = 1 - z^2 and D_0 = L^n, or L^(n-1)
    for invariants. Horner's rule in d/dz, acc = acc' + (k-th term) for
    k = n down to 1, takes n - 1 steps on that cover.
    """
    if n < 1:
        raise ValueError("need n >= 1 forms")
    semi = canonical_kind(kind) == "semiinvariants"
    tail = [1, 1] if semi else [1]
    terms = [
        ((-1) ** (n - k) * pochhammer(n, n - k) * comb(n - 1, k - 1), [0] * (2 * n - k - 1) + tail)
        for k in range(n, 0, -1)
    ]
    return _horner_sum({2: n if semi else n - 1}, terms)


def all_twos(n: int, kind: str) -> RatFun:
    """Series for n quadratic forms.

    Sum over k = 1..n of (-1)^(n-k)/((n-k)! (k-1)!) times the (k-1)-th
    derivative of

        sum over i = 0..n-k of C(n-k, i) (n)_i (n)_(n-k-i)
            * z^(2n-k-i-1) / ((1-z)^(n+i) (1-z^2)^(2n-k-i))

    with an extra (1-z) numerator factor for invariants. The weight is
    (-1)^(n-k) C(n-1, k-1) / (n-1)!. With u = n - k the inner sum is
    z^(n-1) (1-z)^u sum_i C(u, i) (n)_i (n)_(u-i) z^(u-i) (1+z)^i over
    D_0 L^u, L = (1-z)(1-z^2) and D_0 = (1-z)^n (1-z^2)^n; the invariants'
    (1-z) lowers D_0 to (1-z)^(n-1) instead. As in ``all_ones``, Horner's
    rule in d/dz takes n - 1 steps.
    """
    if n < 1:
        raise ValueError("need n >= 1 forms")
    semi = canonical_kind(kind) == "semiinvariants"
    terms = []
    for k in range(n, 0, -1):
        u = n - k
        inner, row = [0] * (u + 1), [1]
        for i in range(u + 1):
            _add_scaled(inner, u - i, comb(u, i) * pochhammer(n, i) * pochhammer(n, u - i), row)
            # (1 + z)^(i + 1)
            row = list(map(add, row + [0], [0] + row))
        num = [0] * (n - 1) + _binomial_passes(inner, [1] * u, ())
        terms.append(((-1) ** u * comb(n - 1, k - 1), num))
    return _horner_sum({1: n if semi else n - 1, 2: n}, terms)


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
