"""Springer-type operator calculus for Poincare series.

Pipeline: decompose the weight-shifted generating function
prod_e (1 - t z^e)^(-beta_e) into partial fractions over t, reading the
coefficients at each pole t = z^(-i) off one binomial series in
u = 1 - t z^i (see ``partial_fractions``), then apply the diagonal
operator term by term. Each term A_{i,k}/(1 - t z^i)^k contributes,
depending on how the pole exponent i compares with the shift n = d*:

    i < n   ->  1/(k-1)! * (d/dz)^(k-1) [ z^(k-1) * phi_{n-i}(R) ]
    i = n   ->  R(0) / (1 - z)^k
    i > n   ->  R(0)

where R = prefactor * A_{i,k} and phi_n is power-series multisection
(keep every n-th coefficient). The prefactor is 1 + z for the
semi-invariant series and 1 - z^2 for the invariant one.

Everything stays in the factored-denominator representation: the
multisection of R(z)/prod(1 - z^a) is computed by multiplying the
numerator with geometric blocks (1 + z^a + ... + z^(a(n-1))), which turns
every denominator factor into a function of z^n, so the factor multiset
survives the multisection unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .algebra import (
    ONE,
    ZERO,
    FactoredRatFun,
    Poly,
    RatFun,
    one_minus_z,
    q_block,
    q_shifted_factorial,
)
from .counting import KINDS, as_degree_vector, build_factored_gf


@dataclass(frozen=True)
class PFD:
    """Partial fraction decomposition over t of the shifted generating function.

    terms holds (i, k, A) for every pole exponent i and every power
    k = 1..beta_i, ordered by (i, k); A is the coefficient of
    1/(1 - t z^i)^k, kept in factored form with an integer numerator.
    Zero coefficients are kept so the term list shape depends only on the
    exponent map.
    """

    d_star: int
    terms: tuple


def partial_fractions(exponents: dict) -> PFD:
    """Decompose prod_e (1 - t z^e)^(-beta_e) into sum A_{i,k}/(1 - t z^i)^k.

    At the pole t = z^(-i) put u = 1 - t z^i and, for every other exponent
    e, m = |e - i|. Each other factor is then a binomial series in u:

        e > i:  (1 - t z^e)^(-beta) = (1 - z^m)^(-beta) (1 + u z^m/(1 - z^m))^(-beta)
        e < i:  (1 - t z^e)^(-beta) = (-1)^beta z^(m beta) (1 - z^m)^(-beta)
                                      * (1 - u/(1 - z^m))^(-beta)

    and A_{i, beta_i - r} is the u^r coefficient of their product. With
    u = v L, L the product of the distinct (1 - z^m), each series becomes
    sum_j C(beta + j - 1, j) x_e^j v^j for the polynomial x_e = L/(1 - z^m)
    (e < i) or -z^m L/(1 - z^m) (e > i). So A_{i, beta_i - r} is the sign
    and z-power above times the integer polynomial [v^r] of the product,
    over prod_m (1 - z^m)^(B_m + r), B_m the sum of beta_e at distance m.
    Every k = 1..beta_i is emitted, zero coefficients included.
    """
    if not exponents:
        raise ValueError("empty exponent map")
    terms = []
    for i in sorted(exponents):
        top = exponents[i] - 1
        others = {e: beta for e, beta in exponents.items() if e != i}
        base: dict[int, int] = {}
        shift = flips = 0
        for e, beta in others.items():
            base[abs(e - i)] = base.get(abs(e - i), 0) + beta
            if e < i:
                shift, flips = shift + (i - e) * beta, flips + beta
        # series[r] is the v^r coefficient; a simple pole needs only r = 0,
        # so it builds neither L (`cover`) nor any x_e
        series = [ONE] + [ZERO] * top
        if top:
            cover = prod(map(one_minus_z, base), start=ONE)
            for e, beta in others.items():
                x = cover.divexact(one_minus_z(abs(e - i)))
                if e > i:
                    x = x * Poly.monomial(e - i, -1)
                binomial, power = [ONE], ONE
                for j in range(1, top + 1):
                    power = power * x
                    binomial.append(power * comb(beta + j - 1, j))
                # descending r, so series[r - j] is still the old coefficient;
                # zeros (all but r = 0 before the first factor) are skipped
                for r in range(top, 0, -1):
                    for j in range(1, r + 1):
                        if series[r - j]:
                            series[r] = series[r] + series[r - j] * binomial[j]
        lead = Poly.monomial(shift, (-1) ** flips)
        for r in range(top, -1, -1):
            factors = {m: b + r for m, b in base.items()}
            terms.append((i, top + 1 - r, FactoredRatFun(lead * series[r], factors)))
    return PFD(max(exponents) // 2, tuple(terms))


def phi_factored(f: FactoredRatFun, n: int) -> FactoredRatFun:
    """Multisection keeping every n-th coefficient, in factored form.

    Multiplying the numerator by the geometric block of each denominator
    factor rewrites f with a denominator in z^n; the multisection then
    acts on the numerator alone and the factor multiset carries over.
    """
    if n < 1:
        raise ValueError("multisection index must be >= 1")
    if n == 1:
        return f
    num = f.num
    block = q_block(n)
    for a, e in f.factors:
        num = num * block.compose_power(a) ** e
    return FactoredRatFun(num.multisect(n), f.factors)


def psi_term_factored(i: int, k: int, r_fun: FactoredRatFun, n: int) -> FactoredRatFun:
    """Diagonal of R(z)/(1 - t z^i)^k under t^j z^(j n) extraction.

    The three branches (i below, at, above the shift n) follow the
    double-series expansion: the t^j coefficient is
    C(j+k-1, k-1) z^(i j) R(z), so above the shift only j = 0 survives.
    """
    if k < 1:
        raise ValueError("pole power must be >= 1")
    if n < 1:
        raise ValueError("shift must be >= 1")
    if i < n:
        g = phi_factored(r_fun, n - i)
        if k > 1:
            g = g * Poly.monomial(k - 1)
            for _ in range(k - 1):
                g = g.derivative()
            g = g * Fraction(1, factorial(k - 1))
        return g
    # R(0) is num(0): every (1 - z^a) equals 1 at the origin
    if i == n:
        return FactoredRatFun(Poly([r_fun.num[0]]), {1: k})
    return FactoredRatFun(Poly([r_fun.num[0]]))


_PREFACTOR = {"semiinvariants": Poly([1, 1]), "invariants": Poly([1, 0, -1])}

# one entry per (degrees, kind): well above the few dozen that a CLI
# session or the default crosscheck sweep fills, yet bounded
_CACHE_SIZE = 256


@lru_cache(maxsize=_CACHE_SIZE)
def _poincare_cached(degrees: tuple, kind: str) -> RatFun:
    d = as_degree_vector(degrees)
    pfd = partial_fractions(build_factored_gf(d))
    prefactor = _PREFACTOR[kind]
    total = FactoredRatFun(ZERO)
    for i, k, a_ik in pfd.terms:
        total = total + psi_term_factored(i, k, a_ik * prefactor, d.d_star)
    return total.to_ratfun()


def poincare_series(d, kind: str) -> RatFun:
    """Exact Poincare series of the invariant or semi-invariant algebra of d.

    The semi-invariant algebra is isomorphic to the covariant algebra and
    to the kernel of the associated Weitzenboeck derivation, so this one
    function covers all three readings.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    return _poincare_cached(as_degree_vector(d).degrees, kind)


def single_form_series(d: int, kind: str) -> RatFun:
    """Poincare series for a single form of degree d by the q-factorial sum.

    Sum over 0 <= k < d/2 of
    phi_{d-2k}( (-1)^k z^(k(k+1)) * prefactor / ((z^2;z^2)_k (z^2;z^2)_{d-k}) )
    with prefactor 1 - z^2 for invariants and 1 + z for covariants. The
    bound is strict: k = d/2 would call the undefined phi_0.
    """
    if d < 1:
        raise ValueError("form degree must be >= 1")
    if kind not in ("invariants", "covariants"):
        raise ValueError("kind must be 'invariants' or 'covariants'")
    prefactor = _PREFACTOR["semiinvariants" if kind == "covariants" else kind]
    total = FactoredRatFun(ZERO)
    for k in range((d + 1) // 2):
        factors = q_shifted_factorial(2, 2, k)
        for a, e in q_shifted_factorial(2, 2, d - k).items():
            factors[a] = factors.get(a, 0) + e
        num = prefactor * Poly.monomial(k * (k + 1), (-1) ** k)
        total = total + phi_factored(FactoredRatFun(num, factors), d - 2 * k)
    return total.to_ratfun()
