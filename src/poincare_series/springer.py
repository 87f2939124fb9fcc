"""Springer-type operator calculus for Poincare series.

Pipeline: decompose the weight-shifted generating function
prod_e (1 - t z^e)^(-beta_e) into partial fractions over t, then apply
the diagonal operator term by term. Each term A_{i,k}/(1 - t z^i)^k
contributes, depending on how the pole exponent i compares with the
shift n = d*:

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
from math import factorial

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
    1/(1 - t z^i)^k, kept in factored form. Zero coefficients are kept so
    the term list shape depends only on the exponent map.
    """

    d_star: int
    terms: tuple


def _initial_product(exponents: dict, skip: int) -> dict:
    """The factored function prod_{e != skip} (1 - t z^e)^(-beta_e).

    Represented as {key: (coefficient, z_power)} where key is the sorted
    tuple of (e, multiplicity) pairs. Differentiation in t keeps this
    class closed, which is what makes the pole evaluation exact.
    """
    key = tuple(sorted((e, mlt) for e, mlt in exponents.items() if e != skip))
    return {key: (1, 0)}


def _t_derivative(dfp: dict) -> dict:
    # d/dt (1 - t z^e)^(-m) = m z^e (1 - t z^e)^(-m-1)
    out: dict = {}
    for key, (c, p) in dfp.items():
        for idx, (e, mlt) in enumerate(key):
            new_key = key[:idx] + ((e, mlt + 1),) + key[idx + 1 :]
            coeff = c * mlt
            zp = p + e
            prev = out.get(new_key)
            if prev is None:
                out[new_key] = (coeff, zp)
            else:
                # the z-power is a function of the key alone
                if prev[1] != zp:
                    raise RuntimeError("inconsistent z-power in partial fraction derivative")
                out[new_key] = (prev[0] + coeff, zp)
    return out


def _evaluate_at_pole(dfp: dict, i: int, order: int) -> FactoredRatFun:
    """(-1)^order/(order! z^(i*order)) * (d/dt)^order [product] at t = z^(-i).

    Each surviving factor (1 - t z^e)^(-m) becomes (1 - z^(e-i))^(-m);
    for e < i that is rewritten as (-1)^m z^(m(i-e)) (1 - z^(i-e))^(-m) so
    only positive factor exponents remain. Individual terms may carry
    negative powers of z, but the sum never does; a leftover negative
    power means the decomposition went wrong and is raised.
    """
    pieces = []
    common: dict[int, int] = {}
    for key, (c, p) in dfp.items():
        sign = 1
        zexp = p - i * order
        fac: dict[int, int] = {}
        for e, mlt in key:
            if e == i:
                raise RuntimeError("residual pole in partial fraction evaluation")
            if e > i:
                fac[e - i] = fac.get(e - i, 0) + mlt
            else:
                if mlt % 2:
                    sign = -sign
                zexp += mlt * (i - e)
                fac[i - e] = fac.get(i - e, 0) + mlt
        pieces.append((sign * c, zexp, fac))
        for a, mlt in fac.items():
            common[a] = max(common.get(a, 0), mlt)
    # integer numerator; the (-1)^order/order! prefactor goes into the scale
    laurent: dict[int, int] = {}
    for coeff, zexp, fac in pieces:
        fill = ONE
        for a, mlt in common.items():
            gap = mlt - fac.get(a, 0)
            if gap:
                fill = fill * one_minus_z(a) ** gap
        # a product of (1 - z^a) factors: denominator 1
        for off, cf in enumerate(fill.ints):
            if cf:
                laurent[zexp + off] = laurent.get(zexp + off, 0) + coeff * cf
    if any(e < 0 and c for e, c in laurent.items()):
        raise RuntimeError("partial fraction coefficient has a pole at z = 0")
    top = max((e for e, c in laurent.items() if c), default=-1)
    num = Poly([laurent.get(e, 0) for e in range(top + 1)])
    return FactoredRatFun(num, common, Fraction((-1) ** order, factorial(order)))


def partial_fractions(exponents: dict) -> PFD:
    """Decompose prod_e (1 - t z^e)^(-beta_e) into sum A_{i,k}/(1 - t z^i)^k.

    A_{i,k} is read off at the pole t = z^(-i) from the (beta_i - k)-th
    t-derivative of the product with the i-factor removed. All powers
    k = 1..beta_i are emitted, including zero coefficients.
    """
    if not exponents:
        raise ValueError("empty exponent map")
    terms = []
    for i in sorted(exponents):
        multiplicity = exponents[i]
        dfp = _initial_product(exponents, i)
        for r in range(multiplicity):
            if r:
                dfp = _t_derivative(dfp)
            terms.append((i, multiplicity - r, _evaluate_at_pole(dfp, i, r)))
    terms.sort(key=lambda t: (t[0], t[1]))
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
    return FactoredRatFun(num.multisect(n), f.factors, f.scale)


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
    if i == n:
        return FactoredRatFun(Poly([r_fun.value_at_zero()]), {1: k})
    return FactoredRatFun(Poly([r_fun.value_at_zero()]))


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
