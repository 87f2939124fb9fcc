"""Independent reference implementations used only by the tests.

Everything here avoids the library's own fast paths: series come from
plain convolution or a Fraction recurrence, weight counts from
brute-force enumeration or a list dynamic program, partial fractions
from products of binomial series on ``Poly`` objects, operator values
from truncated double series. Slow but obviously correct.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, gcd, prod

from poincare_series.algebra import (
    ONE,
    ZERO,
    FactoredRatFun,
    Poly,
    RatFun,
    _binomial_passes,
    _moebius_binomials,
    one_minus_z,
    pochhammer,
)
from poincare_series.counting import as_degree_vector, canonical_kind


def enumerate_omega(degrees, m, i):
    """Count degree-m monomials of weight i by direct enumeration."""
    weights = as_degree_vector(degrees).weights()
    count = 0
    for combo in combinations_with_replacement(weights, m):
        if sum(combo) == i:
            count += 1
    return count


def ref_omega_table(degrees, m):
    """Counts of degree-k monomials for every k = 0..m and every reachable weight.

    Returns (offset, rows) with rows[k][w + offset] the number of
    monomials of degree k and total weight w. Classic unbounded-knapsack
    dynamic program on lists: each variable adds (degree 1, its weight)
    any number of times.
    """
    d = as_degree_vector(degrees)
    span = m * d.d_star
    width = 2 * span + 1
    table = [[0] * width for _ in range(m + 1)]
    table[0][span] = 1
    for w in d.weights():
        for deg in range(1, m + 1):
            prev = table[deg - 1]
            cur = table[deg]
            for idx in range(max(0, w), min(width, width + w)):
                c = prev[idx - w]
                if c:
                    cur[idx] += c
    return span, table


def ref_count(span, row, i):
    """Entry of weight i in a row of ``ref_omega_table``; 0 outside the row."""
    idx = i + span
    return row[idx] if 0 <= idx < len(row) else 0


def ref_expand(f, n):
    """Series coefficients of a RatFun through z^n by the Fraction recurrence."""
    d0 = f.den[0]
    dcs = f.den.coeffs
    out = []
    for m in range(n + 1):
        acc = f.num[m]
        for j in range(1, min(m, len(dcs) - 1) + 1):
            acc -= dcs[j] * out[m - j]
        out.append(acc / d0)
    return out


def ref_partial_fractions(exponents):
    """The terms (i, k, A_{i,k}) of prod_e (1 - t z^e)^(-beta_e) by binomial series products.

    At the pole t = z^(-i), with u = 1 - t z^i = v L and L the product of
    the distinct (1 - z^m) over the distances m = |e - i|, every other
    factor is the series sum_j C(beta + j - 1, j) x_e^j v^j, with
    x_e = L/(1 - z^m) below the pole and -z^m L/(1 - z^m) above it.
    A_{i, beta_i - r} is (-1)^(sum of beta below) z^(sum of m beta below)
    times [v^r] of the product, over prod_m (1 - z^m)^(B_m + r).
    """
    terms = []
    for i in sorted(exponents):
        top = exponents[i] - 1
        others = {e: beta for e, beta in exponents.items() if e != i}
        base = {}
        shift = flips = 0
        for e, beta in others.items():
            base[abs(e - i)] = base.get(abs(e - i), 0) + beta
            if e < i:
                shift, flips = shift + (i - e) * beta, flips + beta
        series = [ONE] + [ZERO] * top
        if top:
            cover = prod(map(one_minus_z, base), start=ONE)
            for e, beta in others.items():
                m = abs(e - i)
                # long division, so this oracle shares no kernel with the prefix sums
                x = cover.divexact(one_minus_z(m))
                if e > i:
                    x = x * Poly([0] * m + [-1])
                binomial, power = [ONE], ONE
                for j in range(1, top + 1):
                    power = power * x
                    binomial.append(power * comb(beta + j - 1, j))
                # descending r, so series[r - j] is still the old coefficient
                for r in range(top, 0, -1):
                    for j in range(1, r + 1):
                        series[r] = series[r] + series[r - j] * binomial[j]
        lead = Poly([0] * shift + [(-1) ** flips])
        for r in range(top, -1, -1):
            factors = {m: b + r for m, b in base.items()}
            terms.append((i, top + 1 - r, FactoredRatFun(lead * series[r], factors)))
    return terms


def ref_majorants(beta, count, top):
    """T_0..T_top and u_0..u_top of the l1 majorant recurrence of a packed pole, step by step.

    With beta the summed multiplicity of the other exponents and count the
    number of distances: T_0 = 1, T_r = ceil(beta sum_(j=1..r) 2^((count - 1) j)
    T_(r-j) / r), and u_r is the largest of those sums for 1..r (u_0 = 0).
    A pole of that top is packed at _width(u_top // 2); ``springer._pole_series``
    takes u_top from the closed form instead.
    """
    scale = 1 << count - 1
    t, u = [1], [0]
    for r in range(1, top + 1):
        total = beta * sum(scale**j * t[r - j] for j in range(1, r + 1))
        t.append(-(-total // r))
        u.append(max(u[-1], total))
    return t, u


def convolve(a, b, n):
    """Series product of two coefficient lists, truncated at z^n; int lists give ints."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if not x:
            continue
        for j, y in enumerate(b[: n + 1 - i]):
            if y:
                out[i + j] += x * y
    return out


def factored_series(f, n):
    """Series of a FactoredRatFun num / prod (1 - z^a)^e through z^n.

    Each 1/(1 - z^a) is the geometric series sum_j z^(a j), and the
    convolution with it is the running sum c_m += c_(m - a), in ascending m.
    """
    out = [Fraction(c) for c in f.num.coeffs[: n + 1]]
    out += [Fraction(0)] * (n + 1 - len(out))
    for a, e in f.factors:
        for _ in range(e):
            for m in range(a, n + 1):
                out[m] += out[m - a]
    return out


def times_poly(f, p):
    """The FactoredRatFun f times the polynomial p, over the same factors."""
    return FactoredRatFun(f.num * p, f.factors)


def multisection(coeffs, n):
    """Every n-th coefficient of a series."""
    return coeffs[::n]


def psi_diagonal(r_coeffs, i, k, n, count):
    """Diagonal of R(z)/(1 - t z^i)^k: coefficient j is C(j+k-1, k-1) r_{j(n-i)}.

    r_coeffs must reach index count*(n-i) when i < n.
    """
    out = []
    for j in range(count + 1):
        idx = j * (n - i)
        if idx < 0 and j > 0:
            out.append(Fraction(0))
        elif idx >= len(r_coeffs):
            raise IndexError("reference series too short")
        else:
            out.append(comb(j + k - 1, k - 1) * r_coeffs[idx])
    return out


def ratfun_add(f, g):
    """Sum of two RatFun values, reduced by Euclid's gcd in the constructor."""
    return RatFun(f.num * g.den + g.num * f.den, f.den * g.den)


def ratfun_derivative(f, order=1):
    """Exact derivative d/dz of a RatFun, repeated ``order`` times, by the quotient rule."""
    if order < 0:
        raise ValueError("negative derivative order")
    for _ in range(order):
        f = RatFun(
            f.num.derivative() * f.den - f.num * f.den.derivative(),
            f.den * f.den,
        )
    return f


class BiSeries:
    """Truncated double series: row m holds the z-coefficients of t^m."""

    def __init__(self, rows, z_order):
        self.rows = [list(r) + [Fraction(0)] * (z_order + 1 - len(r)) for r in rows]
        self.z_order = z_order

    @classmethod
    def one(cls, t_order, z_order):
        rows = [[Fraction(0)] * (z_order + 1) for _ in range(t_order + 1)]
        rows[0][0] = Fraction(1)
        return cls(rows, z_order)

    def times_inverse_factor(self, e, power=1):
        """Multiply by (1 - t z^e)^(-power) = sum_s C(s+power-1, power-1) t^s z^(es)."""
        rows = []
        for m in range(len(self.rows)):
            row = [Fraction(0)] * (self.z_order + 1)
            for s in range(m + 1):
                if e * s > self.z_order:
                    break
                c = comb(s + power - 1, power - 1)
                src = self.rows[m - s]
                for j in range(self.z_order + 1 - e * s):
                    if src[j]:
                        row[j + e * s] += c * src[j]
            rows.append(row)
        return BiSeries(rows, self.z_order)

    def __eq__(self, other):
        return self.z_order == other.z_order and self.rows == other.rows


def generating_function_biseries(beta, t_order, z_order):
    out = BiSeries.one(t_order, z_order)
    for e, mult in sorted(beta.items()):
        out = out.times_inverse_factor(e, mult)
    return out


def recombined_biseries(pfd, t_order, z_order):
    """Sum of A_{i,k}/(1 - t z^i)^k as a truncated double series."""
    rows = [[Fraction(0)] * (z_order + 1) for _ in range(t_order + 1)]
    for i, k, a_ik in pfd.terms:
        coeffs = factored_series(a_ik, z_order)
        for m in range(t_order + 1):
            if i * m > z_order:
                continue
            c = comb(m + k - 1, k - 1)
            for j in range(z_order + 1 - i * m):
                if coeffs[j]:
                    rows[m][j + i * m] += c * coeffs[j]
    return BiSeries(rows, z_order)


def random_factored(rng, max_num_deg=6, max_factors=3, max_exp=5, max_mult=2):
    """Random FactoredRatFun with small integer data; never identically zero."""
    while True:
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, max_num_deg + 1))]
        if any(coeffs):
            break
    factors = {}
    for _ in range(rng.randint(0, max_factors)):
        a = rng.randint(1, max_exp)
        factors[a] = factors.get(a, 0) + rng.randint(1, max_mult)
    scale = Fraction(rng.choice([1, 1, 1, -1, 2, -3]), rng.choice([1, 1, 2]))
    return FactoredRatFun(Poly(coeffs) * scale, factors)


def ref_phi(f, n):
    """phi_n of a FactoredRatFun by block passes on the numerator list.

    Each (1 - z^a)^e becomes (1 - z^(a/g))^e, g = gcd(a, n), once the
    numerator is multiplied e times by the block (1 - z^(a n/g)) / (1 - z^a):
    a shifted difference and a stride-a prefix sum on the int list. Then
    every n-th numerator coefficient is kept.
    """
    if n == 1:
        return f
    num, factors = f.num.ints, []
    for a, e in f.factors:
        g = gcd(a, n)
        if g < n:
            for _ in range(e):
                num = _binomial_passes(num, (a * n // g,), (a,))
        factors.append((a // g, e))
    return FactoredRatFun(Poly._from_ints(list(num[::n]), f.num.denom), factors)


def ref_below_shift(r_funs, m):
    """phi_m of sum_k C(theta/m + k - 1, k - 1) R_k by Horner's rule on FactoredRatFun.

    acc = R_beta, then acc = R_(k-1) + acc + z acc' / (m (k - 1)) for
    k = beta down to 2: every step is a ``FactoredRatFun.derivative`` and
    two additions over the merged factors.
    """
    acc = r_funs[-1]
    for k in range(len(r_funs), 1, -1):
        deriv = acc.derivative()
        acc = acc + FactoredRatFun(deriv.num * Poly([0, Fraction(1, m * (k - 1))]), deriv.factors)
        acc = acc + r_funs[k - 2]
    return ref_phi(acc, m)


def ref_all_ones(n, kind):
    """The all-ones closed form by Horner's rule in d/dz on RatFun: the quotient rule, Euclid's gcd."""
    kind = canonical_kind(kind)
    acc = RatFun(ZERO)
    for k in range(n, 0, -1):
        scale = Fraction((-1) ** (n - k) * pochhammer(n, n - k), factorial(k - 1) * factorial(n - k))
        power = 2 * n - k - 1
        if kind == "semiinvariants":
            term = RatFun(Poly([0] * power + [scale, scale]), one_minus_z(2) ** (power + 1))
        else:
            term = RatFun(Poly([0] * power + [scale]), one_minus_z(2) ** power)
        acc = ratfun_add(ratfun_derivative(acc), term)
    return acc


def ref_all_twos(n, kind):
    """The all-twos closed form by Horner's rule in d/dz on RatFun: the quotient rule, Euclid's gcd."""
    kind = canonical_kind(kind)
    acc = RatFun(ZERO)
    for k in range(n, 0, -1):
        scale = Fraction((-1) ** (n - k), factorial(n - k) * factorial(k - 1))
        inner = RatFun(ZERO)
        for i in range(n - k + 1):
            c = comb(n - k, i) * pochhammer(n, i) * pochhammer(n, n - k - i)
            num = Poly([0] * (2 * n - k - i - 1) + [c * scale])
            if kind == "invariants":
                num = num * Poly([1, -1])
            inner = ratfun_add(inner, RatFun(num, one_minus_z(1) ** (n + i) * one_minus_z(2) ** (2 * n - k - i)))
        acc = ratfun_add(ratfun_derivative(acc), inner)
    return acc


def random_pole(rng, beta, max_num_deg=4, max_cover=3, max_exp=5):
    """R_1..R_beta of one pole: R_k = N_k / prod (1 - z^a)^(B_a + beta - k), B_a >= 1.

    The cover may be empty. Any R_k below the top may be zero; the numerators
    are small integers over a denominator of 1 or 2.
    """
    base = {rng.randint(1, max_exp): rng.randint(1, 3) for _ in range(rng.randint(0, max_cover))}
    r_funs = []
    for k in range(1, beta + 1):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, max_num_deg + 1))]
        if k == beta and not any(coeffs):
            coeffs[0] = 1
        num = Poly(coeffs) * Fraction(1, rng.choice([1, 1, 2]))
        r_funs.append(FactoredRatFun(num, {a: b + beta - k for a, b in base.items()}))
    return r_funs


def cyclotomics(orders) -> dict:
    """The cyclotomic polynomial Phi_d for every divisor d of every n in ``orders``.

    Each is +-Psi_n, the binomial passes of ``algebra._moebius_binomials``,
    a monic integer polynomial.
    """
    phi = {}
    for n in sorted({d for n in orders for d in range(1, n + 1) if n % d == 0}):
        ints = _binomial_passes([1], *_moebius_binomials(n))
        phi[n] = Poly(ints if n > 1 else [-c for c in ints])
    return phi


def den_poly(f: FactoredRatFun) -> Poly:
    """The denominator prod (1 - z^a)^e of a FactoredRatFun, by Poly powers."""
    return prod((one_minus_z(a) ** e for a, e in f.factors), start=ONE)


def ref_greedy_factor(den: list):
    """cli.greedy_factor without its residue pretest: the binomial trial for every a."""
    factors, rem = {}, den
    for a in range(len(den) - 1, 0, -1):
        while len(rem) > a and (q := _binomial_passes(rem, (), (a,))) is not None:
            factors[a] = factors.get(a, 0) + 1
            rem = q
    return factors, rem


def ref_cancel_binomials(ints, factors: dict):
    """algebra._cancel_binomials by unit trials: one full binomial pass per (1 - z^a) tried."""
    num, remaining = ints, {}
    for a, e in sorted(factors.items(), reverse=True):
        while e and (q := _binomial_passes(num, (), (a,))) is not None:
            num, e = q, e - 1
        if e:
            remaining[a] = e
    return num, remaining


def ref_degree_multisets(max_total: int, max_deg: int):
    """counting.degree_multisets by recursion on the budget, sorted at the end."""
    out = []

    def rec(prefix, budget, ceiling):
        for d in range(min(ceiling, max_deg), 0, -1):
            if d + 1 <= budget:
                cur = prefix + (d,)
                out.append(cur)
                rec(cur, budget - d - 1, d)

    rec((), max_total, max_deg)
    return sorted(out, key=lambda t: (len(t), t))
