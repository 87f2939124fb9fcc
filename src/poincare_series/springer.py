"""Springer-type operator calculus for Poincare series.

Pipeline: decompose the weight-shifted generating function
prod_e (1 - t z^e)^(-beta_e) into partial fractions over t, reading the
coefficients at each pole t = z^(-i) off a product of binomial series in
u = 1 - t z^i by its log-derivative recurrence (see ``partial_fractions``),
which runs on the polynomials packed into single integers at z = 2^W,
then apply the diagonal operator pole by pole. The terms
A_{i,k}/(1 - t z^i)^k, k = 1..beta_i, contribute, depending on how the
pole exponent i compares with the shift n = d*:

    i < n   ->  phi_m( sum_k C(theta/m + k - 1, k - 1) R_k ),  m = n - i
    i = n   ->  sum_k R_k(0) / (1 - z)^k
    i > n   ->  sum_k R_k(0)

where R_k = prefactor * A_{i,k}, theta = z d/dz and phi_m is power-series
multisection (keep every m-th coefficient). Below the shift each term is
1/(k-1)! (d/dz)^(k-1) [z^(k-1) phi_m(R_k)] = C(theta + k - 1, k - 1) phi_m(R_k),
and theta phi_m = phi_m theta/m, so one pole needs one multisection. The
prefactor is 1 + z for the semi-invariant series and 1 - z^2 for the
invariant one. ``poincare_series`` sums only i < n: beta_0 >= 1 puts z^(i beta_0)
in every A_{i,k} with i >= 1, so R_k(0) = 0 and the other two cases vanish.

The sum over k at one pole runs by Horner's rule before its multisection,
on integer lists: every R_k there is N_k / (D_0 L^(beta_i - k)), with
D_0 = prod (1 - z^a)^(B_a) and L the product of the distinct (1 - z^a), so
each step (theta + c) acc / c stays on one cover that gains one L, and the
1/c go into one integer denominator (``algebra._cover_horner``, which
also runs the closed forms of ``closedform``). The prefactor is one
shifted add per numerator list, and D_0 is the pole's base cover.

From the decomposition to the reduced result the route runs on int lists.
Each system is decomposed once (``_poles``, cached) into, per pole, the
numerator lists of the A_{i,k} and the base cover; both kinds read them,
and ``partial_fractions`` wraps the same lists for the public API. Each
pole's sum is multisected on one packed integer and the sums are added on
one cover (``_multisect_sum``): the multisection of R(z)/prod(1 - z^a)
multiplies the numerator by the geometric block of n/gcd(a, n) terms at
z^a, which leaves (1 - z^(a/gcd(a, n))) with its multiplicity unchanged.
The sum is unpacked once, into the int list that ``algebra._reduce``
turns into the reduced RatFun.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import comb, gcd, lcm, prod
from operator import floordiv, mod

from .algebra import (
    FactoredRatFun,
    Poly,
    RatFun,
    _add_scaled,
    _bias,
    _binomial_passes,
    _cover_horner,
    _pack,
    _reduce,
    _unpack,
    _width,
)
from .counting import as_degree_vector, build_factored_gf, canonical_kind


@dataclass(frozen=True)
class PFD:
    """Partial fraction decomposition over t of the shifted generating function.

    terms holds (i, k, A), ordered by (i, k), with A the coefficient of
    1/(1 - t z^i)^k, a FactoredRatFun with an integer numerator.
    """

    d_star: int
    terms: tuple


def _binomial_row(beta: int, top: int) -> list:
    """C(beta + j - 1, j) for j = 0..top: the v^j coefficients of (1 - v)^(-beta)."""
    return [comb(beta + j - 1, j) for j in range(top + 1)] if beta else [1] + [0] * top


def _pole_series(below: dict, above: dict, top: int) -> list:
    """S_0..S_top, the v^r coefficients of prod (1 - y v)^(-beta) at one pole.

    ``below`` and ``above`` map the distance m of each other exponent on
    that side to its beta; ``partial_fractions`` gives the recurrence.
    """
    series = [[1]]
    dists = sorted({*below, *above})
    if not top or not dists:
        # a simple pole needs neither L nor any x_m; with no other exponent, S = 1
        return series + [[]] * top
    if len(dists) == 1:
        # L = 1 - z^m, so x_m = 1 and S is a product of binomial series in v and
        # -z^m v. Needed for exactness, not only speed: r S_r need not vanish at
        # z = 1 here, so the general branch's halved width can overflow
        (m,) = dists
        lo, hi = _binomial_row(below.get(m, 0), top), _binomial_row(above.get(m, 0), top)
        for r in range(1, top + 1):
            s_r = [0] * (m * r + 1)
            s_r[::m] = [lo[r - j] * hi[j] * (-1) ** j for j in range(r + 1)]
            series.append(s_r)
        return series
    cover = _binomial_passes([1], dists, ())
    # the l1 bound of partial_fractions: top T_top, T_r = C(beta + r - 1, r) 2^((#m - 1) r)
    beta = sum(below.values()) + sum(above.values())
    width = _width((top * comb(beta + top - 1, top) << (len(dists) - 1) * top) // 2)
    bits = 8 * width
    # evaluated at z = 2^bits: lifted is L, sums[j] is P_j and packed[r] is S_r
    lifted = _pack(cover, width)
    sums = [0] * (top + 1)
    for m in dists:
        # x_m = L / (1 - z^m) exactly, so its value is an exact integer quotient
        y, power = lifted // (1 - (1 << bits * m)), 1
        for j in range(1, top + 1):
            power *= y
            sums[j] += below.get(m, 0) * power + ((-1) ** j * above.get(m, 0) * power << bits * m * j)
    packed = [1]
    for r in range(1, top + 1):
        acc = sum(sums[j] * packed[r - j] for j in range(1, r + 1))
        # deg S_r <= r deg L; every digit is checked, so acc // r is exact
        digits = _unpack(acc, r * (len(cover) - 1) + 1, width)
        if r > 1:
            if any(map(mod, digits, repeat(r))):
                raise ArithmeticError(f"r S_r is not divisible by r = {r}")
            digits = list(map(floordiv, digits, repeat(r)))
        series.append(digits)
        packed.append(acc // r)
    return series


def partial_fractions(exponents: dict, shift: "int | None" = None) -> PFD:
    """Decompose prod_e (1 - t z^e)^(-beta_e) into sum A_{i,k}/(1 - t z^i)^k.

    At the pole t = z^(-i) put u = 1 - t z^i and, for every other exponent
    e, m = |e - i|. Each other factor is then a binomial series in u:

        e > i:  (1 - t z^e)^(-beta) = (1 - z^m)^(-beta) (1 + u z^m/(1 - z^m))^(-beta)
        e < i:  (1 - t z^e)^(-beta) = (-1)^beta z^(m beta) (1 - z^m)^(-beta)
                                      * (1 - u/(1 - z^m))^(-beta)

    and A_{i, beta_i - r} is the u^r coefficient of their product. With
    u = v L, L the product of the distinct (1 - z^m), and the integer
    polynomial x_m = L/(1 - z^m), the product is
    S(v) = prod_e (1 - y_e v)^(-beta_e) with y_e = x_m below the pole and
    y_e = -z^m x_m above it. Its log-derivative gives the recurrence

        r S_r = sum_{j=1..r} P_j S_(r-j),
        P_j = sum_m x_m^j (beta_(i-m) + beta_(i+m) (-z^m)^j),

    in which the division by r is exact. It runs on the polynomials
    evaluated at z = 2^W, single integers: L is packed once per pole, x_m is
    the exact quotient L(2^W) / (1 - 2^(W m)), z^(m j) is a left shift, and
    r S_r is unpacked once, to check that r divides every coefficient, so
    S_r(2^W) is the exact quotient by r. W is whole bytes with room for
    every coefficient of L and of every r S_r: ||y_e||_1 <= 2^(#m - 1), #m
    the number of distances, so with beta = sum_(e != i) beta_e >= #m,
    ||S_r||_1 <= T_r = C(beta + r - 1, r) 2^((#m - 1) r), the v^r
    coefficient of (1 - 2^(#m - 1) v)^(-beta). r T_r grows with r, so with
    top = beta_i - 1, top T_top bounds ||L||_1 = 2^#m and every ||r S_r||_1.
    With two or more distances every x_m keeps the factor (1 - z^m') of
    another distance, so every P_j, and with it every r S_r, vanishes at
    z = 1 as L does: no coefficient exceeds top T_top / 2, and
    W = _width(top T_top // 2). With one distance m that fails: x_m = 1,
    P_j(1) = beta_(i-m) + (-1)^j beta_(i+m) need not vanish, and
    S_r = C(beta + r - 1, r) reaches its whole bound when that exponent lies
    below the pole. So that case reads S_r off the two binomial series
    directly, which exactness needs: packed at the halved width, the poles
    of (1,)*16 overflow. A_{i, beta_i - r} is the sign and z-power above
    times S_r, over prod_m (1 - z^m)^(B_m + r), B_m the sum of beta_e at
    distance m. Every k = 1..beta_i is emitted, zero coefficients included,
    for every pole i, or for the poles i < shift alone when a shift is given.
    """
    terms = [
        (i, k, FactoredRatFun(Poly._from_ints(num), {m: b + len(nums) - k for m, b in base.items()}))
        for i, base, nums in _pole_numerators(exponents, shift)
        for k, num in enumerate(nums, 1)
    ]
    return PFD(max(exponents) // 2, tuple(terms))


def _pole_numerators(exponents: dict, shift: "int | None"):
    """Per pole i (below the shift, when given one), in order: (i, {m: B_m}, nums).

    nums[k - 1] is the numerator list of A_{i,k}: the terms of ``partial_fractions`` on int lists.
    """
    if not exponents:
        raise ValueError("empty exponent map")
    for e, beta in exponents.items():
        if beta < 1:
            raise ValueError(f"multiplicity beta_{e} = {beta} must be >= 1")
    for i in sorted(exponents):
        if shift is not None and i >= shift:
            break
        below = {i - e: beta for e, beta in exponents.items() if e < i}
        above = {e - i: beta for e, beta in exponents.items() if e > i}
        base = {m: below.get(m, 0) + above.get(m, 0) for m in sorted({*below, *above})}
        lead = sum(m * beta for m, beta in below.items())
        sign = (-1) ** sum(below.values())
        series = _pole_series(below, above, exponents[i] - 1)
        yield i, base, [[0] * lead + [sign * c for c in s_r] for s_r in reversed(series)]


def _times_block(x: int, shift: int, k: int) -> int:
    """x (1 + y + ... + y^(k-1)) for y = 2^shift, by shift-adds along the binary digits of k.

    With B_j = 1 + y + ... + y^(j-1): B_2j = B_j + y^j B_j and B_(2j+1) = B_2j + y^2j.
    """
    acc, j = x, 1
    for bit in bin(k)[3:]:
        acc += acc << shift * j
        j *= 2
        if bit == "1":
            acc += x << shift * j
            j += 1
    return acc


def _packed_multisect(ints, factors, n: int, width: int, out: int) -> tuple:
    """phi_n of ints * prod over (a, e) of the blocks B^e, packed: (value at z = 2^(8 out), size).

    phi_n is phi_p for one prime p of n after another: at each, the factors
    that p does not divide take the block of p terms (``_times_block``), the
    others shrink to a/p, and every p-th digit is kept, byte column by byte
    column of the biased digits. So each prime's blocks are short and act on
    the digits the primes before it kept, where one phi_n would apply blocks
    of n/g terms to the whole product. Every block runs at ``width`` bytes;
    only the last phi_p copies its byte columns into digits of ``out`` >=
    ``width`` bytes, the same strided copy into a wider stride, whose upper
    bytes are zero, so only that digit's bias 2^(8 width - 1) is removed.
    With n = 1 there is no phi_p, and ints are packed at ``out``. Nothing
    is unpacked: the caller reads the digits.
    """
    x, size, bits, p = _pack(ints, width if n > 1 else out), len(ints), 8 * width, 2
    while n > 1:
        while n % p:
            p += 1
        n //= p
        rest = []
        for a, e in factors:
            if a % p:
                for _ in range(e):
                    x = _times_block(x, bits * a, p)
                size += a * (p - 1) * e
            else:
                a //= p
            rest.append((a, e))
        factors = rest
        buf = (x + _bias(size, width)).to_bytes(size * width, "little")
        size = -(-size // p)
        stride = width if n > 1 else out
        kept = bytearray(size * stride)
        for b in range(width):
            kept[b::stride] = buf[b::p * width]
        # 2^(8 width - 1) in each digit of stride bytes: the bias at that stride, shifted down
        x = int.from_bytes(kept, "little") - (_bias(size, stride) >> 8 * (stride - width))
    return x, size


def _multisect_sum(parts) -> tuple:
    """sum over the parts of phi_n(N / (denom prod (1 - z^a)^e)), on one cover: (ints, denom, cover).

    A part is (N, denom, factors, n): an int list, a positive int and the
    (a, e) pairs. With g = gcd(a, n) and k = n/g, the block
    B = (1 - z^(a k)) / (1 - z^a) = 1 + z^a + ... + z^(a (k-1)) turns
    (1 - z^a)^e into (1 - z^(a k))^e, a function of z^n, so phi_n acts on
    N B^e alone and leaves (1 - z^(a/g))^e: the multiplicities carry over
    (summed when two a meet at one a/g), each a shrinks to a/g. The cover
    takes the largest multiplicity of each factor over the parts, a zero
    part's included.

    Each series is one packed integer from its multisection to the sum, and
    the sum is unpacked once. N B^e is never formed as a list
    (``_packed_multisect``): N is packed once at z = 2^(8 w) and phi_n runs
    on that integer. Evaluation at a power of two is exact, so only the
    digits read off must fit. Every block has nonnegative coefficients and
    l1 norm its length, and the lengths of a factor's blocks over the primes
    of n multiply to k, so no digit read after a prime exceeds
    max|N| prod k^e in absolute value, and w is whole bytes for that bound.
    The result is lifted to the cover while packed, x -= x << 8 W b per
    missing unit (1 - z^b), scaled to the parts' common denominator and
    added in. The coefficients of (1 - z^b) f are f_j - f_(j - b), so each
    unit at most doubles max|coeff|, and no digit of the sum exceeds
    sum over the nonzero parts of (common/denom) max|N| prod k^e 2^units;
    the common width W is whole bytes for that bound. It holds the last
    phi_p's digits too, so that copy writes straight into W; the blocks
    stay at the part's w, which is often much narrower. A part with n = 1
    is packed at W directly. The summed ints may end in zeros.
    """
    cover, owns = {}, []
    for ints, denom, factors, n in parts:
        own = {}
        for a, e in factors:
            b = a // gcd(a, n)
            own[b] = own.get(b, 0) + e
        for b, e in own.items():
            cover[b] = max(cover.get(b, 0), e)
        owns.append(own)
    common = lcm(*[denom for _, denom, _, _ in parts])
    series = []
    for (ints, denom, factors, n), own in zip(parts, owns):
        if any(ints):
            bound = max(map(abs, ints)) * prod((n // gcd(a, n)) ** e for a, e in factors)
            lift = [b for b, e in cover.items() for _ in range(e - own.get(b, 0))]
            series.append((ints, factors, n, common // denom, bound, lift))
    width = _width(sum(scale * bound << len(lift) for _, _, _, scale, bound, lift in series))
    bits, total, size = 8 * width, 0, 0
    for ints, factors, n, scale, bound, lift in series:
        x, length = _packed_multisect(ints, factors, n, _width(bound), width)
        for b in lift:
            x -= x << bits * b
        total += scale * x
        size = max(size, length + sum(lift))
    return _unpack(total, size, width), common, cover


def phi_factored(f: FactoredRatFun, n: int) -> FactoredRatFun:
    """Multisection keeping every n-th coefficient, in factored form.

    Each (1 - z^a)^e of f becomes (1 - z^(a/gcd(a, n)))^e, and the
    numerator is multiplied by the geometric blocks that make the
    denominator a function of z^n before every n-th coefficient is kept:
    ``_multisect_sum`` with one part.
    """
    if n < 1:
        raise ValueError("multisection index must be >= 1")
    if n == 1:
        return f
    ints, denom, cover = _multisect_sum([(f.num.ints, f.num.denom, f.factors, n)])
    return FactoredRatFun(Poly._from_ints(ints, denom), cover)


def _pole_part(nums, base: dict, m: int, prefactor: list, denom: int = 1) -> tuple:
    """The ``_multisect_sum`` part of one pole below the shift: sum_k C(theta/m + k - 1, k - 1) R_k.

    R_k = prefactor * nums[k - 1] / (denom D_0 L^(beta - k)), with D_0 =
    prod (1 - z^a)^(B_a) over base {a: B_a} and L the product of its distinct
    (1 - z^a). The prefactor, an int list with constant term 1, is one
    shifted add per other nonzero term. Horner's rule sums before the
    multisection phi_m: acc = R_beta, then acc = R_(k-1) + (theta + c) acc / c
    with c = m(k - 1) for k = beta down to 2, which is ``_cover_horner`` with
    the integer weights w_k = prod_(l=k..beta-1) m l over one denominator,
    prod c times denom; a simple pole takes no step.
    """
    beta, tail = len(nums), [(j, c) for j, c in enumerate(prefactor) if j and c]
    terms, weight = [], 1
    for k in range(beta, 0, -1):
        r = list(nums[k - 1])
        for j, c in tail:
            _add_scaled(r, j, c, nums[k - 1])
        terms.append((weight, r))
        if k > 1:
            weight *= m * (k - 1)
    p = _cover_horner(base, terms, [m * (k - 1) for k in range(beta, 1, -1)])
    denom *= weight
    if (g := gcd(denom, *p)) != 1:
        p, denom = [x // g for x in p], denom // g
    return p, denom, [(a, b + beta - 1) for a, b in base.items()], m


def psi_term_factored(i: int, k: int, r_fun: FactoredRatFun, n: int) -> FactoredRatFun:
    """Diagonal of R(z)/(1 - t z^i)^k under t^j z^(j n) extraction.

    The three branches (i below, at, above the shift n) follow the
    double-series expansion: the t^j coefficient is
    C(j+k-1, k-1) z^(i j) R(z), so above the shift only j = 0 survives.
    Below the shift this is one pole's sum with R_k alone nonzero.
    """
    if k < 1:
        raise ValueError("pole power must be >= 1")
    if n < 1:
        raise ValueError("shift must be >= 1")
    if i < n:
        part = _pole_part([()] * (k - 1) + [r_fun.num.ints], dict(r_fun.factors), n - i, [1], r_fun.num.denom)
        ints, denom, cover = _multisect_sum([part])
        return FactoredRatFun(Poly._from_ints(ints, denom), cover)
    # R(0) is num(0): every (1 - z^a) equals 1 at the origin
    if i == n:
        return FactoredRatFun(Poly([r_fun.num[0]]), {1: k})
    return FactoredRatFun(Poly([r_fun.num[0]]))


_PREFACTOR = {"semiinvariants": [1, 1], "invariants": [1, 0, -1]}

# one entry per (degrees, kind) in the series cache and per degrees in the
# PFD cache: well above the few dozen that a CLI session or the default
# crosscheck sweep fills, yet bounded
_CACHE_SIZE = 256


@lru_cache(maxsize=_CACHE_SIZE)
def _poles(degrees: tuple) -> tuple:
    """d* and, per pole i below the shift, (i, base, nums) of ``_pole_numerators``."""
    d = as_degree_vector(degrees)
    # beta_0 >= 1 puts z^(i beta_0) in every A_{i,k}, so R_k(0) = 0 and the
    # psi terms at and above the shift, R_k(0)/(1 - z)^k and R_k(0), vanish
    return d.d_star, tuple(_pole_numerators(build_factored_gf(d), d.d_star))


@lru_cache(maxsize=_CACHE_SIZE)
def _poincare_cached(degrees: tuple, kind: str) -> RatFun:
    # the decomposition does not depend on the kind: both kinds of one
    # system read the one cached decomposition and differ only in the prefactor
    d_star, poles = _poles(degrees)
    prefactor = _PREFACTOR[kind]
    parts = [_pole_part(nums, base, d_star - i, prefactor) for i, base, nums in poles]
    return _reduce(*_multisect_sum(parts))


def poincare_series(d, kind: str) -> RatFun:
    """Exact Poincare series of the invariant or semi-invariant algebra of d.

    The semi-invariant algebra is isomorphic to the covariant algebra and
    to the kernel of the associated Weitzenboeck derivation, so this one
    function covers all three readings: kind is any spelling that
    ``counting.canonical_kind`` accepts, and the cache is keyed on the series.
    """
    kind = canonical_kind(kind)
    return _poincare_cached(as_degree_vector(d).degrees, kind)


def single_form_series(d, kind: str) -> RatFun:
    """Poincare series for a single form of degree d by the q-factorial sum.

    d is a form degree or a one-form system, kind any spelling that
    ``poincare_series`` takes. Sum over 0 <= k < d/2 of
    phi_{d-2k}( (-1)^k z^(k(k+1)) * prefactor / ((z^2;z^2)_k (z^2;z^2)_{d-k}) )
    with prefactor 1 - z^2 for invariants and 1 + z for semi-invariants. The
    bound is strict: k = d/2 would call the undefined phi_0.
    """
    system = as_degree_vector(d)
    if system.size != 1:
        raise ValueError(f"single_form_series takes one form, not the system {system}")
    d = system.d_star
    prefactor = _PREFACTOR[canonical_kind(kind)]
    parts = []
    for k in range((d + 1) // 2):
        # (z^2;z^2)_k (z^2;z^2)_(d-k); _multisect_sum merges the repeated (2j, 1)
        factors = [(2 * j, 1) for j in [*range(1, k + 1), *range(1, d - k + 1)]]
        parts.append(([0] * (k * (k + 1)) + [(-1) ** k * c for c in prefactor], 1, factors, d - 2 * k))
    return _reduce(*_multisect_sum(parts))
