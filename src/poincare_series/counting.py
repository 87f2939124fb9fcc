"""Weight counting for systems of binary forms.

A system is a multiset of form degrees d = (d_1, ..., d_s). Each form of
degree d_k contributes the weight ladder d_k, d_k - 2, ..., -d_k; the
number of degree-m monomials of a prescribed total weight counts the
lattice points of a transportation-type polytope, and differences of
those counts give the graded dimensions of the invariant and
semi-invariant algebras (equivalently, of the kernel and the image
closure of the associated Weitzenboeck derivation). One dynamic program
gives the counts, each row packed into a big integer of one digit per weight.
``canonical_kind`` decides, for every route, which of the two series a kind
names.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from operator import index

# the two series; the corpus format's kind field takes these names only
KINDS = ("invariants", "semiinvariants")
# the accepted spellings: covariants and the derivation kernel are the
# semi-invariant algebra
KIND_CHOICES = ("invariants", "semiinvariants", "covariants", "kernel")


def canonical_kind(kind: str) -> str:
    """The series a kind names, one of KINDS; ValueError outside KIND_CHOICES."""
    if kind not in KIND_CHOICES:
        raise ValueError(f"kind must be one of {KIND_CHOICES}")
    return "invariants" if kind == "invariants" else "semiinvariants"


@dataclass(frozen=True)
class DegreeVector:
    """Degrees of the system, stored sorted descending; entries must be ints >= 1.

    A float or a string degree is a TypeError, not truncated or parsed.
    """

    degrees: tuple

    def __post_init__(self):
        degs = tuple(sorted((index(d) for d in self.degrees), reverse=True))
        if not degs:
            raise ValueError("degree vector must be nonempty")
        if degs[-1] < 1:
            raise ValueError("degrees must be positive integers")
        object.__setattr__(self, "degrees", degs)

    @property
    def size(self) -> int:
        return len(self.degrees)

    @property
    def d_star(self) -> int:
        return self.degrees[0]

    @property
    def variable_count(self) -> int:
        # one ladder slot per coefficient of each form
        return sum(d + 1 for d in self.degrees)

    def weights(self) -> tuple:
        """Weight multiset {d_k - 2j : 0 <= j <= d_k}, descending."""
        out = []
        for d in self.degrees:
            # a range states its length, so a ladder too long to allocate fails at once
            out.extend(range(d, -d - 1, -2))
        return tuple(sorted(out, reverse=True))

    def __str__(self):
        return ",".join(str(d) for d in self.degrees)


def as_degree_vector(d) -> DegreeVector:
    if isinstance(d, DegreeVector):
        return d
    if isinstance(d, int):
        return DegreeVector((d,))
    return DegreeVector(tuple(d))


def degree_multisets(max_total: int, max_deg: int):
    """All descending degree tuples with sum of (d_k + 1) bounded by max_total.

    Level n extends each tuple of level n - 1 by every degree up to its last that
    fits the budget. Degrees ascend, so the list is sorted by (length, tuple).
    """
    out, level = [], [()]
    while level:
        level = [t + (d,) for t in level
                 for d in range(1, 1 + min(t[-1] if t else max_deg, max_total - sum(t) - len(t) - 1))]
        out += level
    return out


def build_factored_gf(d) -> dict:
    """Exponent multiplicities beta_e of prod over e of (1 - t z^e)^(-beta_e).

    Shifting t -> t z^(d*) turns the weight w into the nonnegative
    exponent d* - w, so the result maps e in 0..2d* to the number of
    ladder slots with d* - weight = e. The multiplicities are symmetric
    about d* and sum to the number of variables.
    """
    d = as_degree_vector(d)
    return dict(Counter(d.d_star - w for w in d.weights()))


def _packed_rows(d, horizon: int) -> tuple:
    """(d*, bits, rows): digit e of rows[k] counts degree-k monomials of weight k*d* - e.

    A variable of weight w adds row k - 1, shifted by d* - w digits of ``bits``
    bits, to row k (Kronecker substitution). No digit carries: 2^bits exceeds
    C(horizon + N - 1, N - 1), which bounds every count of monomials in N variables.
    """
    if horizon < 0:
        raise ValueError("degree must be nonnegative")
    d = as_degree_vector(d)
    bits = comb(horizon + d.variable_count - 1, horizon).bit_length()
    rows = [1] + [0] * horizon
    for w in d.weights():
        shift = bits * (d.d_star - w)
        for k in range(1, horizon + 1):
            rows[k] += rows[k - 1] << shift
    return d.d_star, bits, rows


def _digit(row: int, bits: int, e: int) -> int:
    """Digit e of a packed row; a negative index reads 0."""
    return (row >> (bits * e)) & ((1 << bits) - 1) if e >= 0 else 0


def omega(d, m: int, i: int) -> int:
    """Number of monomials of total degree m and weight i in the system's variables."""
    s, bits, rows = _packed_rows(d, m)
    return _digit(rows[m], bits, m * s - i)


def _gammas(d, m: int, ks) -> list:
    """gamma(d, m, k) for every k >= 0 in ks, read off one packed row.

    Always nonnegative; a negative difference can only come from a
    counting bug, so it is raised, never returned.
    """
    s, bits, rows = _packed_rows(d, m)
    out = []
    for k in ks:
        value = _digit(rows[m], bits, m * s - k) - _digit(rows[m], bits, m * s - k - 2)
        if value < 0:
            raise RuntimeError(
                f"negative multiplicity gamma_{m}({d}; {k}); counting is inconsistent"
            )
        out.append(value)
    return out


def gamma(d, m: int, k: int) -> int:
    """Multiplicity of the weight-k isotypic piece in degree m: omega(k) - omega(k+2)."""
    if k < 0:
        raise ValueError("isotypic weight k must be nonnegative")
    return _gammas(d, m, [k])[0]


def dimension(d, m: int, kind: str) -> int:
    """Graded dimension in degree m: invariant or semi-invariant count."""
    return dimensions(d, m, kind)[m]


def dimensions(d, horizon: int, kind: str) -> list:
    """Graded dimensions in degrees 0..horizon, read off one set of packed rows.

    Invariants count omega(0) - omega(2), semi-invariants omega(0) + omega(1):
    in row k, digit k*d* minus digit k*d* - 2, or digit k*d* plus digit k*d* - 1.
    """
    step, sign = (2, -1) if canonical_kind(kind) == "invariants" else (1, 1)
    s, bits, rows = _packed_rows(d, horizon)
    return [
        _digit(row, bits, k * s) + sign * _digit(row, bits, k * s - step)
        for k, row in enumerate(rows)
    ]


@dataclass(frozen=True)
class MultiplicityTable:
    """All isotypic multiplicities of one graded piece."""

    d: DegreeVector
    m: int
    entries: tuple  # ((k, gamma_k), ...) for k = 0..m*d_star

    def total(self) -> int:
        """Dimension of the full degree-m piece: sum of gamma_k * (k + 1)."""
        return sum(g * (k + 1) for k, g in self.entries)

    def expected_total(self) -> int:
        n = self.d.variable_count
        return comb(self.m + n - 1, n - 1)


def multiplicity_table(d, m: int) -> MultiplicityTable:
    d = as_degree_vector(d)
    ks = range(m * d.d_star + 1)
    return MultiplicityTable(d, m, tuple(zip(ks, _gammas(d, m, ks))))
