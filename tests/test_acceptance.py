"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints exactly one
pass/fail line; every comparison is exact (no tolerances anywhere).
"""

import io
import random
import time
from contextlib import contextmanager, redirect_stdout
from math import comb

from poincare_series.algebra import ONE, Poly, RatFun, one_minus_z
from poincare_series.cli import ROUTES, main
from poincare_series.counting import degree_multisets
from poincare_series.counting import (
    DegreeVector,
    build_factored_gf,
    dimensions,
    gamma,
    multiplicity_table,
    omega,
)
from poincare_series.springer import (
    _poincare_cached,
    _poles,
    partial_fractions,
    phi_factored,
    poincare_series,
    psi_term_factored,
    single_form_series,
)

from _oracles import (
    factored_series,
    generating_function_biseries,
    multisection,
    psi_diagonal,
    random_factored,
    recombined_biseries,
    times_poly,
)

SWEEP = degree_multisets(8, 4)
KINDS = ("invariants", "semiinvariants")


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL", flush=True)
        raise
    print(f"criterion {number} ({name}): PASS", flush=True)


def assemble(num, factors):
    den = ONE
    for a, e in factors:
        den = den * one_minus_z(a) ** e
    return RatFun(Poly(num) if isinstance(num, list) else num, den)


def test_criterion_1_golden_tables():
    with criterion(1, "golden tables"):
        _poincare_cached.cache_clear()
        _poles.cache_clear()
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            rc = main(["golden-check"])
        elapsed = time.perf_counter() - start
        assert rc == 0
        assert elapsed < 10.0, f"golden corpus took {elapsed:.2f}s"


def test_criterion_2_worked_intermediates():
    with criterion(2, "worked intermediates"):
        pfd = partial_fractions(build_factored_gf((1, 2, 3)))
        a01 = next(A for i, k, A in pfd.terms if (i, k) == (0, 1))
        shown_a01 = assemble(
            [1], [(4, 2), (2, 2), (5, 1), (3, 1), (1, 1), (6, 1)]
        )
        assert a01.to_ratfun() == shown_a01
        shown_phi3 = assemble(
            [1, 4, 14, 21, 33, 42, 42, 34, 29, 14, 7, 2],
            [(5, 1), (1, 3), (4, 2), (2, 2)],
        )
        assert phi_factored(times_poly(a01, Poly([1, 1])), 3).to_ratfun() == shown_phi3


def test_criterion_3_oracle_equivalence():
    with criterion(3, "counting vs operator"):
        _poincare_cached.cache_clear()
        _poles.cache_clear()
        start = time.perf_counter()
        for degs in SWEEP:
            for kind in KINDS:
                series = poincare_series(degs, kind).expand(10)
                dims = dimensions(degs, 10, kind)
                assert series == dims, (degs, kind)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"sweep took {elapsed:.2f}s"


def assert_routes_agree(systems, name):
    """Every applicable cli.ROUTES entry equals the operator route on each system.

    The route called name must apply to all of them, so none is skipped.
    """
    for degs in systems:
        d = DegreeVector(degs)
        applicable = [key for key, (applies, _) in ROUTES.items() if applies(d)]
        assert name in applicable, (name, degs)
        for key in applicable:
            for kind in KINDS:
                assert ROUTES[key][1](d, kind) == poincare_series(d, kind), (key, degs, kind)


def test_criterion_4_closed_forms():
    with criterion(4, "closed forms"):
        ones = [(1,) * n for n in range(1, 8)]
        twos = [(2,) * n for n in range(1, 7)]
        assert_routes_agree(ones + twos, "closedform")


def test_criterion_5_single_form():
    with criterion(5, "single form"):
        assert single_form_series(2, "invariants") == assemble([1], [(2, 1)])
        assert single_form_series(2, "covariants") == assemble([1], [(1, 1), (2, 1)])
        assert_routes_agree([(d,) for d in range(1, 9)], "single-form")


def test_criterion_6a_multisection_suite():
    with criterion(6, "a: multisection operator"):
        rng = random.Random(2026)
        terms = 40
        for _ in range(200):
            f = random_factored(rng)
            n = rng.randint(1, 6)
            assert factored_series(phi_factored(f, n), terms) == multisection(
                factored_series(f, terms * n), n
            )


def test_criterion_6b_diagonal_branches():
    with criterion(6, "b: diagonal operator branches"):
        rng = random.Random(777)
        count = 14
        seen = set()
        for _ in range(90):
            r = random_factored(rng, max_num_deg=4, max_factors=2, max_exp=3)
            n = rng.randint(1, 4)
            i = rng.randint(0, 2 * n)
            k = rng.randint(1, 3)
            seen.add((i > n) - (i < n))
            need = count * max(n - i, 0)
            reference = psi_diagonal(factored_series(r, need), i, k, n, count)
            assert factored_series(psi_term_factored(i, k, r, n), count) == reference, (i, k, n)
        assert seen == {-1, 0, 1}  # every branch exercised


def test_criterion_6c_recombination():
    with criterion(6, "c: partial fraction recombination"):
        for degs in SWEEP:
            beta = build_factored_gf(degs)
            pfd = partial_fractions(beta)
            assert recombined_biseries(pfd, 5, 10) == generating_function_biseries(
                beta, 5, 10
            ), degs


def test_criterion_7_structural_invariants():
    with criterion(7, "structural invariants"):
        for degs in SWEEP:
            d = DegreeVector(degs)
            beta = build_factored_gf(d)
            assert sum(beta.values()) == d.variable_count
            assert all(beta[e] == beta[2 * d.d_star - e] for e in beta)
            for m in range(7):
                span = m * d.d_star
                total = comb(m + d.variable_count - 1, d.variable_count - 1)
                assert sum(omega(d, m, i) for i in range(-span, span + 1)) == total
                assert all(
                    omega(d, m, i) == omega(d, m, -i) for i in range(span + 1)
                )
                assert all(gamma(d, m, k) >= 0 for k in range(span + 1))
                table = multiplicity_table(d, m)
                assert table.total() == total == table.expected_total()
