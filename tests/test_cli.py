import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_series import algebra, cli
from poincare_series.algebra import ONE, Poly, RatFun, one_minus_z
from poincare_series.cli import format_factored, format_reduced, greedy_factor, main
from poincare_series.counting import DegreeVector, degree_multisets
from poincare_series.springer import _poincare_cached, poincare_series

from _oracles import ref_greedy_factor

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestComputeOutputs:
    def test_factored_two_linear_forms(self, capsys):
        rc, out, err = run(capsys, "--d", "1,1", "--kind", "covariants", "--format", "factored")
        assert (rc, err) == (0, "")
        assert out == "1 / (1-z)^2 (1-z^2)\n"

    def test_series_single_quadratic(self, capsys):
        rc, out, err = run(
            capsys, "--d", "2", "--kind", "invariants", "--format", "series", "--truncate", "6"
        )
        assert (rc, err) == (0, "")
        assert out == "1 0 1 0 1 0 1\n"

    def test_reduced_mixed_system(self, capsys):
        rc, out, _ = run(capsys, "--d", "1,2,3", "--kind", "semiinvariants")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "num = 1 1 6 12 20 29 35 39 35 29 20 12 6 1 1"
        assert lines[1].startswith("den = 1 -2 0 0 1 3 -1 0 -5")

    def test_explicit_compute_word_is_optional(self, capsys):
        rc1, out1, _ = run(capsys, "compute", "--d", "2", "--format", "series")
        rc2, out2, _ = run(capsys, "--d", "2", "--format", "series")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_kind_aliases_share_series(self, capsys):
        outs = []
        for kind in ("semiinvariants", "covariants", "kernel"):
            rc, out, _ = run(capsys, "--d", "2,1", "--kind", kind, "--format", "series")
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_byte_determinism(self, capsys):
        argv = ("--d", "2,2,1", "--format", "json", "--truncate", "8")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestJsonOutput:
    def test_round_trip(self, capsys):
        rc, out, _ = run(capsys, "--d", "1,2,3", "--format", "json")
        assert rc == 0
        obj = json.loads(out)
        assert list(obj) == ["d", "kind", "method", "numerator", "denominator_factors"]
        assert obj["d"] == [3, 2, 1]
        den = ONE
        for a, e in obj["denominator_factors"]:
            den = den * one_minus_z(a) ** e
        rebuilt = RatFun(Poly(obj["numerator"]), den)
        assert rebuilt == poincare_series((1, 2, 3), "semiinvariants")

    def test_series_key_only_when_truncated(self, capsys):
        rc, out, _ = run(capsys, "--d", "1,2,3", "--format", "json", "--truncate", "4")
        obj = json.loads(out)
        assert obj["series"] == [1, 3, 12, 36, 91]
        assert list(obj)[-1] == "series"

    def test_kind_field_echoes_request(self, capsys):
        rc, out, _ = run(capsys, "--d", "1", "--kind", "kernel", "--format", "json")
        assert json.loads(out)["kind"] == "kernel"

    def test_counting_json(self, capsys):
        rc, out, _ = run(
            capsys, "--d", "2", "--kind", "invariants", "--method", "counting",
            "--format", "json", "--truncate", "6",
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["method"] == "counting"
        assert obj["series"] == [1, 0, 1, 0, 1, 0, 1]


class TestNoFractionSeries:
    """Series output runs the integer recurrence on num/den: no Fraction per coefficient."""

    @pytest.mark.parametrize("fmt", ["series", "json"])
    @pytest.mark.parametrize("d", ["4,5,6,7", "10,10", "2,2,2,2"])
    def test_long_series_builds_no_fraction(self, capsys, monkeypatch, d, fmt):
        argv = ("--d", d, "--kind", "invariants", "--format", fmt, "--truncate", "500")
        rc, before, _ = run(capsys, *argv)
        assert rc == 0
        want = [int(c) for c in poincare_series(tuple(map(int, d.split(","))), "invariants").expand(500)]
        series = before.split() if fmt == "series" else json.loads(before)["series"]
        assert [int(c) for c in series] == want

        def forbidden(*args):
            raise AssertionError("Fraction built for series output")

        # the route runs again, uncached, with no Fraction either
        _poincare_cached.cache_clear()
        monkeypatch.setattr(algebra, "Fraction", forbidden)
        assert run(capsys, *argv) == (0, before, "")


class TestMethodRouting:
    def test_method_all_reports_checks(self, capsys):
        rc, out, _ = run(
            capsys, "--d", "2,2", "--method", "all", "--format", "series", "--truncate", "8"
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "1 2 7 12 26 40 70 100 155"
        assert "check counting: ok" in lines
        assert "check closedform: ok" in lines

    def test_method_all_single_form_check(self, capsys):
        rc, out, _ = run(capsys, "--d", "3", "--method", "all", "--format", "json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["checks"] == {"counting": True, "single-form": True}

    def test_closedform_route(self, capsys):
        rc, out, _ = run(capsys, "--d", "1,1,1", "--method", "closedform", "--format", "factored")
        assert rc == 0
        assert out == "(1 + z + z^2) / (1-z)^2 (1-z^2)^3\n"

    def test_counting_series_matches_springer(self, capsys):
        _, counted, _ = run(
            capsys, "--d", "3,1", "--method", "counting", "--format", "series", "--truncate", "7"
        )
        _, operator, _ = run(
            capsys, "--d", "3,1", "--method", "springer", "--format", "series", "--truncate", "7"
        )
        assert counted == operator


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--d", "1,x"),
            ("--d", "0"),
            ("--d", "-2"),
            ("--d", ""),
            ("--d", "2", "--kind", "nope"),
            ("--d", "2", "--method", "counting", "--format", "reduced"),
            ("--d", "1,2", "--method", "closedform"),
            ("--d", "2", "--truncate", "-3"),
            ("--no-such-flag",),
            (),
            # int() takes these, but a degree is ASCII digits only
            ("--d", "1_0"),
            ("--d", "+3"),
            ("--d", "\u0663"),
            ("--d", "\uff12"),
            ("--d", "1,\u00b2"),
        ],
    )
    def test_exit_code_one(self, capsys, argv):
        rc = main(list(argv))
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err != ""
        if argv[:1] == ("--d",) and len(argv) == 2:
            assert "malformed degree vector" in captured.err

    def test_missing_corpus_file(self, capsys):
        rc, _, err = run(capsys, "golden-check", "/no/such/corpus.txt")
        assert rc == 1
        assert "cannot read corpus" in err

    def test_golden_check_non_utf8_file(self, tmp_path, capsys):
        p = tmp_path / "binary.txt"
        p.write_bytes(b"\xff")
        rc, _, err = run(capsys, "golden-check", str(p))
        assert rc == 1
        assert "cannot read corpus" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv", [("--max-n", "-1"), ("--max-n", "1"), ("--max-deg", "0")]
    )
    def test_empty_crosscheck_sweep_rejected(self, capsys, argv):
        rc, out, err = run(capsys, "crosscheck", *argv)
        assert rc == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("poincare-series: error: ")

    def test_negative_max_m_rejected(self, capsys):
        rc, out, err = run(capsys, "crosscheck", "--max-m", "-1")
        assert rc == 1
        assert out == ""
        assert "--max-m must be nonnegative" in err

    @pytest.mark.parametrize(
        "target, argv",
        [
            ("dimensions", ("--d", "1,2", "--method", "counting", "--format", "series", "--truncate", "3")),
            ("poincare_series", ("--d", "1,2")),
        ],
    )
    def test_out_of_memory_is_one_message(self, capsys, monkeypatch, target, argv):
        # stands in for a request too large to hold, such as counting (1,2) to 3,000,000
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, target, exhausted)
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (1, "", "poincare-series: error: out of memory\n")


class TestParserReuse:
    """main builds its parser once; a failed parse leaves nothing behind in it."""

    SEQUENCES = [
        [("--d", "2", "--format", "series"), ("--d", "2", "--kind", "nope"), ("--d", "1,1")],
        [("--d", "1,2", "--format", "json"), ("--no-such-flag",), ("--d", "1,2", "--format", "json")],
        [("--d", "3", "--truncate", "4"), ("--d", "3", "--truncate", "x"), ("--d", "3", "--format", "series")],
        [("crosscheck", "--max-n", "4"), ("crosscheck", "--max-n", "q"), ("crosscheck", "--max-n", "4")],
        [("--d", "2"), ("compute",), ("golden-check",)],
    ]

    @pytest.mark.parametrize("sequence", SEQUENCES)
    def test_failed_parse_between_good_requests(self, capsys, sequence):
        cli.build_parser.cache_clear()
        shared = [run(capsys, *argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        assert [rc for rc, _, _ in shared] == [0, 1, 0]
        assert shared[1][2].startswith("usage: poincare-series")

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_common_requests_build_no_parser(self, capsys):
        # every request form that perfbench's CLI workload sends parses without argparse
        requests = [
            ("--d", "1,2,3", "--kind", kind, "--format", fmt, "--method", method, *tail)
            for kind, fmt, tail in [
                ("invariants", "reduced", ()),
                ("semiinvariants", "factored", ()),
                ("invariants", "series", ("--truncate", "12")),
                ("semiinvariants", "json", ("--truncate", "20")),
            ]
            for method in ("springer", "all")
        ]
        requests += [("golden-check",), ("crosscheck", "--max-n", "7", "--max-deg", "4", "--max-m", "10")]
        cli.build_parser.cache_clear()
        assert [run(capsys, *argv)[0] for argv in requests] == [0] * len(requests)
        assert cli.build_parser.cache_info().misses == 0


class TestGoldenCheckCommand:
    def test_shipped_corpus_passes(self, capsys):
        rc, out, _ = run(capsys, "golden-check")
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1] == "golden-check: 12 records, 0 failures"
        assert sum(1 for line in lines if line.startswith("PASS")) == 12

    def test_empty_corpus_rejected(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing here\n")
        rc, out, err = run(capsys, "golden-check", str(p))
        assert rc == 1
        assert out == ""
        assert err == "poincare-series: error: corpus contains no records\n"

    def test_corpus_with_byte_order_mark(self, tmp_path, capsys):
        p = tmp_path / "bom.txt"
        record = "d=2; kind=invariants; num=1; den=(2,1); sign_insensitive=false\n"
        p.write_text(record, encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        rc, out, err = run(capsys, "golden-check", str(p))
        assert (rc, err) == (0, "")
        assert [line for line in out.splitlines() if line.startswith("PASS")] == ["PASS  d=2 kind=invariants"]

    def test_perturbed_record_fails(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("d=2; kind=invariants; num=2; den=(2,1); sign_insensitive=false\n")
        rc, out, _ = run(capsys, "golden-check", str(p))
        assert rc == 2
        assert "FAIL" in out
        assert out.splitlines()[-1] == "golden-check: 1 records, 1 failures"

    def test_malformed_record_reports_line(self, tmp_path, capsys):
        p = tmp_path / "broken.txt"
        p.write_text("# comment\nd=2; kind=invariants; num=1\n")
        rc, _, err = run(capsys, "golden-check", str(p))
        assert rc == 1
        assert "line 2" in err


class TestCrosscheckCommand:
    def test_small_sweep_passes(self, capsys):
        rc, out, _ = run(capsys, "crosscheck", "--max-n", "5", "--max-deg", "3", "--max-m", "6")
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1].startswith("crosscheck: ")
        assert lines[-1].endswith("0 failures")
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_degree_multisets_enumeration(self):
        got = degree_multisets(4, 3)
        assert got == [(1,), (2,), (3,), (1, 1)]
        sweep = degree_multisets(8, 4)
        assert len(sweep) == 17
        assert (2, 2, 1) in sweep
        assert (3, 2, 1) not in sweep  # needs nine variables, over the budget of eight


class TestBrokenRoute:
    """A route that disagrees is reported by name and exits 2, in both commands."""

    @pytest.fixture(params=sorted(cli.ROUTES))
    def broken(self, request, monkeypatch):
        applies, _ = cli.ROUTES[request.param]
        # P(0) = 1 for every series, so the constant 2 never agrees
        wrong = RatFun(Poly([2]), ONE)
        monkeypatch.setitem(cli.ROUTES, request.param, (applies, lambda d, kind: wrong))
        return request.param

    def test_method_all_reports_mismatch(self, capsys, broken):
        # (1,) is both a single form and an all-ones system
        rc, out, err = run(capsys, "--d", "1", "--method", "all")
        assert rc == 2
        assert f"check {broken}: MISMATCH" in out.splitlines()
        assert "check counting: ok" in out.splitlines()
        assert err == f"verification failure: {broken}\n"

    def test_series_output_reports_mismatch(self, capsys, broken):
        # the series is printed from the operator route's num/den; the check
        # lines still name the route that disagrees
        rc, out, err = run(capsys, "--d", "1", "--method", "all", "--format", "series", "--truncate", "30")
        assert rc == 2
        assert out.splitlines()[0] == " ".join(["1"] * 31)
        assert f"check {broken}: MISMATCH" in out.splitlines()
        assert err == f"verification failure: {broken}\n"

    def test_crosscheck_names_failing_route(self, capsys, broken):
        rc, out, _ = run(capsys, "crosscheck", "--max-n", "4", "--max-deg", "3")
        assert rc == 2
        lines = out.splitlines()
        assert f"FAIL  d=1  ({broken} kind=invariants; {broken} kind=semiinvariants)" in lines
        assert any(line.startswith("PASS") for line in lines)
        assert not lines[-1].endswith(" 0 failures")


def long_division_greedy_factor(den: Poly):
    """greedy_factor by long division: each a from deg den down to 1, while 1 - z^a divides."""
    factors, rem = {}, den
    for a in range(den.degree, 0, -1):
        while rem.degree >= a:
            q, r = divmod(rem, one_minus_z(a))
            if r:
                break
            factors[a] = factors.get(a, 0) + 1
            rem = q
    return factors, list(rem.ints)


class TestFormattingHelpers:
    def test_greedy_factor_known_product(self):
        den = one_minus_z(1) * one_minus_z(2) ** 2
        factors, rem = greedy_factor(list(den.ints))
        assert factors == {2: 2, 1: 1}
        assert rem == [1]

    def test_greedy_factor_irreducible_remainder(self):
        factors, rem = greedy_factor([1, 1, 1])
        assert factors == {}
        assert rem == [1, 1, 1]

    @given(
        st.lists(st.tuples(st.integers(1, 7), st.integers(1, 3)), max_size=4),
        st.lists(st.integers(-3, 3), max_size=4),
    )
    @settings(deadline=None, max_examples=150)
    def test_greedy_factor_matches_long_division(self, cover, tail):
        # a cover prod (1 - z^a)^e times a small remainder with constant term 1
        den = Poly([1, *tail])
        for a, e in cover:
            den = den * one_minus_z(a) ** e
        factors, rem = greedy_factor(list(den.ints))
        assert (factors, rem) == long_division_greedy_factor(den)
        assert rem[0] == 1
        assert prod((one_minus_z(a) ** e for a, e in factors.items()), start=Poly(rem)) == den

    @pytest.mark.parametrize(
        "systems",
        [degree_multisets(12, 6), [(20,), (30,), (40,), (4, 5, 6, 7), (3, 4, 5, 6, 7)]],
        ids=["small", "growth"],
    )
    def test_greedy_factor_pretest_changes_nothing(self, systems):
        # greedy_factor skips the trial of 1 - z^a when the coefficients at
        # multiples of a do not sum to zero; every result stays as without it
        for degs in systems:
            for kind in ("invariants", "semiinvariants"):
                _, den = cli._integer_parts(poincare_series(degs, kind))
                assert greedy_factor(den) == ref_greedy_factor(den), (degs, kind)

    def test_greedy_factor_trial_after_zero_residue_sum(self, monkeypatch):
        # at a = 2 the coefficients 1 and -1 of 1 + z - z^2 at z^0 and z^2 sum
        # to zero, yet 1 - z^2 does not divide it: the full trial must reject it
        tried = []

        def passes(ints, times, over):
            tried.append(over)
            return algebra._binomial_passes(ints, times, over)

        monkeypatch.setattr(cli, "_binomial_passes", passes)
        assert greedy_factor([1, 1, -1]) == ({}, [1, 1, -1]) == ref_greedy_factor([1, 1, -1])
        assert tried == [(2,)]

    def test_format_factored_remainder_display(self):
        f = RatFun(ONE, Poly([1, 1, 1]))
        assert format_factored(f) == "1 / (1 + z + z^2)"

    def test_format_factored_constant(self):
        assert format_factored(RatFun(Poly([3]))) == "3"

    def test_non_integer_result_rejected(self):
        # every route's result counts dimensions: an integer numerator over a
        # monic integer denominator with constant term +-1; anything else is
        # a fault, not a case to display
        args = argparse.Namespace(kind="invariants", method="springer", format="json", truncate=None)
        for f in (RatFun(Poly([Fraction(1, 2)]), one_minus_z(1)), RatFun(ONE, Poly([2, 1]))):
            for show in (format_reduced, format_factored, lambda f: cli._emit_result(DegreeVector((1,)), args, f)):
                with pytest.raises(ArithmeticError):
                    show(f)


def checkout_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def console_script(name):
    """Command and environment that run the console script ``name``.

    The installed script when it is on PATH. Otherwise its
    ``[project.scripts]`` target from pyproject.toml, called by this
    interpreter with ``src`` on PYTHONPATH, as from a plain checkout.
    """
    path = shutil.which(name)
    if path:
        return [path], None
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(rf'^{re.escape(name)}\s*=\s*"([\w.]+):(\w+)"', scripts, re.M)
    module, func = target.groups()
    return [sys.executable, "-c", f"from {module} import {func}; {func}()"], checkout_env()


class TestInstalledScript:
    def test_console_entry_point(self):
        command, env = console_script("poincare-series")
        proc = subprocess.run(
            command + ["--d", "1,1", "--kind", "covariants", "--format", "factored"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == b"1 / (1-z)^2 (1-z^2)\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "poincare_series", "--d", "2", "--format", "series"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().split() == ["1", "1", "2", "2", "3", "3", "4", "4", "5", "5", "6"]
