"""Workload inputs, request execution and output checks.

Each workload turns a seed into a fixed list of requests. A seed changes
the order of the requests and a few choices from small pools, but not
the amount of work in a pass by much: over seeds 1 to 8, the summed
scaled latency of a pass differed by less than its pass-to-pass noise
(see README.md). That is what lets runs with different seeds be compared.

springer-ladder
    Library calls to ``poincare_series``, one per (system, kind), no
    repeats: six fixed anchors from (1,2,3) to (10,10), plus
    ``single_form_series(12, "invariants")``, plus four mixed systems the
    seed draws from LADDER_POOL, each with a seeded kind. The multiply
    kernel and the final reduction do most of the work; PFD, formatting,
    counting and the cache almost none. (10,10) is the largest input in
    every pass, so request_max_s is its latency. (20,), (16,) and
    (4,5,6,7) are left out: at about 14 s, 3.4 s and 4.2 s they would
    leave room for too few passes per run to give steady figures on a
    machine whose speed drifts by tens of percent.
equal-forms
    ``poincare_series`` on equal low-degree forms in both kinds, plus the
    ``all_ones``/``all_twos`` closed forms of the all-ones/all-twos
    systems, with n = EQUAL_ONES_N for the all-ones family, plus one
    mixture from EQUAL_MIXTURES in one kind; the seed picks the mixture,
    its kind and the order. Pole multiplicity up to n sends the work into
    the t-derivatives of the PFD, the psi derivative chain and summation;
    with d* <= 3 multisection stays cheap.
cli-session
    A closed loop with one client sending in-process ``cli.main``
    requests with stdout captured. Every (d, kind) of CLI_POOL is
    computed once, with a fixed format (reduced, factored, series, json in
    turn) and method (springer, or all for CLI_VERIFIED and CLI_ALL_EXTRA);
    the seed picks eight of them to repeat later (a third of the springer
    requests) in the reduced or series format, which only the in-process
    result cache serves. Six
    ``--method counting`` requests with ``--truncate`` CLI_COUNTING_TRUNCATE,
    one ``golden-check`` and one small ``crosscheck`` are placed at seeded
    positions. Formats, methods and the counting horizon are fixed so that
    every seed sends requests of the same cost; the seed picks the order,
    the repeats, the series horizons and the counting kinds. This is the only workload where output
    formatting, the counting DP, the closed-form and single-form
    verification and the result cache carry the time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shlex
from dataclasses import dataclass

# functions are looked up on these modules at call time, so that the
# tracer's patches apply to the benchmark's own calls too
import poincare_series as ps
from poincare_series import cli
from poincare_series.algebra import Poly, cross_equal, one_minus_z

WORKLOADS = ("springer-ladder", "equal-forms", "cli-session")

# coefficients of every library result compared with the counting route
COUNTING_PREFIX = 12

LADDER_ANCHORS = [
    ((1, 2, 3), "semiinvariants"),
    ((1, 2, 3, 4, 5), "semiinvariants"),
    ((3, 4, 5, 6), "invariants"),
    ((8, 8), "semiinvariants"),
    ((12,), "invariants"),
    ((10, 10), "invariants"),
]
# mixed systems of 0.03-0.15 s each, cheaper than every anchor but (1,2,3)
LADDER_POOL = [
    (2, 3, 4), (1, 3, 5), (1, 1, 2, 3), (3, 6), (2, 4, 5), (1, 4, 5),
    (3, 3, 4), (1, 2, 6), (2, 2, 5), (4, 6), (1, 2, 3, 3), (2, 5),
]
LADDER_EXTRAS = 4

EQUAL_TWOS_N = 12
EQUAL_FIXED = [(3, 3, 3, 3, 2, 2, 2, 2), (2,) * EQUAL_TWOS_N, (3,) * 5, (3,) * 4]
# two mixtures whose costs in either kind are within 15 % of each other
EQUAL_MIXTURES = [(3, 3, 2, 2, 1, 1, 1), (2, 2, 2, 2, 2, 2, 1, 1)]
EQUAL_ONES_N = 13

# moderate systems outside the crosscheck sweep (sum of d_k + 1 above 7)
# and outside the golden corpus, so that apart from two small systems both
# of those compute, only the deliberate repeats hit the cache
CLI_POOL = [
    ((2, 3, 4), "semiinvariants"),
    ((2, 3, 4), "invariants"),
    ((3, 6), "covariants"),
    ((1, 4, 5), "semiinvariants"),
    ((2, 2, 5), "invariants"),
    ((3, 5), "invariants"),
    ((4, 6), "kernel"),
    ((1, 2, 6), "invariants"),
    ((3, 3, 4), "semiinvariants"),
    ((1, 1, 2, 3), "kernel"),
    ((2, 4, 5), "invariants"),
    ((1, 3, 5), "covariants"),
]
# always verified with --method all: closed-form and single-form routes
CLI_VERIFIED = [
    ((1, 1, 1, 1, 1), "invariants"),
    ((2, 2, 2, 2), "invariants"),
    ((7,), "invariants"),
    ((8,), "covariants"),
]
# verified with --method all too, for the counting route on a moderate system
CLI_ALL_EXTRA = [((3, 6), "covariants"), ((2, 2, 5), "invariants")]
CLI_REPEATS = 8
CLI_COUNTING = [(1, 2, 4), (3, 4), (2, 5), (1, 1, 4), (2, 2, 3), (1, 6)]
CLI_COUNTING_TRUNCATE = 36
CLI_FORMATS = ("reduced", "factored", "series", "json")
# factored and json output factor the denominator anew on every call, so a
# repeat in those formats would cost more or less by which system the seed
# repeats; these two formats leave a repeat at the cost of the cache hit
CLI_REPEAT_FORMATS = ("reduced", "series")
CLI_CROSSCHECK = ["crosscheck", "--max-n", "7", "--max-deg", "4", "--max-m", "10"]


@dataclass(frozen=True)
class Request:
    """One call into the package: op is series, single_form, all_ones, all_twos or cli."""

    op: str
    args: tuple

    def label(self) -> str:
        if self.op == "cli":
            return "cli " + shlex.join(self.args)
        return f"{self.op}{self.args}"


def canonical_kind(kind: str) -> str:
    return "invariants" if kind == "invariants" else "semiinvariants"


def generate(workload: str, seed: int) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "springer-ladder":
        return _springer_ladder(rng)
    if workload == "equal-forms":
        return _equal_forms(rng)
    if workload == "cli-session":
        return _cli_session(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _springer_ladder(rng) -> list[Request]:
    requests = [Request("series", (d, kind)) for d, kind in LADDER_ANCHORS]
    requests.append(Request("single_form", (12, "invariants")))
    for d in rng.sample(LADDER_POOL, LADDER_EXTRAS):
        requests.append(Request("series", (d, rng.choice(("invariants", "semiinvariants")))))
    rng.shuffle(requests)
    return requests


def _equal_forms(rng) -> list[Request]:
    n = EQUAL_ONES_N
    kinds = ("semiinvariants", "invariants")
    requests = [Request("series", (d, kind)) for d in [*EQUAL_FIXED, (1,) * n] for kind in kinds]
    # one mixture in one kind makes the count odd, so that the median
    # latency falls inside one request's samples rather than between two
    requests.append(Request("series", (rng.choice(EQUAL_MIXTURES), rng.choice(kinds))))
    requests += [Request("all_ones", (n, kind)) for kind in kinds]
    requests += [Request("all_twos", (EQUAL_TWOS_N, kind)) for kind in kinds]
    rng.shuffle(requests)
    return requests


def _cli_argv(d, kind, fmt, method, truncate=None) -> list[str]:
    argv = ["--d", ",".join(map(str, d)), "--kind", kind, "--format", fmt, "--method", method]
    if truncate is not None:
        argv += ["--truncate", str(truncate)]
    return argv


def _cli_session(rng) -> list[Request]:
    fresh = CLI_POOL + CLI_VERIFIED
    verified = CLI_VERIFIED + CLI_ALL_EXTRA
    springer = []
    for i, (d, kind) in enumerate(fresh):
        fmt = CLI_FORMATS[i % len(CLI_FORMATS)]
        method = "all" if (d, kind) in verified else "springer"
        truncate = rng.randint(10, 30) if fmt in ("series", "json") else None
        springer.append(_cli_argv(d, kind, fmt, method, truncate))
    rng.shuffle(springer)
    # each repeat goes somewhere after the request it repeats
    session = list(springer)
    for i, argv in enumerate(rng.sample(springer, CLI_REPEATS)):
        d, kind = argv[1], argv[3]
        fmt = CLI_REPEAT_FORMATS[i % len(CLI_REPEAT_FORMATS)]
        truncate = rng.randint(10, 30) if fmt == "series" else None
        repeat = ["--d", d, "--kind", kind, "--format", fmt, "--method", "springer"]
        if truncate is not None:
            repeat += ["--truncate", str(truncate)]
        first = session.index(argv)
        session.insert(rng.randint(first + 1, len(session)), repeat)
    others = [
        _cli_argv(d, rng.choice(("invariants", "semiinvariants")), rng.choice(("series", "json")),
                  "counting", CLI_COUNTING_TRUNCATE)
        for d in CLI_COUNTING
    ]
    others += [["golden-check"], list(CLI_CROSSCHECK)]
    for argv in others:
        session.insert(rng.randint(0, len(session)), argv)
    return [Request("cli", tuple(argv)) for argv in session]


# execution


def execute(request: Request):
    """Run one request; returns the library result, or (exit code, stdout) for the CLI."""
    op, args = request.op, request.args
    if op == "series":
        return ps.poincare_series(*args)
    if op == "single_form":
        return ps.single_form_series(*args)
    if op == "all_ones":
        return ps.all_ones(*args)
    if op == "all_twos":
        return ps.all_twos(*args)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue()


def output_text(request: Request, result) -> str:
    """The bytes a request produced, for the per-pass output digest."""
    if request.op == "cli":
        code, stdout = result
        return f"exit {code}\n{stdout}"
    return f"{[str(c) for c in result.num.coeffs]} / {[str(c) for c in result.den.coeffs]}\n"


# checks, run after the timed region


def check(request: Request, result) -> str | None:
    """None if the output is right, otherwise a one-line reason."""
    op, args = request.op, request.args
    if op == "series":
        d, kind = args
        return _counting_mismatch(result, d, kind)
    if op == "single_form":
        d, kind = args
        return _counting_mismatch(result, (d,), canonical_kind(kind))
    if op in ("all_ones", "all_twos"):
        n, kind = args
        degree = 1 if op == "all_ones" else 2
        if result != ps.poincare_series((degree,) * n, kind):
            return "closed form differs from poincare_series"
        return None
    return _check_cli(list(args), result)


def _counting_mismatch(f, d, kind) -> str | None:
    series = f.expand(COUNTING_PREFIX)
    dims = [ps.dimension(d, m, kind) for m in range(COUNTING_PREFIX + 1)]
    if series != dims:
        return f"first {COUNTING_PREFIX + 1} coefficients differ from counting.dimension"
    return None


def _option(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _check_cli(argv: list[str], result) -> str | None:
    code, stdout = result
    if code != 0:
        return f"exit code {code}"
    if argv[0] in ("golden-check", "crosscheck"):
        lines = stdout.splitlines()
        if not lines or not lines[-1].endswith(" 0 failures"):
            return f"{argv[0]} summary reports failures"
        if any(line.startswith("FAIL") for line in lines):
            return f"{argv[0]} has a FAIL line"
        return None
    degrees = tuple(int(p) for p in _option(argv, "--d").split(","))
    kind = canonical_kind(_option(argv, "--kind"))
    fmt = _option(argv, "--format")
    method = _option(argv, "--method")
    truncate = _option(argv, "--truncate")
    # the series cache hands back the object the CLI printed, so checking
    # against it alone would only test formatting; counting is independent
    f = ps.poincare_series(degrees, kind)
    mismatch = _counting_mismatch(f, degrees, kind)
    if mismatch is not None:
        return mismatch
    horizon = int(truncate) if truncate is not None else 10
    if fmt == "json":
        obj = json.loads(stdout)
        if method == "counting":
            return None if obj["series"] == f.expand(horizon) else "counting series differs"
        den = Poly(obj.get("denominator_remainder", [1]))
        for a, e in obj["denominator_factors"]:
            den = den * one_minus_z(a) ** e
        if not cross_equal(f.num, f.den, Poly(obj["numerator"]), den):
            return "json numerator/denominator differ from the library result"
        if truncate is not None and obj["series"] != f.expand(horizon):
            return "json series differs"
        if method == "all" and not all(obj["checks"].values()):
            return "a --method all check failed"
        return None
    lines = stdout.rstrip("\n").split("\n")
    checks = [line for line in lines if line.startswith("check ")]
    body = lines[: len(lines) - len(checks)]
    if method == "all" and (not checks or not all(line.endswith(": ok") for line in checks)):
        return "a --method all check failed"
    if fmt == "series":
        values = [int(v) for v in body[0].split()]
        return None if values == f.expand(horizon) else "series differs"
    if fmt == "reduced":
        num = Poly([int(v) for v in body[0].removeprefix("num = ").split()])
        den = Poly([int(v) for v in body[1].removeprefix("den = ").split()])
    else:
        num, den = _parse_factored(body[0])
    if not cross_equal(f.num, f.den, num, den):
        return f"{fmt} output differs from the library result"
    return None


_TERM = re.compile(r"^(-?)(\d*)(z(?:\^(\d+))?)?$")
_FACTOR = re.compile(r"\(1-z(?:\^(\d+))?\)(?:\^(\d+))?")
_DENOMINATOR = re.compile(r"^(?:(-?\d+) ?)?((?:\(1-z(?:\^\d+)?\)(?:\^\d+)? ?)*)(?:\((.+)\))?$")


def _parse_poly(text: str) -> Poly:
    """Inverse of Poly.to_string for integer coefficients."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        m = _TERM.match(term)
        if m is None:
            raise ValueError(f"unparsable term {term!r}")
        sign, digits, var, exp = m.groups()
        value = int(digits) if digits else 1
        power = 0 if var is None else int(exp) if exp else 1
        coeffs[power] = -value if sign else value
    return Poly([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


def _parse_factored(text: str) -> tuple[Poly, Poly]:
    """Numerator and denominator of a ``--format factored`` line."""
    num_text, _, den_text = text.partition(" / ")
    if num_text.startswith("(") and num_text.endswith(")"):
        num_text = num_text[1:-1]
    num = _parse_poly(num_text)
    den = Poly([1])
    if den_text:
        m = _DENOMINATOR.match(den_text)
        if m is None:
            raise ValueError(f"unparsable denominator {den_text!r}")
        constant, factors, remainder = m.groups()
        if constant is not None:
            den = den * int(constant)
        for a, e in _FACTOR.findall(factors):
            den = den * one_minus_z(int(a or 1)) ** int(e or 1)
        if remainder is not None:
            den = den * _parse_poly(remainder)
    return num, den
