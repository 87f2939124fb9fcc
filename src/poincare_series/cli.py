"""Command line front end.

Default invocation computes one series:

    poincare-series --d 1,2,3 --kind kernel --format reduced

Subcommands replay the shipped golden corpus (golden-check) or sweep all
small degree systems comparing the independent computation routes
(crosscheck). Exit codes: 0 success, 1 usage error, 2 verification
failure. Identical requests produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .algebra import Poly, RatFun, _binomial_passes, _factor_text, _series_ints
from .closedform import applicable as closedform_applicable
from .closedform import for_degree_vector as closedform_series
from .counting import KIND_CHOICES, KINDS, DegreeVector, canonical_kind, degree_multisets, dimensions
from .golden import CorpusError, check_corpus, shipped_corpus_path
from .springer import poincare_series, single_form_series

PROG = "poincare-series"
METHOD_CHOICES = ("springer", "counting", "closedform", "all")
FORMAT_CHOICES = ("reduced", "factored", "series", "json")
DEFAULT_TRUNCATE = 10

# subcommand -> (help, {argument: argparse keywords}). build_parser adds every
# argument from here, and _plain_args parses the common argv by the same entries
COMMANDS = {
    "compute": ("compute one Poincare series (default)", {
        "--d": {"required": True, "help": "comma-separated form degrees, e.g. 1,2,3"},
        "--kind": {"choices": KIND_CHOICES, "default": "semiinvariants"},
        "--method": {"choices": METHOD_CHOICES, "default": "springer"},
        "--format": {"choices": FORMAT_CHOICES, "default": "reduced"},
        "--truncate": {"type": int, "default": None, "help": "series length for series output"},
    }),
    "golden-check": ("replay the golden corpus", {"path": {"nargs": "?", "default": None}}),
    "crosscheck": ("compare computation routes on small systems", {
        "--max-n": {"type": int, "default": 8},
        "--max-deg": {"type": int, "default": 4},
        "--max-m": {"type": int, "default": 10},
    }),
}

# the exact routes checked against the operator route, after counting and
# in this order: name -> (applies to d, series for d and a kind)
ROUTES = {
    "closedform": (closedform_applicable, closedform_series),
    "single-form": (lambda d: d.size == 1, single_form_series),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class UsageError(Exception):
    pass


def _parse_degrees(text: str) -> DegreeVector:
    parts = [p.strip() for p in text.split(",")]
    # int() would also take "1_0", "+3" and non-ASCII digits such as "٣"
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise UsageError(f"malformed degree vector {text!r}")
    try:
        return DegreeVector(tuple(map(int, parts)))
    except ValueError as exc:
        raise UsageError(f"malformed degree vector {text!r}: {exc}") from None


def _integer_parts(f: RatFun):
    """num and den of a route result as int lists, scaled so that den starts with 1.

    Every route's series counts dimensions, so its result is an integer
    numerator over a monic integer denominator with constant term +-1.
    """
    num, den = f.num, f.den
    if num.denom != 1 or den.denom != 1 or den.ints[0] not in (1, -1):
        raise ArithmeticError("not an integer numerator over an integer denominator with den(0) = +-1")
    sign = den.ints[0]
    return [sign * c for c in num.ints], [sign * c for c in den.ints]


def greedy_factor(den: list):
    """Split a denominator int list into (1 - z^a) factors, a descending, plus a remainder list."""
    factors: dict[int, int] = {}
    rem = den
    for a in range(len(den) - 1, 0, -1):
        # 1 - z^a divides rem only if rem vanishes at every a-th root of unity,
        # so only if the coefficients at multiples of a sum to zero
        while len(rem) > a and not sum(rem[::a]) and (q := _binomial_passes(rem, (), (a,))) is not None:
            factors[a] = factors.get(a, 0) + 1
            rem = q
    return factors, rem


def _display_parts(f: RatFun):
    """Numerator, sorted greedy (1 - z^a) factors and remainder of a route result, on int lists.

    The remainder keeps the constant term 1 of the denominator.
    """
    num, den = _integer_parts(f)
    factors, rem = greedy_factor(den)
    return num, sorted(factors.items()), rem


def _ints_text(values) -> str:
    return " ".join(str(v) for v in values)


def format_reduced(f: RatFun) -> str:
    num_ints, den_ints = _integer_parts(f)
    return f"num = {_ints_text(num_ints)}\nden = {_ints_text(den_ints)}"


def format_factored(f: RatFun) -> str:
    num_ints, factors, rem_ints = _display_parts(f)
    num_text = Poly(num_ints).to_string()
    if len(num_ints) - num_ints.count(0) > 1:
        num_text = f"({num_text})"
    den_parts = [_factor_text(factors)] if factors else []
    if len(rem_ints) > 1:
        den_parts.append(f"({Poly(rem_ints).to_string()})")
    if not den_parts:
        return num_text
    return f"{num_text} / {' '.join(den_parts)}"


def _emit_result(d: DegreeVector, args, f: RatFun, checks=None) -> str:
    if args.format == "series":
        truncate = args.truncate if args.truncate is not None else DEFAULT_TRUNCATE
        body = _ints_text(_series_ints(*_integer_parts(f), truncate))
    elif args.format == "reduced":
        body = format_reduced(f)
    elif args.format == "factored":
        body = format_factored(f)
    else:
        num_ints, factors, rem_ints = _display_parts(f)
        obj = {
            "d": list(d.degrees),
            "kind": args.kind,
            "method": args.method,
            "numerator": num_ints,
            "denominator_factors": [[a, e] for a, e in factors],
        }
        if len(rem_ints) > 1:
            obj["denominator_remainder"] = rem_ints
        if args.truncate is not None:
            obj["series"] = _series_ints(*_integer_parts(f), args.truncate)
        if checks is not None:
            obj["checks"] = checks
        return json.dumps(obj)
    if checks is not None:
        body += "".join(f"\ncheck {name}: {'ok' if ok else 'MISMATCH'}" for name, ok in checks.items())
    return body


def _run_counting(d: DegreeVector, args, kind: str) -> str:
    if args.format in ("reduced", "factored"):
        raise UsageError("method=counting produces series output only; use --format series or json")
    truncate = args.truncate if args.truncate is not None else DEFAULT_TRUNCATE
    dims = dimensions(d, truncate, kind)
    if args.format == "series":
        return _ints_text(dims)
    return json.dumps(
        {"d": list(d.degrees), "kind": args.kind, "method": "counting", "series": dims}
    )


def _route_checks(d: DegreeVector, kind: str, f: RatFun, horizon: int) -> dict:
    """name -> whether f agrees: counting on degrees 0..horizon, each applicable route exactly."""
    checks = {"counting": _series_ints(*_integer_parts(f), horizon) == dimensions(d, horizon, kind)}
    for name, (applies, route) in ROUTES.items():
        if applies(d):
            checks[name] = route(d, kind) == f
    return checks


def run_compute(args) -> int:
    d = _parse_degrees(args.d)
    kind = canonical_kind(args.kind)
    if args.method == "counting":
        print(_run_counting(d, args, kind))
        return 0
    if args.method == "closedform":
        applies, route = ROUTES["closedform"]
        if not applies(d):
            raise UsageError("method=closedform covers all-ones and all-twos systems only")
        print(_emit_result(d, args, route(d, kind)))
        return 0
    f = poincare_series(d, kind)
    if args.method == "springer":
        print(_emit_result(d, args, f))
        return 0
    horizon = args.truncate if args.truncate is not None else DEFAULT_TRUNCATE
    checks = _route_checks(d, kind, f, horizon)
    print(_emit_result(d, args, f, checks))
    if not all(checks.values()):
        bad = ", ".join(name for name, ok in checks.items() if not ok)
        print(f"verification failure: {bad}", file=sys.stderr)
        return 2
    return 0


def run_golden_check(path: str | None) -> int:
    corpus_path = path if path is not None else shipped_corpus_path()
    try:
        with open(corpus_path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read corpus: {exc}") from None
    failures = check_corpus(text)
    return 2 if failures else 0


def run_crosscheck(max_n: int, max_deg: int, max_m: int) -> int:
    """Run the route checks on every small system in both kinds; 0 iff all agree.

    A sweep with no system is a usage error, not a pass.
    """
    systems = degree_multisets(max_n, max_deg)
    if not systems:
        raise UsageError(f"no degree system has sum(d_k + 1) <= {max_n} and d_k <= {max_deg}")
    failures = 0
    for degs in systems:
        d = DegreeVector(degs)
        problems = []
        for kind in KINDS:
            checks = _route_checks(d, kind, poincare_series(d, kind), max_m)
            problems += [f"{name} kind={kind}" for name, ok in checks.items() if not ok]
        label = ",".join(map(str, degs))
        if problems:
            failures += 1
            print(f"FAIL  d={label}  ({'; '.join(problems)})")
        else:
            print(f"PASS  d={label}")
    print(f"crosscheck: {len(systems)} systems, {failures} failures")
    return 2 if failures else 0


def _plain_args(argv: list):
    """Namespace of a subcommand followed only by exact long options, each with a value.

    No value may start with "-". Any other argv, and any value that argparse
    would reject, gives None: argparse parses those, so it alone writes help,
    usage and error text.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    specs = COMMANDS[argv[0]][1]
    values = {name: spec.get("default") for name, spec in specs.items()}
    for flag, text in zip(argv[1::2], argv[2::2]):
        spec = specs.get(flag) if flag.startswith("--") else None
        if spec is None or text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[flag] = value
    if any(spec.get("required") and flag not in argv[1::2] for flag, spec in specs.items()):
        return None
    # each attribute named as argparse names it: "--max-n" -> max_n, "path" -> path
    return argparse.Namespace(
        command=argv[0], **{name.lstrip("-").replace("-", "_"): v for name, v in values.items()}
    )


# argparse keeps no state between parses, so one parser serves every request
@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, specs) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for name, spec in specs.items():
            command_parser.add_argument(name, **spec)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in (*COMMANDS, "-h", "--help"):
        argv = ["compute"] + argv
    args = _plain_args(argv)
    if args is None:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        if args.command is None:
            parser.print_usage(sys.stderr)
            print(f"{PROG}: error: no request given", file=sys.stderr)
            return 1
    try:
        if args.command == "compute":
            if args.truncate is not None and args.truncate < 0:
                raise UsageError("--truncate must be nonnegative")
            return run_compute(args)
        if args.command == "golden-check":
            return run_golden_check(args.path)
        if args.max_m < 0:
            raise UsageError("--max-m must be nonnegative")
        return run_crosscheck(args.max_n, args.max_deg, args.max_m)
    except (UsageError, CorpusError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"{PROG}: error: out of memory", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
