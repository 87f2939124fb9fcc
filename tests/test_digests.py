"""Every pinned result and CLI output against its committed digest.

``tests/data/result_digests.txt`` holds one line per key and the SHA-256 of
the key's canonical text:

- ``route/kind/degrees``: the repr of the result's
  ``(num.ints, num.denom, den.ints, den.denom)``;
- ``cli/...``: the repr of the ``(exit code, stdout, stderr)`` of each of the
  key's argv, run in order through ``cli.main``. No argv there has stderr
  that argparse writes, since its wording differs between Python versions.

A change that alters any series or any CLI byte shows up here by key.
Rebuild the table, after checking that the change is meant, with
``PYTHONPATH=src python tests/test_digests.py``.
"""

import contextlib
import hashlib
import io
from functools import partial
from pathlib import Path

from poincare_series.cli import main
from poincare_series.closedform import all_ones, all_twos
from poincare_series.counting import KINDS, degree_multisets
from poincare_series.springer import poincare_series, single_form_series

TABLE = Path(__file__).resolve().parent / "data" / "result_digests.txt"

LADDER_ANCHORS = [(1, 2, 3), (1, 2, 3, 4, 5), (3, 4, 5, 6), (8, 8), (12,), (10, 10)]
GROWTH = [
    (20,), (30,), (40,), (2,) * 14, (3,) * 8, (1,) * 13,
    (4, 5, 6, 7), (3, 3, 3, 3, 2, 2, 2, 2), (3, 4, 5, 6, 7),
]

CLI_KINDS = ("invariants", "covariants")
CLI_FORMATS = ("reduced", "factored", "series", "json")
CLI_METHODS = ("springer", "counting", "closedform", "all")
# every error here is written by cli itself, none by argparse
CLI_ERRORS = [
    ["--d", "0"], ["--d", "1_0"], ["--d", "2", "--truncate", "-1"], ["crosscheck", "--max-m", "-1"],
    ["crosscheck", "--max-n", "1"], ["--d", "2", "--method", "counting", "--format", "reduced"],
    ["--d", "1,2", "--method", "closedform"], ["golden-check", "no-such-corpus.txt"],
]


def _label(degs) -> str:
    return ",".join(map(str, degs))


def _compute_argvs(degs):
    """Every kind, format and method on degs; series and json also at --truncate 17."""
    argvs = []
    for kind in CLI_KINDS:
        for fmt in CLI_FORMATS:
            for method in CLI_METHODS:
                argv = ["--d", _label(degs), "--kind", kind, "--format", fmt, "--method", method]
                argvs.append(argv)
                if fmt in ("series", "json"):
                    argvs.append(argv + ["--truncate", "17"])
    return argvs


def result_text(route, arg, kind) -> str:
    f = route(arg, kind)
    return repr((f.num.ints, f.num.denom, f.den.ints, f.den.denom))


def cli_text(argvs) -> str:
    runs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        runs.append((code, out.getvalue(), err.getvalue()))
    return repr(runs)


def pinned():
    """key -> thunk giving its canonical text, for every pinned key, in table order."""
    out = {}
    for kind in KINDS:
        for degs in degree_multisets(14, 7) + LADDER_ANCHORS + GROWTH:
            out[f"poincare_series/{kind}/{_label(degs)}"] = partial(result_text, poincare_series, degs, kind)
        for d in range(1, 31):
            out[f"single_form_series/{kind}/{d}"] = partial(result_text, single_form_series, d, kind)
        for n in range(1, 15):
            out[f"all_ones/{kind}/{n}"] = partial(result_text, all_ones, n, kind)
            out[f"all_twos/{kind}/{n}"] = partial(result_text, all_twos, n, kind)
    for degs in degree_multisets(9, 4):
        out[f"cli/compute/{_label(degs)}"] = partial(cli_text, _compute_argvs(degs))
    for degs in [(20,), (30,), (4, 5, 6, 7)]:
        argvs = [["--d", _label(degs), "--kind", k, "--format", f] for k in CLI_KINDS for f in ("factored", "json")]
        out[f"cli/growth/{_label(degs)}"] = partial(cli_text, argvs)
    out["cli/golden-check"] = partial(cli_text, [["golden-check"]])
    out["cli/crosscheck"] = partial(cli_text, [["crosscheck"]])
    out["cli/errors"] = partial(cli_text, CLI_ERRORS)
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def computed() -> dict:
    return {key: digest(text()) for key, text in pinned().items()}


def committed() -> dict:
    lines = TABLE.read_text(encoding="ascii").splitlines()
    return dict(line.split(" ") for line in lines)


def test_table_covers_every_pinned_result():
    assert list(committed()) == list(pinned())


def test_every_result_matches_its_digest():
    table, now = committed(), computed()
    assert [key for key in table if now.get(key) != table[key]] == []


if __name__ == "__main__":
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("".join(f"{key} {value}\n" for key, value in computed().items()), encoding="ascii")
