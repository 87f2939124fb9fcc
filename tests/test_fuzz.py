"""Fuzzing of the command line and the corpus parser.

Any argument vector ends in exit code 0, 1 or 2, never in an exception;
whenever the plain-argv parse of ``cli.main`` accepts one, it gives the
Namespace that argparse gives; and the corpus parser rejects malformed
text only with CorpusError.
Degrees stay at most 4 and every count at most 8, so each example runs
in milliseconds.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincare_series import cli
from poincare_series.cli import main
from poincare_series.golden import CorpusError, parse_corpus

DEGREES = ["1", "2", "4", "2,1", "1,1,1", "3,2", "2,2", "1,,2", "-1", "a", "0", "", "1,x"]
FLAG_VALUES = {
    "--d": st.sampled_from(DEGREES),
    "--kind": st.sampled_from(["invariants", "semiinvariants", "covariants", "kernel", "nope"]),
    "--method": st.sampled_from(["springer", "counting", "closedform", "all", "nope"]),
    "--format": st.sampled_from(["reduced", "factored", "series", "json", "nope"]),
    "--truncate": st.integers(-3, 8).map(str),
    "--max-n": st.integers(-3, 8).map(str),
    "--max-deg": st.integers(-3, 4).map(str),
    "--max-m": st.integers(-3, 8).map(str),
    "--no-such-flag": st.sampled_from(["1", "x"]),
}
COMMAND_FLAGS = {
    "compute": ["--d", "--kind", "--method", "--format", "--truncate"],
    "crosscheck": ["--max-n", "--max-deg", "--max-m"],
    "golden-check": [],
}
# a flag without its value, a help flag or a stray word
stray = st.sampled_from([["--d"], ["--max-m"], ["-h"], ["--help"], ["extra"], ["-1"]])


def options(flags):
    return st.sampled_from(flags).flatmap(
        lambda flag: FLAG_VALUES[flag].map(lambda value: [flag, value])
    )


def command_argv(command):
    """The subcommand (compute also left implicit), then mostly its own options."""
    own = COMMAND_FLAGS[command]
    mostly_own = [options(own)] * 3 if own else []
    chunk = st.one_of(*mostly_own, options(sorted(FLAG_VALUES)), stray)
    heads = {"compute": [["compute"], []], "crosscheck": [["crosscheck"]]}.get(
        command, [["golden-check"], ["golden-check", "/no/such/corpus.txt"]]
    )
    return st.tuples(st.sampled_from(heads), st.lists(chunk, max_size=4)).map(
        lambda parts: parts[0] + [token for chunk in parts[1] for token in chunk]
    )


argv_lists = st.sampled_from(sorted(COMMAND_FLAGS)).flatmap(command_argv)

# forms only argparse takes: "=" values, abbreviations, dash values, help, "--"
ARGPARSE_TOKENS = ["--d=2", "--tru", "-3", "", "-h", "--"]


def insert_tokens(parts):
    argv, inserts = parts
    argv = list(argv)
    for index, token in inserts:
        argv.insert(index % (len(argv) + 1), token)
    return argv


argv_with_argparse_forms = st.tuples(
    argv_lists, st.lists(st.tuples(st.integers(0, 12), st.sampled_from(ARGPARSE_TOKENS)), max_size=2)
).map(insert_tokens)

CORPUS_PIECES = [
    "d=1,2", "d=4", "d=2,2", "d=0", "d=a", "d=", "kind=invariants", "kind=semiinvariants",
    "kind=covariants", "num=1", "num=1,-1,1", "num=", "num=x", "den=(1,1)", "den=(2,1)(1,2)",
    "den=(0,1)", "den=(1,-1)", "den=1", "den=(1,1", "sign_insensitive=true",
    "sign_insensitive=maybe", "#", ";", "; ", " ", "\n", "=", ",", "(", ")",
]
corpus_text = st.lists(st.sampled_from(CORPUS_PIECES), max_size=16).map("".join)


def exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@given(argv_lists)
@settings(deadline=None, max_examples=200)
@example(["crosscheck", "--max-m", "-1"])
def test_main_exit_code(argv):
    assert exit_code(argv) in (0, 1, 2)


@given(argv_with_argparse_forms)
@settings(deadline=None, max_examples=500)
@example(["compute", "--d", "2,1", "--kind", "kernel", "--truncate", "3", "--d", "4"])
@example(["crosscheck", "--max-n", "5", "--max-m", "0"])
@example(["golden-check"])
def test_plain_parse_matches_argparse(argv):
    # main puts "compute" first when no subcommand is named
    if not argv or argv[0] not in cli.COMMANDS:
        argv = ["compute", *argv]
    plain = cli._plain_args(argv)
    if plain is not None:
        assert plain == cli.build_parser().parse_args(argv)


@given(st.one_of(st.binary(max_size=32), corpus_text.map(str.encode)))
@settings(deadline=None, max_examples=100)
@example(b"\xff")
def test_golden_check_on_any_file(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        path.write_bytes(content)
        assert exit_code(["golden-check", str(path)]) in (0, 1, 2)


@given(st.one_of(st.text(max_size=64), corpus_text))
@settings(deadline=None, max_examples=200)
def test_parse_corpus_raises_only_corpus_error(text):
    try:
        parse_corpus(text)
    except CorpusError:
        pass
