"""Golden corpus of known Poincare series: its parser and the check of one record.

Corpus lines look like

    d=1,2,3; kind=semiinvariants; num=1,1,6,...; den=(4,2)(1,2)(2,1)(3,2)(5,1); sign_insensitive=false

num holds ascending numerator coefficients, den the (a, e) exponents of a
product of (1 - z^a)^e; sign_insensitive is optional, and an unknown or
repeated field is an error. Comparison is exact, by cross-multiplication of
the unreduced record against the computed series; sign-insensitive
records also accept the negated value (for published forms whose overall
sign is ambiguous).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

from .algebra import Poly, _times_binomials
from .counting import KINDS, DegreeVector
from .springer import poincare_series

_FIELD = re.compile(r"^\s*(\w+)\s*=\s*(.*?)\s*$")
_FIELDS = ("d", "kind", "num", "den", "sign_insensitive")
_FACTOR = re.compile(r"\((\-?\d+)\s*,\s*(\-?\d+)\)")
_INT = re.compile(r"[ \t]*-?[0-9]+[ \t]*")


class CorpusError(ValueError):
    """Malformed corpus line, or a corpus with no record.

    A line's message carries its line number and field.
    """


@dataclass(frozen=True)
class GoldenRecord:
    degrees: tuple
    kind: str
    num: tuple
    den_factors: tuple
    sign_insensitive: bool
    line_no: int

    def label(self) -> str:
        return f"d={','.join(map(str, self.degrees))} kind={self.kind}"


def _parse_ints(text: str, line_no: int, field: str) -> tuple:
    parts = text.split(",")
    # int() would also take "1_0", "+3" and non-ASCII digits such as "٣"
    if not all(_INT.fullmatch(p) for p in parts):
        raise CorpusError(f"line {line_no}: field '{field}' is not a comma-separated integer list")
    return tuple(map(int, parts))


def parse_record(line: str, line_no: int) -> GoldenRecord:
    fields = {}
    for chunk in line.split(";"):
        m = _FIELD.match(chunk)
        if not m:
            raise CorpusError(f"line {line_no}: malformed field {chunk.strip()!r}")
        name = m.group(1)
        if name not in _FIELDS:
            raise CorpusError(f"line {line_no}: unknown field '{name}'")
        if name in fields:
            raise CorpusError(f"line {line_no}: repeated field '{name}'")
        fields[name] = m.group(2)
    for required in ("d", "kind", "num", "den"):
        if required not in fields:
            raise CorpusError(f"line {line_no}: missing field '{required}'")
    degrees = _parse_ints(fields["d"], line_no, "d")
    try:
        degrees = DegreeVector(degrees).degrees
    except ValueError as exc:
        raise CorpusError(f"line {line_no}: field 'd': {exc}") from None
    kind = fields["kind"]
    if kind not in KINDS:
        raise CorpusError(f"line {line_no}: field 'kind' must be one of {KINDS}")
    num = _parse_ints(fields["num"], line_no, "num")
    den_text = fields["den"]
    factors = tuple(
        (int(a), int(e)) for a, e in _FACTOR.findall(den_text)
    )
    if not factors or "".join(f"({a},{e})" for a, e in factors) != den_text.replace(" ", ""):
        raise CorpusError(f"line {line_no}: field 'den' must be a list of (a,e) factors")
    if any(a < 1 or e < 1 for a, e in factors):
        raise CorpusError(f"line {line_no}: field 'den' has non-positive factor data")
    flag_text = fields.get("sign_insensitive", "false")
    if flag_text not in ("true", "false"):
        raise CorpusError(f"line {line_no}: field 'sign_insensitive' must be true or false")
    return GoldenRecord(degrees, kind, num, factors, flag_text == "true", line_no)


def parse_corpus(text: str) -> list:
    """The records of a corpus in line order; a corpus with no record is an error, not a pass."""
    records = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        records.append(parse_record(line, line_no))
    if not records:
        raise CorpusError("corpus contains no records")
    return records


def shipped_corpus_path() -> str:
    return str(resources.files("poincare_series").joinpath("data/golden_corpus.txt"))


def check_record(record: GoldenRecord):
    """Whether one record matches its computed series, by cross-multiplication.

    f.num * prod (1 - z^a)^e runs as binomial passes over the record's
    factors, so record.num * f.den is the only full product. Products whose
    degrees differ cannot be equal, so such a record fails before either.
    """
    f = poincare_series(record.degrees, record.kind)
    num = Poly(record.num)
    if f.num.degree + sum(a * e for a, e in record.den_factors) != num.degree + f.den.degree:
        return False
    mine = _times_binomials(f.num, record.den_factors)
    theirs = num * f.den
    return mine == theirs or (record.sign_insensitive and mine == -theirs)
