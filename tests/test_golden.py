import pytest

from poincare_series.golden import (
    CorpusError,
    check_corpus,
    check_record,
    parse_corpus,
    parse_record,
    shipped_corpus_path,
)

GOOD = "d=1,1; kind=semiinvariants; num=1; den=(1,2)(2,1); sign_insensitive=false"


class TestParsing:
    def test_full_record(self):
        rec = parse_record(GOOD, 3)
        assert rec.degrees == (1, 1)
        assert rec.kind == "semiinvariants"
        assert rec.num == (1,)
        assert rec.den_factors == ((1, 2), (2, 1))
        assert rec.sign_insensitive is False
        assert rec.line_no == 3
        assert rec.label() == "d=1,1 kind=semiinvariants"

    def test_flag_defaults_false(self):
        rec = parse_record("d=2; kind=invariants; num=1; den=(2,1)", 1)
        assert rec.sign_insensitive is False

    def test_degrees_normalized_descending(self):
        rec = parse_record("d=1,3,2; kind=invariants; num=1; den=(2,1)", 1)
        assert rec.degrees == (3, 2, 1)

    @pytest.mark.parametrize(
        "line,needle",
        [
            ("d=2; kind=invariants; num=1", "missing field 'den'"),
            ("d=2; num=1; den=(2,1)", "missing field 'kind'"),
            ("d=x; kind=invariants; num=1; den=(2,1)", "field 'd'"),
            ("d=0; kind=invariants; num=1; den=(2,1)", "field 'd'"),
            ("d=2; kind=widgets; num=1; den=(2,1)", "'kind'"),
            ("d=2; kind=invariants; num=a,b; den=(2,1)", "field 'num'"),
            ("d=2; kind=invariants; num=1; den=nope", "field 'den'"),
            ("d=2; kind=invariants; num=1; den=(0,1)", "non-positive"),
            ("d=2; kind=invariants; num=1; den=(2,1); sign_insensitive=maybe", "sign_insensitive"),
            ("d=2;; kind=invariants; num=1; den=(2,1)", "malformed field"),
            (
                "d=2; kind=invariants; num=1; den=(2,1); sign_insensitve=true",
                "unknown field 'sign_insensitve'",
            ),
            ("d=2; kind=invariants; num=1; den=(2,1); d=3", "repeated field 'd'"),
            ("d=2; kind=invariants; num=1; den=(2,1); num=1", "repeated field 'num'"),
        ],
    )
    def test_rejects_bad_lines_with_line_number(self, line, needle):
        with pytest.raises(CorpusError) as exc:
            parse_record(line, 7)
        assert "line 7" in str(exc.value)
        assert needle in str(exc.value)

    def test_corpus_skips_comments_and_blanks(self):
        text = "# header\n\n" + GOOD + "\n"
        records = parse_corpus(text)
        assert len(records) == 1
        assert records[0].line_no == 3


class TestChecking:
    def test_known_record_passes(self):
        ok, computed = check_record(parse_record(GOOD, 1))
        assert ok
        assert computed.expand(4) == [1, 2, 4, 6, 9]

    def test_sign_insensitive_retry(self):
        flipped = "d=1,1; kind=semiinvariants; num=-1; den=(1,2)(2,1); sign_insensitive=true"
        ok, _ = check_record(parse_record(flipped, 1))
        assert ok
        strict = flipped.replace("sign_insensitive=true", "sign_insensitive=false")
        ok, _ = check_record(parse_record(strict, 1))
        assert not ok

    def test_shipped_corpus_all_pass(self):
        with open(shipped_corpus_path(), encoding="utf-8") as handle:
            text = handle.read()
        lines = []
        failures = check_corpus(text, emit=lines.append)
        assert failures == 0
        assert lines[-1] == "golden-check: 12 records, 0 failures"
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_empty_corpus_rejected(self):
        lines = []
        with pytest.raises(CorpusError, match="no records"):
            check_corpus("# only comments\n", emit=lines.append)
        assert lines == []
