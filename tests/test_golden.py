import pytest

from poincare_series import golden
from poincare_series.cli import main
from poincare_series.golden import (
    CorpusError,
    check_record,
    parse_corpus,
    parse_record,
    shipped_corpus_path,
)
from poincare_series.springer import poincare_series

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

    @pytest.mark.parametrize("entry", ["1_0", "+3", "\u0663", "\uff12", "- 3", "--3", "3.0", ""])
    @pytest.mark.parametrize("field", ["d", "num"])
    def test_strict_integer_entries(self, entry, field):
        # int() would take "1_0", "+3", the Arabic-Indic digit three and the
        # fullwidth two; only an optional "-" and ASCII digits are entries
        fields = {"d": "2", "num": "1"}
        fields[field] = f"1,{entry}"
        line = f"d={fields['d']}; kind=invariants; num={fields['num']}; den=(2,1)"
        with pytest.raises(CorpusError) as exc:
            parse_record(line, 9)
        assert f"line 9: field '{field}'" in str(exc.value)

    def test_integer_entries_take_surrounding_whitespace(self):
        rec = parse_record("d= 2 ,1; kind=invariants; num=1 , -2,\t3; den=(2,1)", 1)
        assert (rec.degrees, rec.num) == ((2, 1), (1, -2, 3))

    @pytest.mark.parametrize("den", ["(\u0663,1)", "(2,\uff12)", "(+2,1)", "(2,1_0)"])
    def test_strict_integer_factors(self, den):
        # each factor must print back as written, so these fail already
        with pytest.raises(CorpusError, match="line 4: field 'den'"):
            parse_record(f"d=2; kind=invariants; num=1; den={den}", 4)

    def test_corpus_skips_comments_and_blanks(self):
        text = "# header\n\n" + GOOD + "\n"
        records = parse_corpus(text)
        assert len(records) == 1
        assert records[0].line_no == 3


class TestChecking:
    def test_known_record_passes(self):
        record = parse_record(GOOD, 1)
        assert check_record(record)
        assert poincare_series(record.degrees, record.kind).expand(4) == [1, 2, 4, 6, 9]

    def test_sign_insensitive_retry(self):
        flipped = "d=1,1; kind=semiinvariants; num=-1; den=(1,2)(2,1); sign_insensitive=true"
        assert check_record(parse_record(flipped, 1))
        strict = flipped.replace("sign_insensitive=true", "sign_insensitive=false")
        assert not check_record(parse_record(strict, 1))

    def test_unmatched_degrees_fail_before_any_product(self, monkeypatch):
        # f.num * (1-z)^2 (1-z^2)^3000000 cannot have the degree of 1 * f.den
        def no_passes(*_args):
            raise AssertionError("binomial passes ran")

        monkeypatch.setattr(golden, "_times_binomials", no_passes)
        for den in ("(1,2)(2,3000000)", "(1,2)(2,99999999999999999999)", "(1,1)(2,1)"):
            record = parse_record(f"d=1,1; kind=semiinvariants; num=1; den={den}", 1)
            assert not check_record(record)
            assert poincare_series(record.degrees, record.kind).expand(4) == [1, 2, 4, 6, 9]

    def test_trailing_zero_numerator_entries_still_pass(self):
        assert check_record(parse_record(GOOD.replace("num=1;", "num=1,0,0;"), 1))

    def test_shipped_corpus_all_pass(self, capsys):
        assert main(["golden-check", shipped_corpus_path()]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "golden-check: 12 records, 0 failures"
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError, match="no records"):
            parse_corpus("# only comments\n")
