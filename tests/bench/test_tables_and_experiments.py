"""Tests for table rendering (the experiments themselves: test_claims.py)."""

from repro.bench.tables import format_value, print_table, render_table


class TestFormatValue:
    def test_bools(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"

    def test_zero_float(self):
        assert format_value(0.0) == "0"

    def test_small_float_three_decimals(self):
        assert format_value(0.12345) == "0.123"

    def test_medium_float_one_decimal(self):
        assert format_value(42.25) == "42.2"

    def test_large_float_thousands(self):
        assert format_value(12345.6) == "12,346"

    def test_strings_and_ints_verbatim(self):
        assert format_value("abc") == "abc"
        assert format_value(7) == "7"


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(["name", "n"], [["a", 1], ["bbbb", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert "-+-" in lines[2]
        assert len({len(line) for line in lines[1:]}) == 1, "all rows same width"

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert "a" in text

    def test_print_table_returns_text(self, capsys):
        text = print_table(["x"], [[1]])
        out = capsys.readouterr().out
        assert text in out
