"""Tests for repro.utils.tables."""

import pytest

from repro.utils.tables import format_table


class TestFormatTable:
    def test_aligns_columns(self):
        out = format_table(["name", "value"], [["a", 1.5], ["bbbb", 2.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "1.500" in out and "2.250" in out

    def test_wrong_row_width_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_non_float_cells_stringified(self):
        out = format_table(["k"], [[42]])
        assert "42" in out

    def test_custom_float_format(self):
        out = format_table(["v"], [[0.123456]], float_fmt="{:.1f}")
        assert "0.1" in out and "0.12" not in out
