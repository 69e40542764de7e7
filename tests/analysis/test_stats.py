"""Tests for analysis helpers."""

import math

import numpy as np
import pytest

from repro.analysis.stats import (
    boxplot_summary,
    format_table,
    series_summary,
)


def test_boxplot_summary():
    s = boxplot_summary([0.1, 0.2, 0.3, 0.4, 0.5])
    assert s.minimum == 0.1
    assert s.median == 0.3
    assert s.maximum == 0.5
    assert s.count == 5


def test_boxplot_summary_empty():
    s = boxplot_summary([])
    assert math.isnan(s.median)
    assert s.count == 0


def test_boxplot_format():
    text = boxplot_summary([0.01, 0.02]).format()
    assert "%" in text and "n=2" in text


def test_format_table_alignment():
    text = format_table(["a", "bee"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "---" in lines[1]


def test_series_summary():
    mean, p95, peak = series_summary(np.array([0.0, 1.0, 2.0, 10.0]))
    assert mean == pytest.approx(3.25)
    assert peak == 10.0
    assert p95 <= peak


def test_series_summary_empty():
    assert all(math.isnan(v) for v in series_summary(np.array([])))


def test_boxplot_quartiles_use_linear_interpolation():
    s = boxplot_summary(range(1, 10))
    assert (s.minimum, s.q1, s.median, s.q3, s.maximum) == (
        1.0, 3.0, 5.0, 7.0, 9.0
    )
    assert s.count == 9


def test_boxplot_of_one_value_collapses():
    s = boxplot_summary([0.25])
    assert s.minimum == s.q1 == s.median == s.q3 == s.maximum == 0.25
    assert s.count == 1


def test_boxplot_accepts_any_iterable():
    assert boxplot_summary(v / 10 for v in range(5)) == boxplot_summary(
        [0.0, 0.1, 0.2, 0.3, 0.4]
    )


def test_boxplot_format_scale_and_unit():
    text = boxplot_summary([1.0, 3.0]).format(scale=1.0, unit=" Mb")
    assert text == "[ 1.00  1.50  2.00  2.50  3.00] Mb (n=2)"


def test_format_table_columns_fit_widest_cell():
    text = format_table(["k", "v"], [[1, 2.5], ["long-key", None]])
    header, rule, first, second = text.splitlines()
    assert rule == "-" * len("long-key") + "  " + "-" * len("None")
    assert first.index("2.5") == second.index("None") == len("long-key") + 2


def test_format_table_without_rows_has_header_and_rule():
    assert format_table(["a", "bb"], []).splitlines() == ["a  bb", "-  --"]


def test_format_table_strips_trailing_padding():
    text = format_table(["name", "x"], [["a", ""]])
    assert all(line == line.rstrip() for line in text.splitlines())


def test_series_summary_of_constant_trace():
    assert series_summary(np.full(7, 2.5)) == (2.5, 2.5, 2.5)
