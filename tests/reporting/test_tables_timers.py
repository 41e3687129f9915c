"""Reporting helpers."""

import time

from repro.reporting.tables import format_table
from repro.obs.metrics import Timer


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(
            ["name", "value"],
            [["a", 1.23456], ["long-name", 7]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "1.235" in text
        # All rows share the header's width.
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text

    def test_non_numeric_cells(self):
        text = format_table(["k"], [["x+y"], [None]])
        assert "x+y" in text and "None" in text


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.seconds >= 0.009

    def test_reusable(self):
        timer = Timer()
        with timer:
            pass
        first = timer.seconds
        with timer:
            time.sleep(0.005)
        assert timer.seconds >= first
