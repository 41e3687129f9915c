"""Reporting helpers: aligned text tables and timers for the benches."""

from repro.reporting.tables import format_table
from repro.obs.metrics import Timer

__all__ = ["format_table", "Timer"]
