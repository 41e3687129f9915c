"""Shared constants for the benchmark modules."""

from __future__ import annotations

import os

#: The four exchange scenarios of Section 5.
SCENARIOS = ("MF->MF", "MF->LF", "LF->MF", "LF->LF")

#: Trials per configuration in the simulation benches (paper: 10).
N_TRIALS = int(os.environ.get("REPRO_TRIALS", "5"))
