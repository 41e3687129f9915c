"""Data-transfer programs (Definition 3.10) and their generation.

A program is a DAG whose nodes are primitive operations and whose edges
describe data flow.  :mod:`repro.core.program.dag` is the graph model,
:mod:`repro.core.program.builder` implements the G0 → G1 → completed
program construction of Section 4.2 (including combine-order
enumeration), :mod:`repro.core.program.executor` runs placed programs
against system endpoints (on the one batch pipeline of
:mod:`repro.core.program.run`), and :mod:`repro.core.program.render` prints
programs in the style of Figures 3–6 and 8.
"""

from repro.core.program.builder import ProgramBuilder, build_transfer_program
from repro.core.program.dag import Edge, TransferProgram
from repro.core.program.executor import ExecutionReport, ProgramExecutor
from repro.core.program.serialize import (
    program_from_dict,
    program_from_json,
    program_to_dict,
    program_to_json,
)
from repro.core.program.render import to_dot, to_text

__all__ = [
    "Edge",
    "TransferProgram",
    "ProgramBuilder",
    "build_transfer_program",
    "ProgramExecutor",
    "program_to_dict",
    "program_from_dict",
    "program_to_json",
    "program_from_json",
    "ExecutionReport",
    "to_text",
    "to_dot",
]
