"""Every example script must run cleanly (examples never rot)."""

import os
import subprocess
import sys

import pytest

_EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
)

_EXPECTED_MARKERS = {
    "quickstart.py": ["negotiated program", "saves"],
    "customer_provisioning.py": ["Figure 5", "LINE_T"],
    "xmark_exchange.py": ["End-to-end breakdown", "DE saves"],
    "wsdl_negotiation.py": ["fragmentation", "Loading program"],
    "simulation_study.py": ["Figure 10", "Worst/Optimal"],
}


@pytest.mark.parametrize("script", sorted(_EXPECTED_MARKERS))
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, os.path.join(_EXAMPLES_DIR, script)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "REPRO_SCALE": "0.01"},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    for marker in _EXPECTED_MARKERS[script]:
        assert marker in completed.stdout, (
            f"{script} output missing {marker!r}"
        )


def test_every_example_is_covered():
    scripts = {
        name for name in os.listdir(_EXAMPLES_DIR)
        if name.endswith(".py")
    }
    assert scripts == set(_EXPECTED_MARKERS)
