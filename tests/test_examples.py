"""Smoke tests: every example script runs to completion.

Examples are user-facing documentation; a release with a broken example
is a broken release.  Each script runs in a subprocess with the repo's
interpreter.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "social_stream_components.py",
    "road_network_routing.py",
    "checkpoint_and_resume.py",
    "network_bottlenecks.py",
    "parallel_updates.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), f"{script} produced no output"


def test_all_examples_are_covered():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(FAST_EXAMPLES)

