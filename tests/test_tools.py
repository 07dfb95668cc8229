"""The paired A/B timer, ``tools/interleave.py``, runs on every workload.

An A/A run times this checkout's ``src`` against itself for two pairs: the
two sides must write the same reports, and the tool must print both ratio
lines.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


@pytest.mark.parametrize("workload", ["drift24", "deep96", "oracle14"])
def test_interleave_a_a_run(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave.py"), SRC, SRC,
         "--workload", workload, "--ops", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith(f"workload {workload}, pairs 2, ")
    for what in ("op", "decide"):
        assert any(
            line.startswith(f"{what} ratio change/parent: median ")
            and line.endswith(" pairs")
            for line in lines
        ), done.stdout
