"""Smoke runs of the experiment scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nestoqsym.errors import LIMITS

ROOT = Path(__file__).resolve().parent.parent
IDS = ["family_table", "tree_dependence", "collision_report"]


def run_script(argv):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["family_table.py", "--max-n", "5", "--check-recurrences"],
        ["tree_dependence.py"],
        ["collision_report.py", "--max-n", "4"],
    ],
    ids=IDS,
)
def test_script_runs(argv):
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["family_table.py", "--max-n", f"{LIMITS['family'].limit + 1}", "--check-recurrences"],
        ["tree_dependence.py", "--max-n", "20"],
        ["collision_report.py", "--max-n", "9", "--connected"],
    ],
    ids=IDS,
)
def test_script_past_a_limit_exits_3_with_one_line(argv):
    proc = run_script(argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("capacity error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""  # refused before the first row
    assert f", got {argv[2]} (" in proc.stderr  # names --max-n itself
