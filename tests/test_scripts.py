"""The experiment scripts run from a plain checkout, without PYTHONPATH.

At their default arguments each script's stdout must match, byte for
byte, the output recorded in ``tests/golden/<script>.txt``.  The timing
script runs once at its smallest sizes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"


@pytest.mark.parametrize("script", ["survey_classification.py", "word_identities.py"])
def test_script_runs_without_pythonpath(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script)],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stdout == (TESTS / "golden" / script).with_suffix(".txt").read_bytes()


def test_cli_times_writes_both_figures_per_subcommand(tmp_path):
    # the checkout as its own base: no git needed, and both trees print the same
    out = tmp_path / "times.json"
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "cli_times.py"), "--out", str(out), "--base", str(TESTS.parent),
         "--rounds", "1", "--calls", "2", "--repeat", "1"],
        cwd=tmp_path, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    report = json.loads(out.read_text())
    assert report["base"] == str(TESTS.parent)
    for figure in ("in_process_us", "process_ms"):
        assert set(report[figure]) == {"kgroups", "classify", "table", "snf", "cuntz"}
        for row in report[figure].values():
            assert min(row["base_min"], row["change_min"]) > 0
            assert row["change_faster_in"] in ("0 of 1", "1 of 1")
