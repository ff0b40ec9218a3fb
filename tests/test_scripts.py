"""The experiment scripts run from a plain checkout, without PYTHONPATH.

At their default arguments each script's stdout must match, byte for
byte, the output recorded in ``tests/golden/<script>.txt``.
"""

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
