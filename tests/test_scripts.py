"""The experiment scripts run from a plain checkout, without PYTHONPATH.

At their default arguments each script's stdout must match, byte for
byte, the output recorded in ``tests/golden/<script>.txt``.  The timing
script runs once at its smallest sizes, and the mutation script's
operators are read off a fixture.
"""

import ast
import importlib.util
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


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SIGN_AND_ORDER_FIXTURE = b"""\
def g(a, b, c):
    return h(a, -b, *c) + h(c, c) + k(-  (a - b), f"{-a}")


def k(x, y):
    return x
"""


def test_mutants_drop_a_unary_minus_and_swap_neighbouring_arguments():
    mutants = _mutants()
    sites = mutants.mutation_sites(SIGN_AND_ORDER_FIXTURE)
    # h(c, c) has nothing to swap, and the f-string's minus is skipped
    assert [(site.line, site.old, site.new) for site in sites] == [
        (2, "a, -b", "-b, a"), (2, "-", ""), (2, "-b, *c", "*c, -b"), (2, "+", "-"), (2, "+", "-"),
        (2, "-  ", ""), (2, '-  (a - b), f"{-a}"', 'f"{-a}", -  (a - b)'), (2, "-", "+"),
    ]
    mutated = [mutants.mutate(SIGN_AND_ORDER_FIXTURE, site) for site in sites]
    assert mutated[0].splitlines()[1] == b"    return h(-b, a, *c) + h(c, c) + k(-  (a - b), f\"{-a}\")"
    assert mutated[5].splitlines()[1] == b"    return h(a, -b, *c) + h(c, c) + k((a - b), f\"{-a}\")"
    for mutant in mutated:
        ast.parse(mutant)  # every mutant is valid Python


def test_mutants_select_the_sites_inside_a_function():
    mutants = _mutants()
    ((start, end),) = mutants.function_span(SIGN_AND_ORDER_FIXTURE, "k")
    assert SIGN_AND_ORDER_FIXTURE[start:end] == b"def k(x, y):\n    return x"
    assert mutants.function_span(SIGN_AND_ORDER_FIXTURE, "missing") == []
