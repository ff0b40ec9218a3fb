#!/usr/bin/env python3
"""Time the spherecp command line at a base tree and at the working tree.

Two figures per subcommand, for each tree:

* in process: ``cli.main(argv)`` called ``--calls`` times with stdout sent
  to a string buffer, in a fresh interpreter per tree and round; the
  figure is the minimum over ``--repeat`` such batches, in µs per call;
* as a process: the wall time of one ``python -m spherecp.cli ARGV`` run,
  in ms, after one unmeasured run per tree has cached its bytecode.

The base is a git revision of this checkout, whose ``src/`` is exported
with ``git archive`` to a temporary directory, or a directory that holds a
``src/spherecp`` package.  Each round runs both trees, in turn; the tree
that runs first alternates between rounds.  Both trees must print the
same output with exit 0 for every subcommand, or the script stops.

Run:  python3 scripts/cli_times.py --out FILE [--base REV_OR_DIR] [--rounds N] [--calls N] [--repeat N]

Writes FILE, a JSON object: per subcommand and figure, the median and
minimum over rounds at each tree, and in how many rounds the working
tree was faster.
"""

import argparse
import io
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Subcommand -> the argv timed for it.
ARGV = {
    "kgroups": ["kgroups", "--sphere", "4", "--rank", "3", "--euler", "1"],
    "classify": ["classify", "--sphere", "4", "--rank", "3", "--euler", "1", "--format", "structured"],
    "table": ["table", "--sphere", "4", "--d-max", "3", "--c-max", "4", "--format", "structured"],
    "snf": ["snf", "-2,0;-1,-2"],
    "cuntz": ["cuntz", "--d", "2", "s1 s1* + s2 s2*", "--equal", "1"],
}

# Run in a fresh interpreter: argv[1] is the JSON of ARGV, argv[2] and
# argv[3] the calls per batch and the batches; prints µs per call.
_IN_PROCESS = """
import contextlib, io, json, sys, timeit
from spherecp.cli import main
sink = io.StringIO()
def call(argv):
    with contextlib.redirect_stdout(sink):
        main(argv)
    sink.seek(0)
    sink.truncate()
calls, repeat = int(sys.argv[2]), int(sys.argv[3])
print(json.dumps({name: min(timeit.repeat(lambda: call(argv), number=calls, repeat=repeat)) / calls * 1e6
                  for name, argv in json.loads(sys.argv[1]).items()}))
"""


def _env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src)}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def _export(rev: str, into: Path) -> Path:
    """``src/`` of git revision ``rev`` under ``into``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev, "src"))) as tar:
        # the "data" filter refuses links and paths outside ``into``; interpreters before 3.10.12 have no filters
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into / "src"


def _in_process(src: Path, calls: int, repeat: int) -> dict:
    done = subprocess.run([sys.executable, "-c", _IN_PROCESS, json.dumps(ARGV), str(calls), str(repeat)],
                          env=_env(src), capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _process(src: Path, argv: list) -> tuple[float, str]:
    """Wall time in ms of one CLI process, and its stdout."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "spherecp.cli", *argv], env=_env(src), capture_output=True, text=True)
    elapsed = (time.perf_counter() - start) * 1e3
    if done.returncode != 0:
        raise SystemExit(f"{src}: {' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed, done.stdout


def _summary(base: list, change: list, digits: int) -> dict:
    return {
        "base_median": round(statistics.median(base), digits),
        "change_median": round(statistics.median(change), digits),
        "base_min": round(min(base), digits),
        "change_min": round(min(change), digits),
        "change_faster_in": f"{sum(c < b for b, c in zip(base, change))} of {len(base)}",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, metavar="FILE", help="JSON file to write")
    parser.add_argument("--base", default="HEAD", metavar="REV_OR_DIR", help="git revision or directory (default: HEAD)")
    parser.add_argument("--rounds", type=int, default=10, metavar="N", help="rounds per tree (default: 10)")
    parser.add_argument("--calls", type=int, default=2000, metavar="N", help="in-process calls per batch (default: 2000)")
    parser.add_argument("--repeat", type=int, default=5, metavar="N", help="in-process batches per round (default: 5)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="spherecp-cli-times-") as temp:
        if Path(args.base).is_dir():
            base, base_src = args.base, Path(args.base) / "src"
        else:
            base, base_src = _git("rev-parse", args.base).decode().strip(), _export(args.base, Path(temp))
        trees = {"base": base_src, "change": ROOT / "src"}
        outputs = {tree: [_process(src, argv)[1] for argv in ARGV.values()] for tree, src in trees.items()}
        if outputs["base"] != outputs["change"]:
            raise SystemExit("the two trees print different output")
        in_process = {tree: [] for tree in trees}
        process = {tree: {name: [] for name in ARGV} for tree in trees}
        for k in range(args.rounds):
            for tree in (("base", "change") if k % 2 == 0 else ("change", "base")):
                in_process[tree].append(_in_process(trees[tree], args.calls, args.repeat))
                for name, cmd in ARGV.items():
                    process[tree][name].append(_process(trees[tree], cmd)[0])
    report = {
        "description": "cli.main per call in process, and CLI process wall time, per subcommand: base tree against working tree",
        "command": shlex.join(["python3", "scripts/cli_times.py", *(sys.argv[1:] if argv is None else argv)]),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "base": base,
        "argv": ARGV,
        "in_process_us": {
            name: _summary([r[name] for r in in_process["base"]], [r[name] for r in in_process["change"]], 1)
            for name in ARGV
        },
        "process_ms": {name: _summary(process["base"][name], process["change"][name], 2) for name in ARGV},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
