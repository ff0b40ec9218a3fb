#!/usr/bin/env python3
"""Benchmark for spherecp.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and README.md) in this interpreter
against the package under ``src/``.  The seed makes one round of at least
100 distinct operations; the run repeats that round, whole, until S
seconds of operations have passed and at least two rounds ran, then
checks one round's outputs with the independent checkers.

Times are reported at a fixed reference speed.  About once a second the
run times a few passes of a stdlib-only reference loop; each operation's
time is scaled by the reference measured just before and just after it,
and an operation's cost is the median of its scaled repetitions.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half with every public function wrapped in spans, and
reports the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.  The same record, with the raw timings, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import selftest
import tracer
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("bundles", "classify", "cli", "cuntz_words", "fgab", "ktheory", "pimsner")
SETUP_PROBES = 9
MIN_ROUNDS = 2
REFERENCE_PASSES = 5
REFERENCE_EVERY_S = 1.0
# Times are reported at the speed at which one reference pass takes this long.
REFERENCE_MS = 4.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_program() -> SimpleNamespace:
    """Import spherecp from this checkout's src/, and nowhere else."""
    if not (SRC / "spherecp" / "__init__.py").is_file():
        sys.exit(f"error: no spherecp source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import spherecp
    import spherecp.cli  # noqa: F401

    if Path(spherecp.__file__).resolve().parent != SRC / "spherecp":
        sys.exit(f"error: imported spherecp from {spherecp.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: sys.modules[f"spherecp.{m}"] for m in MODULES})


def probe(args) -> None:
    """Child side of the set-up measurement: import, generate, report the time."""
    t0 = time.monotonic()
    import_program()
    import_ms = (time.monotonic() - t0) * 1000
    WORKLOADS[args.workload].generate(args.seed)
    print(json.dumps({"ready": time.monotonic(), "import_ms": import_ms}))


def measure_setup(args) -> tuple[float, float]:
    """Median set-up seconds over fresh interpreters, and median import ms.

    CLOCK_MONOTONIC (time.monotonic) is one clock for all processes on the
    host, so the child's ready time minus the spawn time is the whole
    set-up: interpreter start, import of spherecp, input generation.  Each
    probe is scaled to the reference speed by the passes around it.
    """
    setups, imports = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    before = reference_pass()
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=60)
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed: {done.stderr.strip()}")
        rec = json.loads(done.stdout.strip().splitlines()[-1])
        after = reference_pass()
        scale = REFERENCE_MS / 1000 / ((before + after) / 2)
        setups.append((rec["ready"] - t0) * scale)
        imports.append(rec["import_ms"] * scale)
        before = after
    return statistics.median(setups), statistics.median(imports)


def _euclid(a: int, b: int) -> tuple:
    while b:
        a, b = b, a % b
    return (a, b)


def reference_pass() -> float:
    """One pass of a fixed stdlib-only loop (calls, tuples, small ints), in seconds.

    On a shared host a CPU's speed changes by up to about 2x, for seconds
    or minutes at a time.  Of the loops tried, this one slowed most like
    the workloads did (see README.md).
    """
    t0 = time.perf_counter()
    rows = []
    for i in range(12_000):
        rows.append(_euclid(i * 7 + 3, i % 97 + 1))
        if len(rows) > 64:
            rows = rows[::2]
    return time.perf_counter() - t0


@dataclass
class Phase:
    """Timings of repeated rounds, with the reference blocks measured between them."""

    n_ops: int
    # per operation: (seconds, index of the reference block just before it)
    samples: list = field(init=False)
    digests: list = field(init=False)
    fail_counts: list = field(init=False)
    blocks: list = field(default_factory=list)
    rounds: int = 0

    def __post_init__(self):
        self.samples = [[] for _ in range(self.n_ops)]
        self.digests = [set() for _ in range(self.n_ops)]
        self.fail_counts = [0] * self.n_ops

    @property
    def attempted(self) -> int:
        return self.n_ops * self.rounds

    @property
    def failed(self) -> int:
        return sum(self.fail_counts)

    def op_seconds(self, scaled: bool = True) -> list[float]:
        """Each operation's median repetition, at the reference speed when scaled."""
        ref = [statistics.median(a + b) for a, b in zip(self.blocks, self.blocks[1:])]
        unit = REFERENCE_MS / 1000
        return [statistics.median(dt * unit / ref[k] if scaled else dt for dt, k in xs)
                for xs in self.samples]

    def speed_scale(self) -> float:
        """Factor from measured to reference-speed time, over the whole phase."""
        return REFERENCE_MS / 1000 / statistics.median(x for b in self.blocks for x in b)


class Runner:
    """Runs operations of one workload and records what the metrics need."""

    def __init__(self, args, sp):
        self.workload = WORKLOADS[args.workload]
        self.sp = sp

    def run_op(self, op: dict) -> Outcome:
        try:
            return self.workload.run(self.sp, op)
        except Exception as exc:  # an operation the program did not complete
            return Outcome(True, ("exception", type(exc).__name__, str(exc)))

    def rounds(self, ops: list[dict], seconds: float, min_rounds: int,
               tr: tracer.Tracer | None = None) -> Phase:
        """Repeat the whole round until the time and the round floor are met."""
        ph = Phase(len(ops))
        block = lambda: [reference_pass() for _ in range(REFERENCE_PASSES)]  # noqa: E731
        ph.blocks.append(block())
        spent = since_block = 0.0
        while spent < seconds or ph.rounds < min_rounds:
            for i, op in enumerate(ops):
                if tr is not None:
                    tr.current_op = ph.rounds * len(ops) + i
                t0 = time.perf_counter()
                outcome = self.run_op(op)
                dt = time.perf_counter() - t0
                ph.samples[i].append((dt, len(ph.blocks) - 1))
                ph.digests[i].add(outcome.digest())
                ph.fail_counts[i] += outcome.failed
                spent += dt
                since_block += dt
                if since_block >= REFERENCE_EVERY_S:
                    ph.blocks.append(block())
                    since_block = 0.0
            ph.rounds += 1
        ph.blocks.append(block())
        return ph


def verify(runner: Runner, ops: list[dict], phases: list[Phase]) -> list[str]:
    """Check one more, untimed round's outputs; every round must match it.

    The checked outputs are made after the measured rounds, so that they
    never sit in memory while peak RSS is measured.
    """
    outcomes = [runner.run_op(op) for op in ops]
    errors = runner.workload.check(ops, outcomes)
    for i, outcome in enumerate(outcomes):
        if any(ph.digests[i] != {outcome.digest()} for ph in phases):
            errors.append(f"operation {i}: output differs between rounds")
        if outcome.failed and not runner.workload.known_fault(outcome):
            errors.append(f"operation {i}: unexpected failure {str(outcome.output)[:200]}")
        if any(ph.fail_counts[i] != outcome.failed * ph.rounds for ph in phases):
            errors.append(f"operation {i}: fails in some rounds only")
    return errors


def latency_metrics(op_seconds: list[float]) -> dict:
    ms = [x * 1000 for x in op_seconds]
    return {
        "ops_per_s": len(ms) * 1000 / sum(ms),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
    }


UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "peak_rss_mb": "MB", "setup_s": "s"}


def end_to_end(runner: Runner, ph: Phase, setup_s: float) -> tuple[dict, dict]:
    """The five end-to-end metrics, and the latency ones unscaled for the record."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {**latency_metrics(ph.op_seconds()), "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
    unscaled = latency_metrics(ph.op_seconds(scaled=False))
    return metrics, unscaled


def per_layer(tr: tracer.Tracer, plain: Phase, traced: Phase, import_ms: float) -> tuple[dict, dict]:
    scale = traced.speed_scale()
    calls, selfs = tr.self_times()
    metrics, units = {}, {}
    for name, c, s in zip(tr.names, calls, selfs):
        metrics[f"{name}.calls"], units[f"{name}.calls"] = c / traced.attempted, "count"
        metrics[f"{name}.self_ms"], units[f"{name}.self_ms"] = s * scale * 1000 / traced.attempted, "ms"
    for key, value in tr.counters.items():
        per_op = value / traced.attempted if tracer.COUNTERS[key] is sum else value
        metrics[key], units[key] = per_op, ("count" if key.endswith(".terms") else "bits")
    metrics["cli.import_ms"], units["cli.import_ms"] = import_ms, "ms"
    untraced_rate = latency_metrics(plain.op_seconds())["ops_per_s"]
    traced_rate = latency_metrics(traced.op_seconds())["ops_per_s"]
    metrics["trace.overhead_pct"], units["trace.overhead_pct"] = (untraced_rate / traced_rate - 1) * 100, "%"
    return metrics, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        probe(args)
        return 0
    if not (SRC / "spherecp" / "__init__.py").is_file():
        print(f"error: no spherecp source tree at {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and its set-up probes: on a shared host each
    # CPU slows on its own, and the reference passes must see the CPU the
    # timed work ran on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    setup_s, import_ms = measure_setup(args)
    sp = import_program()
    ops = WORKLOADS[args.workload].generate(args.seed)
    runner = Runner(args, sp)

    if args.trace == 0:
        phases = [runner.rounds(ops, args.seconds, MIN_ROUNDS)]
        metrics, unscaled = end_to_end(runner, phases[0], setup_s)
        units, extra = UNITS, {"unscaled": unscaled}
    else:
        plain = runner.rounds(ops, args.seconds / 2, 1)
        tr = tracer.Tracer()
        tr.install()
        traced = runner.rounds(ops, args.seconds / 2, 1, tr)
        tr.uninstall()
        phases = [plain, traced]
        metrics, units = per_layer(tr, plain, traced, import_ms)
        extra = {"spans": len(tr.start)}

    errors = selftest.run() + verify(runner, ops, phases)
    OUT.mkdir(exist_ok=True)
    result = {
        "correct": not errors,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    reference_ms = [[x * 1000 for x in b] for ph in phases for b in ph.blocks]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "cpu": cpu,
              "trace": args.trace, "ops_per_round": len(ops), "rounds": [ph.rounds for ph in phases],
              "errors": errors[:50], **extra, **result,
              "reference_ms": reference_ms,
              "samples": [ph.samples for ph in phases]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    if args.trace:
        tr.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    for e in errors[:20]:
        print(f"check failed: {e}")
    passes = sorted(x for b in reference_ms for x in b)
    print(f"reference loop: {len(passes)} passes, fastest {passes[0]:.3f} ms, "
          f"median {statistics.median(passes):.3f} ms, slowest {passes[-1]:.3f} ms; "
          f"times are scaled to a {REFERENCE_MS:g} ms pass")
    if args.trace:
        print(f"tracing overhead: {metrics['trace.overhead_pct']:.1f}% on the time of a round "
              f"({extra['spans']} spans)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
