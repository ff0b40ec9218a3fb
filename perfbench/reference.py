#!/usr/bin/env python3
"""Reference figures beside the benchmark: the ROADMAP baseline rows, re-measured.

Run from the root of a source checkout:  python3 perfbench/reference.py

Prints bare interpreter start, per-call costs of the small pipeline
stages, the CLI import, equals() against adjoint depth and SNF against
matrix size.  Each figure is the median of several timings; the slow
rows run once or twice.  Not part of a benchmark run.
"""

import random
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def per_call_us(stmt, setup="", number=2000, repeat=7) -> float:
    return min(timeit.repeat(stmt, setup, number=number, repeat=repeat, globals=globals())) / number * 1e6


def process_ms(code: str, runs: int = 9) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": str(SRC)})
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def main() -> None:
    import io
    from contextlib import redirect_stdout

    from spherecp import IntMatrix, SphereBundleSpec, parse_expression, smith_normal_form
    from spherecp.bundles import validate
    from spherecp.classify import classify_report
    from spherecp.cli import main as cli_main
    from spherecp.pimsner import k_groups, pimsner_matrix

    spec = SphereBundleSpec(4, 3, 1)
    m22 = pimsner_matrix(spec)
    rows = [
        ("python -c pass (process)", f"{process_ms('pass'):.1f} ms"),
        ("python -c 'import spherecp.cli' (process)", f"{process_ms('import spherecp.cli'):.1f} ms"),
        ("validate", f"{per_call_us(lambda: validate(spec), number=20000):.2f} µs"),
        ("pimsner_matrix", f"{per_call_us(lambda: pimsner_matrix(spec)):.1f} µs"),
        ("2x2 smith_normal_form", f"{per_call_us(lambda: smith_normal_form(m22)):.1f} µs"),
        ("k_groups", f"{per_call_us(lambda: k_groups(spec)):.1f} µs"),
        ("classify_report", f"{per_call_us(lambda: classify_report(spec)):.1f} µs"),
    ]

    def classify_main():
        with redirect_stdout(io.StringIO()):
            cli_main(["classify", "--sphere", "4", "--rank", "3", "--euler", "1"])

    rows.append(("classify via in-process main()", f"{per_call_us(classify_main, number=200) / 1000:.2f} ms"))
    for d, depth in ((2, 10), (2, 14), (2, 17), (3, 10), (4, 8)):
        deep = " ".join(["s1"] * depth) + " " + " ".join(["s1*"] * depth)
        x = parse_expression(d, f"1 + {deep}")
        y = parse_expression(d, " + ".join(f"s{i} s{i}*" for i in range(1, d + 1)) + f" + {deep}")
        runs = 1 if d ** depth > 100_000 else 3
        t = min(timeit.repeat(lambda: x.equals(y), number=1, repeat=runs))
        rows.append((f"equals, d={d}, depth {depth}", f"{t * 1000:.1f} ms"))
    rng = random.Random(0)
    for n in (10, 20, 30):
        a = IntMatrix.from_rows([[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)])
        t0 = time.perf_counter()
        snf = smith_normal_form(a)
        t = time.perf_counter() - t0
        ubits = max(abs(e).bit_length() for mat in (snf.U, snf.V) for row in mat.entries for e in row)
        dbits = max(e.bit_length() for e in snf.diagonal)
        rows.append((f"SNF n={n}, entries ±50", f"{t * 1000:.1f} ms, U/V {ubits} bits, diagonal {dbits} bits"))
    width = max(len(r[0]) for r in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")


if __name__ == "__main__":
    main()
