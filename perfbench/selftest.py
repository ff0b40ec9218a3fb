"""Self-test of the checkers: each accepts a known-good result and rejects a corrupted one.

Run: python3 perfbench/selftest.py      (run.py also runs it before measuring)

The good results are written out by hand from worked examples, not taken
from the program.
"""

import json
import sys

import checks


def _render(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def cases():
    """(name, errors for the good result, errors for the corrupted result)."""
    # S^4, rank 3, euler 1: K0 = Z/4, the README example
    good = {"spec": {"sphere_dim": 4, "rank": 3, "euler": 1}, "k_class": "3 + λ", "K0": "Z/4",
            "K1": "0", "delta1_matrix": "3,0;1,3", "distinguishable_from_trivial": True}
    yield ("report K0", checks.check_report((4, 3, 1), good),
           checks.check_report((4, 3, 1), {**good, "K0": "Z/2 + Z/2"}))
    odd = {"spec": {"sphere_dim": 3, "rank": 4, "euler": 0}, "k_class": "4", "K0": "Z/3",
           "K1": "0", "delta1_matrix": "4", "distinguishable_from_trivial": False}
    yield ("report odd K1", checks.check_report((3, 4, 0), odd),
           checks.check_report((3, 4, 0), {**odd, "K1": "Z"}))
    yield ("verdicts", checks.check_verdicts((4, 3, 1), (4, 3, 0), (False, False, True)),
           checks.check_verdicts((4, 3, 1), (4, 3, 0), (True, False, True)))
    yield ("odd verdicts", checks.check_verdicts((5, 3, 0), (5, 3, 0), (True, True, False)),
           checks.check_verdicts((5, 3, 0), (5, 3, 0), (True, True, True)))

    # table on S^4 over d = 2, c = 0..1: K0 of rank 2 is trivial
    rows = [{"rank": 2, "euler": c, "k_class": k, "K0": "0", "gcd": 1,
             "distinguishable_from_trivial": False} for c, k in ((0, "2"), (1, "2 + λ"))]
    reports = {(4, 2, c): {"K0": "0", "k_class": r["k_class"], "distinguishable_from_trivial": False}
               for c, r in zip((0, 1), rows)}
    text = _render({"sphere_dim": 4, "rows": rows})
    bad_rows = [rows[0], {**rows[1], "K0": "Z/2"}]
    yield ("table rows", checks.check_table(4, 2, 1, text, reports),
           checks.check_table(4, 2, 1, _render({"sphere_dim": 4, "rows": bad_rows}), reports))
    yield ("re-render", checks.check_rerender(text),
           checks.check_rerender(json.dumps({"sphere_dim": 4, "rows": rows}, indent=1) + "\n"))

    # snf of [-2,0;-1,-2]: U = [0,-1;1,-2], D = diag(1,4), V = [1,-2;0,1]
    a = [[-2, 0], [-1, -2]]
    u, d, v = [[0, -1], [1, -2]], [[1, 0], [0, 4]], [[1, -2], [0, 1]]
    yield ("U·A·V = D", checks.check_snf(a, u, d, v), checks.check_snf(a, [[0, -1], [1, -1]], d, v))
    yield ("divisor chain", checks.check_snf([[1, 0], [0, 4]], [[1, 0], [0, 1]], [[1, 0], [0, 4]], [[1, 0], [0, 1]]),
           checks.check_snf([[2, 0], [0, 3]], [[1, 0], [0, 1]], [[2, 0], [0, 3]], [[1, 0], [0, 1]]))
    yield ("|det U| = 1 via det A", checks.check_snf(a, u, d, v),
           checks.check_snf([[1, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 0], [0, 2]], [[1, 0], [0, 1]]))
    yield ("|det V| = 1, rectangular",
           checks.check_snf([[1, 0, 0]], [[1]], [[1, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
           checks.check_snf([[1, 0, 0]], [[1]], [[1, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    yield ("cokernel vs D", checks.check_cokernel(a, 0, [4], [1, 4]), checks.check_cokernel(a, 0, [2, 2], [1, 4]))
    yield ("cokernel rank", checks.check_cokernel([[1, 2], [2, 4]], 1, [], None),
           checks.check_cokernel([[1, 2], [2, 4]], 0, [], None))
    yield ("cokernel order", checks.check_cokernel([[2, 0], [0, 3]], 0, [6], None),
           checks.check_cokernel([[2, 0], [0, 3]], 0, [12], None))
    yield ("identity verdict", checks.check_identity(True, True), checks.check_identity(True, False))
    # 7**6000 has 5072 digits, past the interpreter's default str<->int limit
    big = 7 ** 6000
    chunks, x = [], big
    while x:
        x, r = divmod(x, 10 ** 1000)
        chunks.append(f"{r:01000d}")
    text = "".join(reversed(chunks)).lstrip("0")
    corrupted = text[:-1] + str((int(text[-1]) + 1) % 10)
    yield ("big_int", [] if checks.big_int(text) == big else ["misread"],
           [] if checks.big_int(corrupted) == big else ["misread"])


def run() -> list[str]:
    failures = []
    for name, good, bad in cases():
        if good:
            failures.append(f"{name}: good result rejected: {good}")
        if not bad:
            failures.append(f"{name}: corrupted result accepted")
    return failures


if __name__ == "__main__":
    problems = run()
    for p in problems:
        print(p)
    print(f"selftest: {'FAILED' if problems else 'ok'}")
    sys.exit(1 if problems else 0)
