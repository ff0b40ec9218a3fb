"""Independent checkers for the benchmark's outputs.

Nothing here imports ``spherecp`` or compares against a stored copy of
its output.  Every expected value comes from a closed form, from the way
an input was built, or from exact integer arithmetic written out below
(a fraction-free determinant and rank, matrix products, gcds).

Each ``check_*`` function returns a list of error strings; an empty list
means the result passed.
"""

from __future__ import annotations

import json
from math import gcd

# -- integer helpers ----------------------------------------------------------

_CHUNK = 1000  # digits per int() call, well below the interpreter's str->int limit


def big_int(text: str) -> int:
    """Parse a decimal integer of any length without the str->int digit limit."""
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("+-")
    if not digits or not digits.isdigit():
        raise ValueError(f"not an integer: {text[:40]!r}")
    value = 0
    for start in range(0, len(digits), _CHUNK):
        chunk = digits[start:start + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def parse_matrix_text(text: str) -> list[list[int]]:
    """Rows separated by ';', entries by ','."""
    return [[big_int(e) for e in row.split(",")] for row in text.split(";")]


def matrix_text(rows: list[list[int]]) -> str:
    return ";".join(",".join(str(e) for e in row) for row in rows)


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def det(rows: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def rank(rows: list[list[int]]) -> int:
    """Rank over Q by Bareiss row reduction (each division is exact)."""
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0]) if a else 0
    r, prev = 0, 1
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        for i in range(r + 1, m):
            f = a[i][col]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[r])]
        prev = p
        r += 1
        if r == m:
            break
    return r


def entries_gcd(rows: list[list[int]]) -> int:
    g = 0
    for row in rows:
        for x in row:
            g = gcd(g, x)
    return g


# -- abelian groups in the documented text form --------------------------------


def group_text(free_rank: int, torsion: list[int]) -> str:
    """``Z^r + Z/t1 + ...``, ``Z`` for rank one, ``0`` for the trivial group."""
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


def even_k0(d: int, c: int) -> str:
    """K0 over an even sphere: Z/g + Z/((d-1)^2/g), g = gcd(d-1, c)."""
    g = gcd(d - 1, c)
    return group_text(0, [t for t in (g, (d - 1) ** 2 // g) if t > 1])


def odd_k0(d: int) -> str:
    """K0 over an odd sphere: Z/(d-1)."""
    return group_text(0, [d - 1] if d > 2 else [])


def trivial_k0(sphere: int, d: int) -> str:
    return even_k0(d, 0) if sphere % 2 == 0 else odd_k0(d)


def k_class_text(d: int, c: int) -> str:
    """The documented rendering of the K-class d + c·λ."""
    if c == 0:
        return str(d)
    mag = "λ" if abs(c) == 1 else f"{abs(c)}·λ"
    return f"{d} {'+' if c > 0 else '-'} {mag}"


def check_rerender(text: str) -> list[str]:
    """Structured output must re-render byte-identically from its parse."""
    try:
        again = json.dumps(json.loads(text), indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    except ValueError as exc:
        return [f"structured output is not JSON: {exc}"]
    return [] if again == text else ["structured output does not re-render byte-identically"]


# -- classify-survey ------------------------------------------------------------


def check_report(spec: tuple[int, int, int], report: dict) -> list[str]:
    n, d, c = spec
    errors = []
    k0 = even_k0(d, c) if n % 2 == 0 else odd_k0(d)
    want = {
        "spec": {"sphere_dim": n, "rank": d, "euler": c},
        "k_class": k_class_text(d, c),
        "K0": k0,
        "K1": "0",
        "delta1_matrix": f"{d},0;{c},{d}" if n % 2 == 0 else str(d),
        "distinguishable_from_trivial": k0 != trivial_k0(n, d),
    }
    for key, value in want.items():
        if report.get(key) != value:
            errors.append(f"{spec}: {key} = {report.get(key)!r}, expected {value!r}")
    return errors


def check_verdicts(spec, partner, verdicts: tuple[bool, bool, bool]) -> list[str]:
    """(graded_stably_isomorphic, delta1_equal, k_distinguishable) for a pair."""
    n, d, c = spec
    c2 = partner[2]
    if n % 2:
        want = (True, True, False)
    else:
        want = (c == c2, c == c2, even_k0(d, c) != even_k0(d, c2))
    if tuple(verdicts) != want:
        return [f"{spec} vs {partner}: verdicts {tuple(verdicts)}, expected {want}"]
    return []


def check_table(sphere: int, d_max: int, c_max: int, text: str, reports: dict) -> list[str]:
    """``table`` rows must agree with the library reports for the same specs."""
    errors = check_rerender(text)
    if errors:
        return errors
    obj = json.loads(text)
    if obj.get("sphere_dim") != sphere:
        errors.append(f"table sphere_dim {obj.get('sphere_dim')} != {sphere}")
    rows = obj.get("rows", [])
    grid = [(d, c) for d in range(2, d_max + 1) for c in range(0, c_max + 1)]
    if [(r.get("rank"), r.get("euler")) for r in rows] != grid:
        return errors + ["table rows do not cover the requested grid in order"]
    for r in rows:
        d, c = r["rank"], r["euler"]
        rep = reports[(sphere, d, c)]
        want = {
            "K0": rep["K0"],
            "k_class": rep["k_class"],
            "distinguishable_from_trivial": rep["distinguishable_from_trivial"],
            "gcd": gcd(d - 1, c),
        }
        for key, value in want.items():
            if r.get(key) != value:
                errors.append(f"table row ({d},{c}): {key} = {r.get(key)!r}, report says {value!r}")
    return errors


# -- snf-dense --------------------------------------------------------------------


def check_snf(a: list[list[int]], u, d, v) -> list[str]:
    """Certificate U·A·V = D, divisor chain, unimodular U and V, d1 = gcd."""
    m, n = len(a), len(a[0])
    errors = []
    if (len(u), len(u[0]), len(d), len(d[0]), len(v), len(v[0])) != (m, m, m, n, n, n):
        return [f"transform shapes do not fit a {m}x{n} matrix"]
    if matmul(matmul(u, a), v) != d:
        errors.append("U·A·V != D")
    k = min(m, n)
    if any(d[i][j] for i in range(m) for j in range(n) if i != j):
        errors.append("D is not diagonal")
    diag = [d[i][i] for i in range(k)]
    if any(x < 0 for x in diag):
        errors.append("D has a negative entry")
    nonzero = [x for x in diag if x]
    if diag[: len(nonzero)] != nonzero:
        errors.append("zero diagonal entries are not last")
    if any(y % x for x, y in zip(nonzero, nonzero[1:])):
        errors.append("diagonal is not a divisor chain")
    if nonzero and nonzero[0] != entries_gcd(a):
        errors.append(f"d1 = {nonzero[0]} but the gcd of the entries is {entries_gcd(a)}")
    det_a = det(a) if m == n else 0
    if det_a:
        # det U · det A · det V = det D, so |prod D| = |det A| forces |det U| = |det V| = 1
        prod = 1
        for x in diag:
            prod *= x
        if prod != abs(det_a):
            errors.append(f"product of the diagonal != |det A| = {abs(det_a)}")
    else:
        for name, t in (("U", u), ("V", v)):
            if abs(det(t)) != 1:
                errors.append(f"|det {name}| != 1")
    return errors


def check_cokernel(a: list[list[int]], free_rank: int, torsion: list[int], diag=None) -> list[str]:
    """Cokernel from the benchmark's own rank/determinant, and from D when given."""
    m, n = len(a), len(a[0])
    errors = []
    r = rank(a)
    if free_rank != n - r:
        errors.append(f"free rank {free_rank}, expected {n - r}")
    if any(t < 2 for t in torsion) or any(y % x for x, y in zip(torsion, torsion[1:])):
        errors.append("torsion is not a divisor chain of factors >= 2")
    g = entries_gcd(a)
    if g > 1 and (not torsion or torsion[0] != g or len(torsion) != r):
        errors.append(f"first invariant factor should be the entry gcd {g}")
    if m == n == r:
        prod = 1
        for t in torsion:
            prod *= t
        if prod != abs(det(a)):
            errors.append("order of the cokernel != |det A|")
    if diag is not None:
        nonzero = [x for x in diag if x]
        if (free_rank, list(torsion)) != (n - len(nonzero), [x for x in nonzero if x != 1]):
            errors.append("cokernel disagrees with the SNF diagonal")
    return errors


# -- word-identities ----------------------------------------------------------------


def check_identity(truth: bool, verdict) -> list[str]:
    if verdict is not truth:
        return [f"equals returned {verdict!r}, identity is {'true' if truth else 'false'} by construction"]
    return []
