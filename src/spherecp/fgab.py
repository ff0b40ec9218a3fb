"""Exact linear algebra over the integers.

Smith normal form with unimodular transforms, invariant factors without
them, kernels and cokernels of integer matrices, and finitely generated
abelian groups kept in a canonical invariant-factor form so that
isomorphism testing is plain field equality.

Everything runs on Python's arbitrary-precision integers; no floating
point (and no numerical library) is involved anywhere.  One elimination
loop reduces the leading block of a work matrix, and whatever is stored
beside or below that block rides along with its row and column
operations.  :func:`smith_normal_form` keeps the transforms there.  For
a square nonsingular A the block is the Hermite form H = W A, found
modulo M = |det A| so that no entry of H reaches M, and W comes from one
exact solve.  The size of U and V is measured, not proven: the
benchmark's fixed dense matrices (n = 16..25, entries in ±50) and the
40 x 40 one drawn from ``random.Random(1)`` stay within
2 bits(M) + bits(n) bits, and over about 13 000 random nonsingular
inputs (n <= 40; entries in ±2, ±50 and ±10^6, and products with
planted torsion) the largest had 3.9 bits(M) + bits(n) bits.  The excess
comes from diagonalizing the few columns where H's diagonal is not 1.
On dense n x n matrices with entries in ±50 (2-core Intel Xeon, Python
3.11.7) it took about 1 ms at n=10, 7-10 ms at n=25, 33-36 ms at n=40
(270-bit U and V) and 0.19-0.20 s at n=60.  Every other shape,
rectangular or square and singular, runs on A itself beside identities,
and there the transforms grow far past the diagonal: a 21 x 20 matrix
with entries in ±50 took 46-50 ms and reached 61 k-bit entries.
:func:`invariant_factors`, behind :func:`cokernel`, stores nothing
beside the block and reduces every entry modulo a nonzero minor, so no
entry outgrows that minor.  On the same matrices and machine it took
6-12 ms at n=25, 30-51 ms at n=40 and 0.16-0.21 s at n=60 (the CPU's
speed swung between runs).  The 2x2 and 1x1 presentations of K-groups
take tens of microseconds.

>>> snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
>>> snf.diagonal
(1, 6)
>>> str(cokernel(IntMatrix.from_rows([[-2, 0], [-1, -2]])))
'Z/4'
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass
from math import gcd, prod
from typing import Iterable, Sequence

__all__ = [
    "IntMatrix",
    "SnfDecomposition",
    "FgAbGroup",
    "MatrixParseError",
    "LITERAL_DIGITS_BUDGET",
    "smith_normal_form",
    "invariant_factors",
    "cokernel",
    "kernel",
    "group_order",
    "parse_matrix",
]


class _PositionedParseError(ValueError):
    """Bad input text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class MatrixParseError(_PositionedParseError):
    """Malformed matrix text."""


def _require_int(what: str, *values: object) -> None:
    """Refuse with TypeError any value that is not an int, or is a bool."""
    for v in values:  # an exact int, the common case, skips both isinstance calls
        if v.__class__ is not int and (not isinstance(v, int) or isinstance(v, bool)):
            raise TypeError(f"{what} must be int, got {type(v).__name__}")


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, entries stored row-major as nested tuples.

    Either dimension may be zero; a 0 x n matrix still remembers n, which
    matters for kernels and cokernels of empty presentations.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = itertools.chain.from_iterable(self.entries)
        _require_int("matrix dimensions and entries", self.rows, self.cols, *entries)
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("cannot infer column count of an empty matrix; pass cols=")
            cols = len(data[0])
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        return self.entries[i][j]

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = tuple(zip(*other.entries)) if other.entries else ()
        data = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols) if cols else (0,) * other.cols
            for row in self.entries
        )
        return IntMatrix(self.rows, other.cols, data)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination; exact."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        rank, minor, _ = _bareiss(self.entries, self.cols)
        return minor if rank == self.rows else 0

    def to_text(self) -> str:
        """Render in the compact text format: rows joined by ';', entries by ','."""
        return ";".join(",".join(str(e) for e in row) for row in self.entries)


#: The longest integer literal, in digits, that either text parser accepts.
#: It is CPython's default limit on int <-> str conversion, so a literal
#: within it converts; the interpreter's limit itself is process-global
#: and is never changed here.
LITERAL_DIGITS_BUDGET = 4300


def _literal_int(text: str, position: int | None, error: type[ValueError]) -> int:
    """``int`` of the integer literal ``text``, found at ``position``.

    A literal past the budget, or past a lower int <-> str limit that the
    process has set, raises ``error`` at that position.
    """
    digits = len(text.lstrip("+-"))
    try:
        if digits <= LITERAL_DIGITS_BUDGET:
            return int(text)
        limit = f"LITERAL_DIGITS_BUDGET ({LITERAL_DIGITS_BUDGET} digits)"
    except ValueError:  # the token is all digits, so only the limit refuses it
        limit = f"the interpreter's int <-> str limit ({sys.get_int_max_str_digits()} digits)"
    raise error(f"integer literal of {digits} digits exceeds {limit}", position)


_MATRIX_TOKEN = re.compile(  # "],[" ends a row like ";"; "bad" matches where nothing else does
    r"[ \t\r\n]+|(?P<sep>[,;]|\][ \t\r\n]*,[ \t\r\n]*\[)|\[|\]|(?P<int>[+-]?\d+)|(?P<bad>.)", re.DOTALL
)


def parse_matrix(text: str) -> IntMatrix:
    """Parse matrix text like ``-2,0;-1,-2`` or ``[[-2,0],[-1,-2]]``.

    Rows are separated by ``;`` or ``],[``; other brackets and whitespace
    are ignored.  The text is read in one pass; on bad text
    :class:`MatrixParseError` reports the leftmost error with its
    character position.  An entry longer than
    :data:`LITERAL_DIGITS_BUDGET` digits is such an error.
    """
    rows: list[list[int]] = []
    current: list[int] = []
    expect_entry = True
    for m in _MATRIX_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "int":
            if not expect_entry:
                raise MatrixParseError("expected ',' or ';' between entries", m.start())
            current.append(_literal_int(m.group(), m.start(), MatrixParseError))
            expect_entry = False
        elif kind == "sep":
            if expect_entry:
                raise MatrixParseError("expected an integer entry", m.start())
            if m.group() != ",":
                rows.append(current)
                current = []
            expect_entry = True
        elif kind == "bad":
            raise MatrixParseError(f"unexpected character {m.group()!r}", m.start())
    if expect_entry:
        if not rows and not current:
            raise MatrixParseError("matrix text contains no entries", 0)
        raise MatrixParseError("matrix text ends with a dangling separator", len(text))
    rows.append(current)
    width = len(rows[0])
    for idx, row in enumerate(rows):
        if len(row) != width:
            raise MatrixParseError(f"row {idx + 1} has {len(row)} entries, expected {width}")
    return IntMatrix.from_rows(rows)


def _bareiss(entries: Sequence[Sequence[int]], cols: int) -> tuple[int, int, list[list[int]]]:
    """Rank r, one nonzero r x r minor and the eliminated rows, by Bareiss elimination.

    Fraction-free elimination with row and column swaps: after step k the
    pivot is the leading (k+1) x (k+1) minor of the swapped matrix, so
    every division is exact and no entry outgrows a minor.  The sign
    follows the swaps, so for a nonsingular square matrix the minor is
    the determinant.  Rank 0 gives the empty minor 1.

    Pivots are sought in the first ``cols`` columns only, but row
    operations act on whole rows: each eliminated row is one integer
    combination of the input rows, applied to the entries past column
    ``cols`` too, and every division stays exact there.
    """
    a = [list(row) for row in entries]
    m = len(a)
    sign = prev = 1
    for k in range(min(m, cols)):
        for j in range(k, cols):
            i = next((i for i in range(k, m) if a[i][j]), None)
            if i is not None:
                break
        else:
            return k, sign * prev, a
        if i != k:
            a[k], a[i] = a[i], a[k]
            sign = -sign
        if j != k:
            for row in a:
                row[k], row[j] = row[j], row[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        width = len(pivot_row)
        for i in range(k + 1, m):
            row = a[i]
            x = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * p - x * pivot_row[j]) // prev
            row[k] = 0
        prev = p
    return min(m, cols), sign * prev, a


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with g = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hermite_mod(entries: Sequence[Sequence[int]], modulus: int) -> list[list[int]]:
    """Hermite form of the row lattice of a square matrix with |det| = ``modulus``.

    H is upper triangular with positive diagonal, each entry above the
    diagonal reduced into [0, diagonal of its column), and its rows span
    the same lattice as the rows of the input.  That lattice contains
    modulus*Z^n, so the elimination runs modulo the modulus (Domich,
    Kannan, Trotter, Math. Oper. Res. 12 (1987); Hafner, McCurley, SIAM
    J. Comput. 20 (1991); Cohen, GTM 138, Alg. 2.4.8) and no entry
    reaches it.  Column k takes one sweep: a pivot that is a unit modulo
    r is scaled to 1 and clears the column by plain subtraction, any
    other pivot folds each entry in by a Bezout step.  The diagonal
    entry is then d = gcd(pivot, r); the lattice on the later columns has
    determinant r/d, so it contains (r/d)*Z^(n-k-1) and r drops to r/d.
    """
    n = len(entries)
    rows = [list(reversed(row)) for row in entries]  # column k last, so pop() drops it
    h: list[list[int]] = []
    r = modulus
    for k in range(n):
        unit = next((i for i in range(k, n) if gcd(rows[i][-1], r) == 1), k)
        rows[k], rows[unit] = rows[unit], rows[k]
        top = rows[k]
        a = top.pop() % r
        s = pow(a, -1, r) if gcd(a, r) == 1 else 1
        top = [s * x % r for x in top]
        a = a * s % r
        for i in range(k + 1, n):
            row = rows[i]
            b = row.pop() % r
            if not b:
                continue
            if a and b % a == 0:
                # left unreduced: q and top are below r, so a step adds less than r^2
                q = b // a
                rows[i] = [y - q * x for x, y in zip(top, row)]
            else:
                g, s, t = _egcd(a, b)
                u, v = -(b // g), a // g
                top, rows[i] = (
                    [(s * x + t * y) % r for x, y in zip(top, row)],
                    [(u * x + v * y) % r for x, y in zip(top, row)],
                )
                a = g
        d, s, _ = _egcd(a, r)
        if s != 1:
            top = [s * x % r for x in top]
        h.append([0] * k + [d] + top[::-1])
        r //= d
    # reduce above the diagonal from the bottom up; a reduced row is sparse
    # past its diagonal, so each reduction touches only its nonzero entries
    support: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        hi = h[i]
        for j in range(i + 1, n):
            q = hi[j] // h[j][j]
            if q:
                for c, y in support[j]:
                    hi[c] -= q * y
        support[i] = [(c, hi[c]) for c in range(i, n) if hi[c]]
    return h


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form D = U @ A @ V with U, V unimodular.

    D is diagonal with nonnegative entries forming a divisor chain
    d1 | d2 | ... ; zero entries come last.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i, i] for i in range(min(self.D.rows, self.D.cols)))


def _diagonalize(mat: list[list[int]], m: int, n: int, modulus: int = 0) -> None:
    """The one elimination loop: diagonalize the leading m x n block of ``mat``.

    Pivot choice is deterministic: the first entry of minimal absolute
    value in the working submatrix (row-major scan).  Entries that the
    pivot does not divide are folded in with Bezout row/column transforms,
    which is what forces the divisor-chain property of the diagonal.

    Row operations act on whole rows and column operations on every row
    from the pivot down, so whatever ``mat`` holds past column n of the
    first m rows, or in rows past m, rides along with the elimination;
    :func:`smith_normal_form` keeps U and V there.  With a nonzero
    ``modulus`` every entry is kept in [0, modulus): the rows then span
    the lattice of the block plus modulus*Z^n and no entry outgrows the
    modulus.
    """
    t = 0  # the pivot position; rows above t are zero from column t on

    def add_row(dst: int, src: int, q: int) -> None:
        if modulus:
            mat[dst] = [(x + q * y) % modulus for x, y in zip(mat[dst], mat[src])]
        else:
            mat[dst] = [x + q * y for x, y in zip(mat[dst], mat[src])]

    def add_col(dst: int, src: int, q: int) -> None:
        if modulus:
            for row in mat[t:]:
                row[dst] = (row[dst] + q * row[src]) % modulus
        else:
            for row in mat[t:]:
                row[dst] += q * row[src]

    def row_pair(i: int, s0: int, s1: int, r0: int, r1: int) -> None:
        # (R_t, R_i) <- (s0 R_t + s1 R_i, r0 R_t + r1 R_i), det s0*r1 - s1*r0 = 1
        rt, ri = mat[t], mat[i]
        mat[t] = [s0 * x + s1 * y for x, y in zip(rt, ri)]
        mat[i] = [r0 * x + r1 * y for x, y in zip(rt, ri)]
        if modulus:
            mat[t] = [x % modulus for x in mat[t]]
            mat[i] = [x % modulus for x in mat[i]]

    def col_pair(j: int, s0: int, s1: int, r0: int, r1: int) -> None:
        for row in mat[t:]:
            ct, cj = row[t], row[j]
            if modulus:
                row[t], row[j] = (s0 * ct + s1 * cj) % modulus, (r0 * ct + r1 * cj) % modulus
            else:
                row[t], row[j] = s0 * ct + s1 * cj, r0 * ct + r1 * cj

    def min_pos() -> tuple[int, int] | None:
        best: tuple[int, int, int] | None = None
        for i in range(t, m):
            row = mat[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        return i, j
        return None if best is None else (best[1], best[2])

    while t < min(m, n):
        pos = min_pos()
        if pos is None:
            break
        i0, j0 = pos
        mat[t], mat[i0] = mat[i0], mat[t]
        if j0 != t:
            for row in mat[t:]:
                row[t], row[j0] = row[j0], row[t]
        while True:
            for i in range(t + 1, m):
                b = mat[i][t]
                if not b:
                    continue
                p = mat[t][t]
                # a pivot that divides b takes the plain branch: _egcd(1, 1) is
                # (1, 0, 1), a swap, and modulo a modulus swaps can cycle forever
                if b % p == 0:
                    add_row(i, t, -(b // p))
                else:
                    g, s0, s1 = _egcd(p, b)
                    row_pair(i, s0, s1, -(b // g), p // g)
            for j in range(t + 1, n):
                b = mat[t][j]
                if not b:
                    continue
                p = mat[t][t]
                if b % p == 0:
                    add_col(j, t, -(b // p))
                else:
                    g, s0, s1 = _egcd(p, b)
                    col_pair(j, s0, s1, -(b // g), p // g)
            if any(mat[i][t] for i in range(t + 1, m)):
                # a Bezout column transform re-dirtied the pivot column;
                # each such transform shrinks |pivot|, so this terminates
                continue
            p = mat[t][t]
            if abs(p) == 1:  # a unit divides the rest of the submatrix
                break
            bad = next(
                ((i, j) for i in range(t + 1, m) for j in range(t + 1, n) if mat[i][j] % p),
                None,
            )
            if bad is None:
                break
            # pivot must divide the rest of the submatrix for the divisor
            # chain; pull the offending row up so the next pass gcds it in
            add_row(t, bad[0], 1)
        if mat[t][t] < 0:
            mat[t] = [-x for x in mat[t]]
        t += 1


def _hermite_and_transform(a: IntMatrix) -> list[list[int]] | None:
    """Rows of [H | W] with H = W A the Hermite form of square ``a``; None if singular.

    One Bareiss elimination of the rows of [A^T | I] gives det A and
    [T | F] with F A^T = T upper triangular.  :func:`_hermite_mod` then
    finds H modulo |det A|, and W^T solves A^T W^T = H^T, that is
    T W^T = F H^T; W is integral (H's rows lie in the row lattice of A),
    so back substitution divides exactly.  W is unimodular because H and
    A span the same lattice.
    """
    n = a.rows
    rank, det, tf = _bareiss(
        [list(col) + [int(i == j) for j in range(n)] for i, col in enumerate(zip(*a.entries))], n
    )
    if rank < n:
        return None
    h = _hermite_mod(a.entries, abs(det))
    f_cols = list(zip(*tf))[n:]
    fh = []  # columns of F H^T, one per row of H
    for hc in h:
        acc = [0] * n
        for y, col in zip(hc, f_cols):
            if y:
                acc = [s + y * f for s, f in zip(acc, col)]
        fh.append(acc)
    fh_rows = list(zip(*fh))
    x: list[list[int]] = [[]] * n  # rows of W^T, solved from the last up
    for i in range(n - 1, -1, -1):
        b = fh_rows[i]
        ti = tf[i]
        for j in range(i + 1, n):
            t = ti[j]
            if t:
                b = [s - t * y for s, y in zip(b, x[j])]
        p = ti[i]
        x[i] = [s // p for s in b]
    return [hi + list(wi) for hi, wi in zip(h, zip(*x))]


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Diagonalize ``a`` over the integers: find unimodular U, V with U A V = D.

    The elimination runs on a block with a left transform appended to its
    rows and the n x n identity stacked below it; the row operations turn
    the first into U and the column operations turn the second into V.
    For a square nonsingular A the block is its Hermite form H = W A with
    W beside it (:func:`_hermite_and_transform`), so U = U_H W and
    V = V_H for the Smith transforms U_H, V_H of H.  H's entries lie
    below M = |det A|, and on dense input H is the identity but for a few
    columns, so U and V stay within a small multiple of the size of M
    (the module docstring gives the measured sizes).  Every other shape
    runs on A beside the m x m identity, and there the transforms can
    grow far past the diagonal; :func:`invariant_factors` finds the same
    diagonal without them.
    """
    m, n = a.rows, a.cols
    mat = _hermite_and_transform(a) if m == n else None
    if mat is None:
        mat = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(a.entries)]
    mat += [[int(i == j) for j in range(n)] for i in range(n)]
    _diagonalize(mat, m, n)
    return SnfDecomposition(
        U=IntMatrix.from_rows([row[n:] for row in mat[:m]], cols=m),
        D=IntMatrix.from_rows([row[:n] for row in mat[:m]], cols=n),
        V=IntMatrix.from_rows(mat[m:], cols=n),
    )


def invariant_factors(a: IntMatrix) -> tuple[tuple[int, ...], int]:
    """The invariant factors other than 1 and the rank of ``a``, without transforms.

    Bareiss elimination finds the rank r and a nonzero r x r minor M.
    Every invariant factor d_i (i <= r) divides M, so the rows of ``a``
    plus M*Z^cols span a lattice with invariant factors d_1..d_r and then
    copies of M (Domich, Kannan, Trotter, Math. Oper. Res. 12 (1987)).
    The elimination runs modulo M, so no entry outgrows M, and its
    diagonal is already that chain: after step t every later residue is
    a multiple of g_t = gcd(pivot_t, M), so g_1 | g_2 | ... and the first
    r of them are d_1..d_r.

    >>> invariant_factors(IntMatrix.from_rows([[2, 4], [6, 8]]))
    ((2, 4), 2)
    >>> invariant_factors(IntMatrix.from_rows([[2, 4, 6]]))
    ((2,), 1)
    """
    rank, minor, _ = _bareiss(a.entries, a.cols)
    minor = abs(minor)
    if minor == 1:  # rank 0 included: the empty minor is 1
        return (), rank
    mat = [[x % minor for x in row] for row in a.entries]
    _diagonalize(mat, a.rows, a.cols, modulus=minor)
    return tuple(g for g in (gcd(mat[i][i], minor) for i in range(rank)) if g > 1), rank


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group Z^free_rank + Z/t1 + ... + Z/tk.

    Canonical form is enforced at construction: every invariant factor is
    at least 2 and t1 | t2 | ... | tk, so ``==`` is the isomorphism test:
    two groups are isomorphic exactly when they compare equal.

    >>> FgAbGroup.from_factors([2, 3])
    FgAbGroup(free_rank=0, torsion=(6,))
    >>> str(FgAbGroup(free_rank=1, torsion=(2, 4)))
    'Z + Z/2 + Z/4'
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if type(self.torsion) is not tuple:
            object.__setattr__(self, "torsion", tuple(self.torsion))
        _require_int("free rank and invariant factors", self.free_rank, *self.torsion)
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for t in self.torsion:
            if t < 2:
                raise ValueError(f"invariant factors must be >= 2, got {t}")
        for x, y in zip(self.torsion, self.torsion[1:]):
            if y % x:
                raise ValueError(f"invariant factors must form a divisor chain: {x} does not divide {y}")

    @classmethod
    def from_factors(cls, factors: Iterable[int]) -> "FgAbGroup":
        """Canonicalize an arbitrary direct sum of cyclic groups.

        Each factor is a cyclic order; 0 stands for an infinite cyclic
        summand and unit factors are dropped.  gcd/lcm folding computes
        the invariant factors without factoring anything.
        """
        free = 0
        chain: list[int] = []
        for f in factors:
            _require_int("cyclic orders", f)
            f = abs(f)
            if f == 0:
                free += 1
                continue
            for i, c in enumerate(chain):
                if f == 1:
                    break
                g = gcd(c, f)
                chain[i], f = g, c * f // g
            if f > 1:
                chain.append(f)
        return cls(free, tuple(c for c in chain if c > 1))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel(a: IntMatrix) -> FgAbGroup:
    """Quotient of Z^cols by the subgroup generated by the rows of ``a``.

    Each row is one relation among the ``cols`` generators.  The
    invariant factors give the torsion; generators not hit by any
    relation contribute free rank cols - rank.
    """
    torsion, rank = invariant_factors(a)
    return FgAbGroup(a.cols - rank, torsion)


def kernel(a: IntMatrix) -> FgAbGroup:
    """Kernel of ``a`` acting on column vectors Z^cols -> Z^rows.

    A subgroup of a free group is free, so the result has no torsion;
    its rank is cols - rank(a), and the rank alone needs no elimination
    past Bareiss.
    """
    return FgAbGroup(a.cols - _bareiss(a.entries, a.cols)[0])


def group_order(g: FgAbGroup) -> int | None:
    """Number of elements, or None when the group is infinite."""
    if g.free_rank:
        return None
    return prod(g.torsion)
