"""Exact linear algebra over the integers.

Smith normal form with unimodular transforms, kernels and cokernels of
integer matrices, and finitely generated abelian groups kept in a
canonical invariant-factor form so that isomorphism testing is plain
field equality.

Everything runs on Python's arbitrary-precision integers; no floating
point (and no numerical library) is involved anywhere.  The classical
elimination below builds both transforms, and their entries grow far
past the diagonal.  On dense n x n matrices with entries in ±50 (2-core
Intel Xeon at 2.0 GHz, Python 3.11.7) it took about 1 ms at n=10, about
0.9 s at n=30 and 9.4 s at n=40; n=60 did not finish in 290 s.  The 2x2
and 1x1 presentations of K-groups take tens of microseconds.

>>> snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
>>> snf.diagonal
(1, 6)
>>> str(cokernel(IntMatrix.from_rows([[-2, 0], [-1, -2]])))
'Z/4'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, prod
from typing import Iterable, Sequence

__all__ = [
    "IntMatrix",
    "SnfDecomposition",
    "FgAbGroup",
    "MatrixParseError",
    "smith_normal_form",
    "cokernel",
    "kernel",
    "group_order",
    "groups_isomorphic",
    "parse_matrix",
]


class MatrixParseError(ValueError):
    """Malformed matrix text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


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
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix")
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise TypeError(f"matrix entries must be int, got {type(e).__name__}")

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

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.entries else tuple(() for _ in range(self.cols)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(-e for e in row) for row in self.entries))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

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
        if not self.is_square:
            raise ValueError("determinant requires a square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def to_text(self) -> str:
        """Render in the compact text format: rows joined by ';', entries by ','."""
        return ";".join(",".join(str(e) for e in row) for row in self.entries)


_MATRIX_TOKEN = re.compile(r"[ \t\r\n]+|\[|\]|(?P<sep>[,;])|(?P<int>[+-]?\d+)")


def parse_matrix(text: str) -> IntMatrix:
    """Parse matrix text like ``-2,0;-1,-2`` (brackets and whitespace are ignored).

    The text is read in one pass; on bad text :class:`MatrixParseError`
    reports the leftmost error with its character position.
    """
    rows: list[list[int]] = []
    current: list[int] = []
    expect_entry = True
    pos = 0
    while pos < len(text):
        m = _MATRIX_TOKEN.match(text, pos)
        if m is None:
            raise MatrixParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "int":
            if not expect_entry:
                raise MatrixParseError("expected ',' or ';' between entries", pos)
            current.append(int(m.group("int")))
            expect_entry = False
        elif m.lastgroup == "sep":
            if expect_entry:
                raise MatrixParseError("expected an integer entry", pos)
            if m.group("sep") == ";":
                rows.append(current)
                current = []
            expect_entry = True
        pos = m.end()
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

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x)

    def cokernel(self) -> "FgAbGroup":
        """Quotient of Z^cols by the subgroup generated by the rows of A.

        Each row of A is one relation among the ``cols`` generators.  The
        diagonal gives the invariant factors directly (unit factors drop
        out); generators not hit by any relation contribute free rank.
        """
        nonzero = [x for x in self.diagonal if x]
        return FgAbGroup(
            free_rank=self.D.cols - len(nonzero),
            torsion=tuple(x for x in nonzero if x != 1),
        )

    def kernel(self) -> "FgAbGroup":
        """Kernel of A acting on column vectors Z^cols -> Z^rows.

        A subgroup of a free group is free, so the result has no torsion;
        its rank is cols - rank(A).
        """
        return FgAbGroup(free_rank=self.D.cols - self.rank)


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Diagonalize ``a`` over the integers: find unimodular U, V with U A V = D.

    Pivot choice is deterministic: the first entry of minimal absolute
    value in the working submatrix (row-major scan).  Entries that the
    pivot does not divide are folded in with Bezout row/column transforms,
    which is what forces the divisor-chain property of the diagonal.
    """
    m, n = a.rows, a.cols
    mat = [list(row) for row in a.entries]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i: int, j: int) -> None:
        mat[i], mat[j] = mat[j], mat[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for dat in (mat, v):
            for row in dat:
                row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, q: int) -> None:
        mat[dst] = [x + q * y for x, y in zip(mat[dst], mat[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst: int, src: int, q: int) -> None:
        for dat in (mat, v):
            for row in dat:
                row[dst] += q * row[src]

    def negate_row(i: int) -> None:
        mat[i] = [-x for x in mat[i]]
        u[i] = [-x for x in u[i]]

    def row_pair(t: int, i: int, s0: int, s1: int, r0: int, r1: int) -> None:
        # (R_t, R_i) <- (s0 R_t + s1 R_i, r0 R_t + r1 R_i), det s0*r1 - s1*r0 = 1
        for dat in (mat, u):
            rt, ri = dat[t], dat[i]
            dat[t] = [s0 * x + s1 * y for x, y in zip(rt, ri)]
            dat[i] = [r0 * x + r1 * y for x, y in zip(rt, ri)]

    def col_pair(t: int, j: int, s0: int, s1: int, r0: int, r1: int) -> None:
        for dat in (mat, v):
            for row in dat:
                ct, cj = row[t], row[j]
                row[t] = s0 * ct + s1 * cj
                row[j] = r0 * ct + r1 * cj

    def min_pos(t: int) -> tuple[int, int] | None:
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

    t = 0
    while t < min(m, n):
        pos = min_pos(t)
        if pos is None:
            break
        i0, j0 = pos
        if i0 != t:
            swap_rows(t, i0)
        if j0 != t:
            swap_cols(t, j0)
        while True:
            for i in range(t + 1, m):
                b = mat[i][t]
                if not b:
                    continue
                p = mat[t][t]
                if b % p == 0:
                    add_row(i, t, -(b // p))
                else:
                    g, s0, s1 = _egcd(p, b)
                    row_pair(t, i, s0, s1, -(b // g), p // g)
            for j in range(t + 1, n):
                b = mat[t][j]
                if not b:
                    continue
                p = mat[t][t]
                if b % p == 0:
                    add_col(j, t, -(b // p))
                else:
                    g, s0, s1 = _egcd(p, b)
                    col_pair(t, j, s0, s1, -(b // g), p // g)
            if any(mat[i][t] for i in range(t + 1, m)):
                # a Bezout column transform re-dirtied the pivot column;
                # each such transform shrinks |pivot|, so this terminates
                continue
            p = mat[t][t]
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
            negate_row(t)
        t += 1

    return SnfDecomposition(
        U=IntMatrix.from_rows(u, cols=m),
        D=IntMatrix.from_rows(mat, cols=n),
        V=IntMatrix.from_rows(v, cols=n),
    )


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group Z^free_rank + Z/t1 + ... + Z/tk.

    Canonical form is enforced at construction: every invariant factor is
    at least 2 and t1 | t2 | ... | tk, so two groups are isomorphic exactly
    when the dataclasses are equal.

    >>> FgAbGroup.from_factors([2, 3])
    FgAbGroup(free_rank=0, torsion=(6,))
    >>> str(FgAbGroup(free_rank=1, torsion=(2, 4)))
    'Z + Z/2 + Z/4'
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.free_rank, int) or isinstance(self.free_rank, bool):
            raise TypeError(f"free rank must be int, got {type(self.free_rank).__name__}")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if type(self.torsion) is not tuple:
            object.__setattr__(self, "torsion", tuple(self.torsion))
        for t in self.torsion:
            if not isinstance(t, int) or isinstance(t, bool):
                raise TypeError(f"invariant factors must be int, got {type(t).__name__}")
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
            if not isinstance(f, int) or isinstance(f, bool):
                raise TypeError(f"cyclic orders must be int, got {type(f).__name__}")
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
    """Quotient of Z^cols by the row span of ``a``; see :meth:`SnfDecomposition.cokernel`."""
    return smith_normal_form(a).cokernel()


def kernel(a: IntMatrix) -> FgAbGroup:
    """Kernel of ``a`` on column vectors; see :meth:`SnfDecomposition.kernel`."""
    return smith_normal_form(a).kernel()


def group_order(g: FgAbGroup) -> int | None:
    """Number of elements, or None when the group is infinite."""
    if g.free_rank:
        return None
    return prod(g.torsion)


def groups_isomorphic(g: FgAbGroup, h: FgAbGroup) -> bool:
    """Isomorphism test; canonical form makes this plain equality."""
    return g == h
