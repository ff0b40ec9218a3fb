"""Exact linear algebra over the integers.

Smith normal form with unimodular transforms, invariant factors without
them, kernels and cokernels of integer matrices, and finitely generated
abelian groups kept in a canonical invariant-factor form so that
isomorphism testing is plain field equality.

Everything runs on Python's arbitrary-precision integers; no floating
point (and no numerical library) is involved anywhere.  Two eliminations
do the work.  A Hermite sweep, modulo a nonzero minor M, puts a lattice
in triangular form with no entry reaching M; a lattice with a cyclic
quotient is read off adjugate columns instead, in O(n) modular products
per diagonal entry of its Hermite form above 1.  An exact loop
diagonalizes the leading block of a work matrix, and whatever is stored
beside or below that block rides along with its row and column
operations; a column operation by a multiple of the pivot column skips
the rows that are zero there.
:func:`smith_normal_form` has one route for every shape: one Hermite
form per side, each of a square nonsingular matrix built from A,
compresses it to an r x r core, r = rank A, whose transforms ride
along as the loop diagonalizes it; at full column rank the column side
has nothing to compress and is skipped, and a wide A is decomposed
through its transpose.  The Bareiss elimination of [A^T | I] updates
only the part of the unit block that can be nonzero.  The size of U and
V is measured, not proven; :func:`smith_normal_form` states the
envelope.
:func:`invariant_factors`, behind :func:`cokernel`, needs no
transforms.  It reads the factors off determinantal divisors when the
gcd of the entries and the minors decide them.  A matrix with at most
one row or column, or a 2 x 2, is decided with no elimination at all,
since every minor is an entry or the determinant; larger ones take
their minors from Bareiss elimination, of the transpose when A is
tall.  Otherwise it runs only the sweep, on A and then on transposes:
a nonsingular square modulo a multiple c of its next-to-last
determinantal divisor, which one linear solve beside that elimination,
for two right-hand sides at once, exposes, and any other shape modulo
c_r, the gcd of the r x r minors in the elimination's last pivot row.
Every triangular solve, here and in the Hermite forms, is the one back
substitution :func:`_back_substitute`.

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
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from math import gcd, prod
from operator import mul

__all__ = [
    "IntMatrix",
    "SnfDecomposition",
    "FgAbGroup",
    "MatrixParseError",
    "SpherecpInputError",
    "LITERAL_DIGITS_BUDGET",
    "smith_normal_form",
    "invariant_factors",
    "cokernel",
    "kernel",
    "group_order",
    "parse_matrix",
]


class SpherecpInputError(ValueError):
    """Bad input or a domain refusal; the command line maps it to exit code 1.

    ``position``, when given, is a 0-based character offset into the input text.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class MatrixParseError(SpherecpInputError):
    """Malformed matrix text."""


def _require_int(what: str, *values: object, error: type[Exception] = TypeError) -> None:
    """Refuse with ``error`` any value that is not an int, or is a bool."""
    for v in values:  # an exact int, the common case, skips both isinstance calls
        if v.__class__ is not int and (not isinstance(v, int) or isinstance(v, bool)):
            raise error(f"{what} must be int, got {type(v).__name__}")


def _trusted(cls, *fields, **attrs):
    """An instance of ``cls``, built without checks.

    The package's one unchecked constructor.  A value class, a named
    tuple, takes its ``fields`` in order, and ``tuple.__new__`` stores
    them, skipping the checks of the class's ``__new__``.  A
    :class:`~spherecp.cuntz_words.CuntzElement` takes its ``attrs`` by
    keyword, written straight to the instance ``__dict__``, skipping
    its ``__new__`` and its ``__setattr__`` guard.  Only for values the
    library derives from already validated ones: the caller vouches for
    every field, in the form the checked route stores it (tuples for a
    value class; for a ``CuntzElement``, a dict of nonzero int numerators
    and a positive common denominator that shares no factor with all of
    them).  Every public constructor and parser keeps its checks.
    """
    if attrs:
        self = object.__new__(cls)
        self.__dict__.update(attrs)
        return self
    return tuple.__new__(cls, fields)


class _Checked:
    """Base of the value classes whose ``__new__`` checks their fields.

    Named-tuple fields cannot be reassigned, and ``_make``, which
    ``_replace`` calls, builds through the checked constructor too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _set_unit(rows: list[list[int]], start: int = 0) -> list[list[int]]:
    """``rows``, with 1 written in row i at column start + i: the one writer of unit blocks."""
    for i, row in enumerate(rows, start):
        row[i] = 1
    return rows


def _signed_sum(terms: Iterable[tuple[bool, str]]) -> str:
    """Text of a sum of ``terms``, each a (negative, magnitude text) pair.

    The package's one writer of signed sums: no terms give ``0``, the
    first term is written ``x`` or ``-x`` and each later one ``+ x`` or
    ``- x``.

    >>> _signed_sum([(True, "2"), (False, "λ"), (True, "s1")])
    '-2 + λ - s1'
    """
    parts: list[str] = []
    for negative, mag in terms:
        if parts:
            parts.append(" - " if negative else " + ")
        elif negative:
            parts.append("-")
        parts.append(mag)
    return "".join(parts) or "0"


class IntMatrix(_Checked, namedtuple("IntMatrix", "rows cols entries")):
    """Dense integer matrix: ``rows`` x ``cols`` ints, with ``entries``
    stored row-major as a tuple of row tuples.

    The constructor takes the entries as any sequence of row sequences
    and stores them as tuples, so equal matrices compare and hash equal.

    Either dimension may be zero; a 0 x n matrix still remembers n, which
    matters for kernels and cokernels of empty presentations.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: Iterable[Iterable[int]]):
        entries = tuple(map(tuple, entries))
        _require_int("matrix dimensions and entries", rows, cols, *itertools.chain.from_iterable(entries))
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows in matrix")
        return tuple.__new__(cls, (rows, cols, entries))

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
        return cls(n, n, _set_unit([[0] * n for _ in range(n)]))

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
        rank, minor, _, _ = _bareiss(self.entries, self.cols)
        return minor if rank == self.rows else 0

    def to_text(self) -> str:
        """Render in the compact text format: rows joined by ';', entries by ','."""
        try:
            return ";".join(",".join(map(str, row)) for row in self.entries)
        except ValueError:  # an entry past the interpreter's int -> str limit
            return ";".join(",".join(map(_int_text, row)) for row in self.entries)


#: The longest integer literal, in digits, that either text parser accepts.
#: It is CPython's default limit on int <-> str conversion, so a literal
#: within it converts; the interpreter's limit itself is process-global
#: and is never changed here.
LITERAL_DIGITS_BUDGET = 4300

_LEAF_DIGITS = 512  # below 640, the least int -> str limit an interpreter accepts


def _int_text(x: int) -> str:
    """Decimal text of ``x``, exact at any size.

    Within the interpreter's int -> str limit this is ``str(x)``.  Past
    it, divide and conquer: x = high·10**k + low with k = 512·2**j the
    least such that x < 10**(2k), so both halves have at most k digits,
    and low is padded with zeros to k of them.  Pieces of at most 512
    digits convert under any limit, which itself is never changed.

    >>> _int_text(-10**5000) == "-1" + "0" * 5000
    True
    """
    try:
        return str(x)
    except ValueError:
        pass
    if x < 0:
        return "-" + _int_text(-x)
    k = _LEAF_DIGITS
    while 10 ** (2 * k) <= x:
        k *= 2
    high, low = divmod(x, 10**k)
    return _int_text(high) + _int_text(low).zfill(k)

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


_ROW_BREAK = re.compile(r"\][ \t\r\n]*,[ \t\r\n]*\[")
_MATRIX_TOKEN = re.compile(  # "],[" ends a row like ";"; "bad" matches where nothing else does
    rf"[ \t\r\n]+|(?P<sep>[,;]|{_ROW_BREAK.pattern})|\[|\]|(?P<int>[+-]?\d+)|(?P<bad>.)", re.DOTALL
)
# a character no token takes, or a literal past the budget
_REFUSED = re.compile(rf"[^\d \t\r\n\[\],;+-]|(?<!\d)\d{{{LITERAL_DIGITS_BUDGET + 1}}}")
_NO_BRACKETS = str.maketrans("[]", "  ")
_ACCEPTED = str.maketrans("", "", "0123456789 \t\r\n[],;+-")  # every ASCII character a token takes


def parse_matrix(text: str) -> IntMatrix:
    """Parse matrix text like ``-2,0;-1,-2`` or ``[[-2,0],[-1,-2]]``.

    Rows are separated by ``;`` or ``],[``; other brackets and whitespace
    are ignored.  Well-formed text is read by ``str`` methods and
    ``int``, with no Python loop over its tokens: one ``str.translate``
    checks its alphabet, and one regex search runs only if a character
    is left (a non-ASCII digit, which ``int`` takes, or an error) or the
    text is longer than the budget below.  Any other text is scanned
    token by token only to name its error.
    :class:`MatrixParseError` reports the leftmost error with its
    character position.  An entry longer than
    :data:`LITERAL_DIGITS_BUDGET` digits is such an error.

    >>> parse_matrix("[[-2, 0], [-1, -2]]").entries
    ((-2, 0), (-1, -2))
    """
    # the scan, too, reads "],[" as a row break wherever a "]" starts one
    flat = _ROW_BREAK.sub(";", text)
    # short text of accepted ASCII only needs no scan; what is left may be a non-ASCII digit
    if (len(flat) <= LITERAL_DIGITS_BUDGET and not flat.translate(_ACCEPTED)) or not _REFUSED.search(flat):
        # with "_" and other whitespace refused, int() takes an entry exactly
        # when it is a signed digit run padded with the whitespace left
        try:
            rows = [list(map(int, row.split(","))) for row in flat.translate(_NO_BRACKETS).split(";")]
        except ValueError:  # a malformed entry, or a literal past a lower int <-> str limit
            rows = []
        if len(set(map(len, rows))) == 1:
            return IntMatrix.from_rows(rows)
        for k, row in enumerate(rows, 1):  # every entry was read, so only the widths are wrong
            if len(row) != len(rows[0]):
                raise MatrixParseError(f"row {k} has {len(row)} entries, expected {len(rows[0])}")
    _raise_matrix_text_error(text)


def _raise_matrix_text_error(text: str):
    """Raise the :class:`MatrixParseError` that names the leftmost token error in ``text``.

    Text whose every entry reads comes here only if a token is out of
    place; :func:`parse_matrix` names a ragged row itself.
    """
    expect_entry = True
    seen = False  # an entry has come
    for m in _MATRIX_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "int":
            if not expect_entry:
                raise MatrixParseError("expected ',' or ';' between entries", m.start())
            _literal_int(m.group(), m.start(), MatrixParseError)
            expect_entry, seen = False, True
        elif kind == "sep":
            if expect_entry:
                raise MatrixParseError("expected an integer entry", m.start())
            expect_entry = True
        elif kind == "bad":
            raise MatrixParseError(f"unexpected character {m.group()!r}", m.start())
    if expect_entry:
        if not seen:
            raise MatrixParseError("matrix text contains no entries", 0)
        raise MatrixParseError("matrix text ends with a dangling separator", len(text))
    raise AssertionError(f"the scan accepted text that the search and int() refused: {text!r}")


def _bareiss(entries: Sequence[Sequence[int]], cols: int,
             unit: bool = False) -> tuple[int, int, list[list[int]], tuple[list[int], list[int]]]:
    """Rank r, one nonzero r x r minor, the eliminated rows and the pivot order, by Bareiss elimination.

    Fraction-free elimination with row and column swaps: after step k the
    pivot is the leading (k+1) x (k+1) minor of the swapped matrix, so
    every division is exact and no entry outgrows a minor.  The sign
    follows the swaps, so for a nonsingular square matrix the minor is
    the determinant.  Rank 0 gives the empty minor 1.  The pivot order
    is the input's row indices and column indices as the swaps left them;
    the first r of each name the rows and columns of the minor.  Row
    r - 1 holds r x r minors from column r - 1 to ``cols`` - 1: its
    pivot rows, the first r - 1 pivot columns and one more column.

    Pivots are sought in the first ``cols`` columns only, but row
    operations act on whole rows: each eliminated row is one integer
    combination of the input rows, applied to the entries past column
    ``cols`` too, and every division stays exact there.

    With ``unit``, the m rows end in the m x m identity, and only its
    nonzero part is updated.  A row swap swaps the two unit columns too,
    so at step k a row's unit part is nonzero only in columns 0..k-1 and
    its own; the other columns are zero in it and in the pivot row.  The
    unit columns are put back in input-row order before returning, so the
    rows are those of the full update.
    """
    a = [list(row) for row in entries]
    m = len(a)
    row_order, col_order = list(range(m)), list(range(cols))
    sign = prev = 1
    rank = min(m, cols)
    for k in range(rank):
        for j in range(k, cols):  # the first nonzero entry, column by column
            for i in range(k, m):
                if a[i][j]:
                    break
            else:
                continue
            break
        else:
            rank = k
            break
        if i != k:
            a[k], a[i] = a[i], a[k]
            row_order[k], row_order[i] = row_order[i], row_order[k]
            sign = -sign
            if unit:  # only rows k and i are nonzero in unit columns k and i
                for row in a[k], a[i]:
                    row[cols + k], row[cols + i] = row[cols + i], row[cols + k]
        if j != k:
            for row in a:
                row[k], row[j] = row[j], row[k]
            col_order[k], col_order[j] = col_order[j], col_order[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        width = cols + k + 1 if unit else len(pivot_row)
        for i in range(k + 1, m):
            row = a[i]
            x = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * p - x * pivot_row[j]) // prev
            if unit:  # the row's own unit column, where the pivot row is zero
                row[cols + i] = row[cols + i] * p // prev
            row[k] = 0
        prev = p
    if unit:  # unit column j belongs to input row row_order[j]
        inverse = sorted(range(m), key=row_order.__getitem__)
        for row in a:
            row[cols:] = [row[cols + j] for j in inverse]
    return rank, sign * prev, a, (row_order, col_order)


def _back_substitute(t: Sequence[Sequence[int]], rhs: Iterable[Sequence[int]]) -> Iterator[list[int]]:
    """The rows of X with T X = B, last first, for T the leading n x n block of the n rows ``t``.

    ``t`` is what :func:`_bareiss` leaves of [A | C] for a nonsingular
    n x n A, so T is upper triangular with nonzero diagonal.  ``rhs``
    gives the rows of B, last first, and one is read per row yielded.
    Row i of X is (B_i - sum_(j>i) T_ij X_j) / T_ii; the caller vouches
    that X is integral, so every division is exact.  With B = det A times
    the rows' entries past column n, X is adj(A)·C with its rows in
    pivot-column order (Cramer's rule).
    """
    n = len(t)
    x: list[list[int]] = []  # rows n-1, n-2, ... of X
    for i, b in zip(range(n - 1, -1, -1), rhs):
        ti = t[i]
        for tij, xj in zip(ti[n - 1:i:-1], x):
            if tij:
                b = [s - tij * y for s, y in zip(b, xj)]
        p = ti[i]
        x.append([s // p for s in b])
        yield x[-1]


def _egcd(a: int, b: int) -> tuple[int, int, int, int, int]:
    """Extended gcd: returns (g, s, t, u, v) with g = s*a + t*b, g >= 0,
    u = -(b/g) and v = a/g, so [[s, t], [u, v]] is unimodular and sends
    (a, b) to (g, 0)."""
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
    return old_r, old_s, old_t, -(b // old_r), a // old_r


def _echelon_mod(entries: Sequence[Sequence[int]], cols: int, modulus: int) -> list[list[int]]:
    """An upper triangular basis of the rows of ``entries`` plus modulus*Z^cols.

    Any shape is accepted; zero rows pad the input up to ``cols`` rows.
    The elimination runs modulo the modulus (Domich, Kannan, Trotter,
    Math. Oper. Res. 12 (1987); Hafner, McCurley, SIAM J. Comput. 20
    (1991); Cohen, GTM 138, Alg. 2.4.8), so no entry reaches it.  Column
    k takes one sweep: a pivot that is a unit is scaled to 1 and clears
    the column by plain subtraction, any other pivot folds each entry in
    by a Bezout step.  Row k of the result has d = gcd(pivot, modulus) in
    column k, and (modulus/d) times the pivot row, zero in column k
    modulo the modulus, joins the rows still to sweep; dividing the
    modulus by d instead would hold only if it were the determinant.
    """
    padding = [(0,) * cols] * (cols - len(entries))
    rows = [list(reversed(row)) for row in [*entries, *padding]]  # column k last, so pop() drops it
    h: list[list[int]] = []
    for k in range(cols):
        for i in range(k, len(rows)):
            if gcd(rows[i][-1], modulus) == 1:
                rows[k], rows[i] = rows[i], rows[k]
                break
        top = rows[k]
        a = top.pop() % modulus
        s = pow(a, -1, modulus) if gcd(a, modulus) == 1 else 1
        top = [s * x % modulus for x in top]
        a = a * s % modulus
        for i in range(k + 1, len(rows)):
            row = rows[i]
            b = row.pop() % modulus
            if not b:
                continue
            if a and b % a == 0:
                # left unreduced: q and top are below the modulus m, so a step adds less than m^2
                q = b // a
                rows[i] = [y - q * x for x, y in zip(top, row)]
            else:
                g, s, t, u, v = _egcd(a, b)
                top, rows[i] = (
                    [(s * x + t * y) % modulus for x, y in zip(top, row)],
                    [(u * x + v * y) % modulus for x, y in zip(top, row)],
                )
                a = g
        d = gcd(a, modulus)
        if d > 1:
            rows.append([modulus // d * x % modulus for x in top])
        s = pow(a // d, -1, modulus // d)  # s * pivot = d modulo the modulus
        if s != 1:
            top = [s * x % modulus for x in top]
        h.append([0] * k + [d] + top[::-1])
    return h


def _hermite_mod(entries: Sequence[Sequence[int]], modulus: int,
                 columns: Iterable[Sequence[int]] = ()) -> list[list[int]]:
    """Hermite form of the row lattice of a square matrix with |det| = ``modulus``.

    H is upper triangular with positive diagonal and each entry above the
    diagonal in [0, diagonal of its column).  A bottom-up pass reduces
    above the diagonal of a triangular basis, found one of two ways; it
    divides only at nonzero entries, and each reduction touches only the
    nonzero entries of the reduced row below.

    Write M = ``modulus``, L = Z^n A, and let ``columns`` hold integer
    combinations of the columns of adj(A); every u in L has
    u·adj(A) = 0 modulo M.  They are folded into one such combination y
    until its entries share no factor with M: with g = gcd(M, entries
    of y), the next column enters times the largest divisor of M prime
    to g, which keeps y nonzero modulo every prime that does not divide
    g.  ``columns`` is read lazily, and no column is taken past the one
    that brings g to 1, so a solve that yields them costs only the
    columns used.  Such a y maps Z^n onto Z/M by u -> u·y, so that map's
    kernel has index M, as L does, and contains L; the two are equal, and
    the quotient Z^n/L is cyclic (Micciancio, Warinschi, ISSAC 2001).  With
    g_n = M, g_k = gcd(y_k, g_(k+1)) and b a vector with
    sum_(j>k) b_j y_j = g_(k+1) modulo M, kept by one Bezout step per
    column, row k of the basis is (g_(k+1)/g_k) e_k - (y_k/g_k) b.  These
    rows lie in the kernel and their diagonal multiplies to M, so they
    span L.  b gains an entry only in a column where g falls, that is
    where the diagonal exceeds 1, so it is kept by its nonzero entries,
    and the rows take O(n·|b|) modular products; a Bezout factor of 1
    leaves b as it is, since only b modulo M matters.  Otherwise, as on
    every lattice whose quotient is not cyclic, L contains M*Z^n and
    :func:`_echelon_mod` sweeps it.  The Hermite form is unique, so both
    ways give the same H.
    """
    n = len(entries)
    y, g = [0] * n, modulus  # g = gcd(M, entries of y)
    for column in columns:
        c = modulus  # the largest divisor of M prime to g, so y + c·column keeps y modulo its primes
        while (e := gcd(c, g)) > 1:
            c //= e
        y = [(u + c * v) % modulus for u, v in zip(y, column)]
        g = gcd(modulus, *y)
        if g == 1:
            break
    if g > 1:
        h = _echelon_mod(entries, n, modulus)
    else:
        h, g, b = [[]] * n, modulus, []  # b by its nonzero entries, (column, value)
        for k in range(n - 1, -1, -1):
            gk, s, t, _, _ = _egcd(y[k], g)
            h[k] = row = [0] * n
            row[k], c, g = g // gk, -(y[k] // gk), gk
            for j, x in b:
                row[j] = c * x % modulus
            if t != 1:  # b matters only modulo M
                b = [(j, t * x % modulus) for j, x in b]
            if s:
                b.append((k, s))
    # reduce above the diagonal from the bottom up; a reduced row is sparse
    # past its diagonal, so each reduction touches only its nonzero entries
    support: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        hi = h[i]
        for j in range(i + 1, n):
            q = hi[j] and hi[j] // h[j][j]
            if q:
                for c, y in support[j]:
                    hi[c] -= q * y
        support[i] = [(c, hi[c]) for c in range(i, n) if hi[c]]
    return h


class SnfDecomposition(namedtuple("SnfDecomposition", "U D V")):
    """Smith normal form D = U @ A @ V with U, V unimodular.

    The fields ``U``, ``D`` and ``V`` are :class:`IntMatrix` values.  D
    is diagonal with nonnegative entries forming a divisor chain
    d1 | d2 | ... ; zero entries come last.
    """

    __slots__ = ()

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i, i] for i in range(min(self.D.rows, self.D.cols)))


def _least(mat: list[list[int]], t: int, n: int) -> tuple[int, int]:
    """Row and column of the first entry of least nonzero absolute value
    in the block of rows and columns t..n-1 of ``mat``, scanned row by row.

    An entry of absolute value 1 ends the scan.  The block is
    nonsingular, so some entry is nonzero.
    """
    best: tuple[int, int, int] | None = None
    for i in range(t, n):
        row = mat[i]
        for j in range(t, n):
            x = row[j]
            if x and (best is None or abs(x) < best[0]):
                best = (abs(x), i, j)
                if best[0] == 1:
                    return i, j
    return best[1], best[2]


def _diagonalize(mat: list[list[int]], n: int) -> None:
    """Diagonalize the leading n x n block of ``mat``, a nonsingular matrix, exactly, in place.

    Pivot choice is deterministic: the first entry of minimal absolute
    value in the working submatrix (row-major scan).  Entries that the
    pivot does not divide are folded in with Bezout row/column transforms,
    which is what forces the divisor-chain property of the diagonal.

    Row operations act on whole rows and column operations on every row
    from the pivot down, so whatever ``mat`` holds past column n of the
    first n rows, or in rows past n, rides along with the elimination;
    :func:`smith_normal_form` keeps U and V there.  Subtracting a multiple
    of the pivot column changes only the rows nonzero in it: below the
    pivot row, after the row pass, just those of the rows past n.
    """
    t = 0  # the pivot position; rows above t are zero from column t on
    while t < n:
        i0, j0 = _least(mat, t, n)
        mat[t], mat[i0] = mat[i0], mat[t]
        if j0 != t:
            for row in mat[t:]:
                row[t], row[j0] = row[j0], row[t]
        while True:
            for i in range(t + 1, n):
                b = mat[i][t]
                if not b:
                    continue
                p = mat[t][t]
                # a pivot that divides b takes the plain branch: one row
                # operation instead of the Bezout pair's two
                if b % p == 0:
                    q = -(b // p)
                    mat[i] = [x + q * y for x, y in zip(mat[i], mat[t])]
                else:
                    # (R_t, R_i) <- (s0 R_t + s1 R_i, r0 R_t + r1 R_i), det s0*r1 - s1*r0 = 1
                    _, s0, s1, r0, r1 = _egcd(p, b)
                    rt, ri = mat[t], mat[i]
                    mat[t] = [s0 * x + s1 * y for x, y in zip(rt, ri)]
                    mat[i] = [r0 * x + r1 * y for x, y in zip(rt, ri)]
            for j in range(t + 1, n):
                b = mat[t][j]
                if not b:
                    continue
                p = mat[t][t]
                if b % p == 0:  # only rows nonzero in the pivot column change
                    q = b // p
                    for row in mat[t:]:
                        if row[t]:
                            row[j] -= q * row[t]
                else:  # the same Bezout pair on columns t and j
                    _, s0, s1, r0, r1 = _egcd(p, b)
                    for row in mat[t:]:
                        ct, cj = row[t], row[j]
                        row[t], row[j] = s0 * ct + s1 * cj, r0 * ct + r1 * cj
            if any(mat[i][t] for i in range(t + 1, n)):
                # a Bezout column transform re-dirtied the pivot column;
                # each such transform shrinks |pivot|, so this terminates
                continue
            p = mat[t][t]
            if abs(p) == 1:  # a unit divides the rest of the submatrix
                break
            bad = next(
                ((i, j) for i in range(t + 1, n) for j in range(t + 1, n) if mat[i][j] % p),
                None,
            )
            if bad is None:
                break
            # pivot must divide the rest of the submatrix for the divisor
            # chain; pull the offending row up so the next pass gcds it in
            mat[t] = [x + y for x, y in zip(mat[t], mat[bad[0]])]
        if mat[t][t] < 0:
            mat[t] = [-x for x in mat[t]]
        t += 1


def _transposed_bareiss(a: Sequence[Sequence[int]], n: int):
    """:func:`_bareiss` of the rows of [A^T | I_n] for the m x n ``a``, pivots among its m columns.

    The rows are A's columns, so the pivot order lists A's pivot columns, then its pivot rows.
    Only a square A's Hermite form reads the image F of I_n, so a
    non-square A's rows carry no identity; the pivots, which never look
    past column m, are the same.
    """
    columns = list(zip(*a)) or [()] * n  # with no rows, A still has n columns
    rows = _set_unit([[*col] + [0] * n for col in columns], n) if len(a) == n else columns
    return _bareiss(rows, len(a), unit=len(a) == n)


def _hermite_and_transform(x: Sequence[Sequence[int]], pivots: Iterable[int], eliminated=None) -> list[list[int]]:
    """Rows of [H | W] with H = W A the Hermite form of A = [X | e_i for each row i of X not in ``pivots``].

    X has full column rank r and its rows ``pivots`` are independent, so
    the square A is nonsingular, and W X = [H_11; 0] with H_11 the
    leading r x r block of H.  When every row is a pivot, A is X itself.

    One Bareiss elimination of the rows of [A^T | I] (``eliminated``, if
    the caller has run it) gives det A and [T | F] with F A^T = T upper
    triangular.  :func:`_hermite_mod` then finds H modulo |det A|, and
    W^T solves A^T W^T = H^T, that is T W^T = F H^T, by
    :func:`_back_substitute`; W is integral (H's rows lie in the row
    lattice of A).  W is unimodular because H and A span the same lattice.

    The same solve, with right-hand side det·F, hands :func:`_hermite_mod`
    up to four columns of adj(A), last first and one at a time, for its
    rule on cyclic quotients: L = Z^n A lies in the kernel of u -> u·y
    modulo |det A| for every combination y of them, and when y's entries
    share no factor with |det A| that kernel has index |det A|, as L
    does, so the two are equal.  Modulo a prime p of a cyclic quotient,
    column j of adj(A) is v_j times one vector, where v spans the
    relations v A = 0 modulo p; v vanishes on the padded rows, so A lists
    its pivot rows last.  The lattice does not depend on the order of its
    generators, so H is the same, and W's columns are put back in the
    order of X's rows.
    """
    pivots = set(pivots)
    others = [i for i in range(len(x)) if i not in pivots]
    order = others + [i for i in range(len(x)) if i in pivots]  # the pivot rows last
    a = [[*x[i]] + [0] * len(others) for i in order]
    _set_unit(a[:len(others)], len(pivots))  # X has r = len(pivots) columns
    n = len(a)
    _, det, tf, _ = eliminated or _transposed_bareiss(a, n)
    adjugate = _back_substitute(tf, ([det * f for f in row[n:]] for row in reversed(tf)))
    h = _hermite_mod(a, abs(det), itertools.islice(adjugate, 4))
    f_cols = list(zip(*tf))[n:]
    fh = []  # columns of F H^T, one per row of H, each summed over the row's nonzeros
    for hc in h:
        acc = [0] * n
        for c in itertools.compress(range(n), hc):
            y = hc[c]
            acc = [s + y * f for s, f in zip(acc, f_cols[c])]
        fh.append(acc)
    wt = list(_back_substitute(tf, reversed(list(zip(*fh)))))[::-1]  # T W^T = F H^T
    wt = [w for _, w in sorted(zip(order, wt))]  # W's columns back in the order of X's rows
    return [hi + list(wi) for hi, wi in zip(h, zip(*wt))]


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Diagonalize ``a`` over the integers: find unimodular U, V with U A V = D.

    One route serves every shape.  Bareiss elimination of the rows of
    [A^T | I] finds the rank r and a nonzero r x r minor M of A, on its
    pivot rows P and columns Q.  One compression per side to a nonsingular
    core follows (Storjohann, ETH thesis 2000), each one call of
    :func:`_hermite_and_transform`, the Hermite form of a square
    nonsingular matrix:

    * columns, only if r < n: the columns of A^T at P beside the unit
      columns e_j, j not in Q, give W' with A W'^T = [B | 0]; at r = n,
      W' = I and B = A;
    * rows: B beside the unit rows e_i, i not in P, gives W with
      W B = [H_11; 0].

    An exact loop then diagonalizes the r x r block H_11, U_H H_11 V_H = D_11,
    with W's first r rows beside it and W'^T's first r columns below it,
    so U = diag(U_H, I) W and V = W'^T diag(V_H, I) come out with no
    separate product.  A square nonsingular A is the case r = m = n: the
    row side pads nothing and reuses the first elimination, so the route
    runs one Bareiss elimination and one Hermite form.  A tall A of full
    column rank runs two eliminations and one Hermite form.  A wide A
    (m < n) is decomposed through A^T: U' A^T V' = D' gives
    V'^T A U'^T = D'^T, so it returns (V'^T, D'^T, U'^T), and at full row
    rank it too runs two eliminations and one Hermite form.  Every other
    shape (singular, rank-deficient or zero) runs three and two.

    Each Hermite form runs modulo its determinant, a divisor of M, so no
    entry of H reaches M.  When the quotient of Z^n by its lattice is
    cyclic, as for most dense squares, the form is read off columns of
    the adjugate that its elimination already holds, in O(n·k) modular
    products for k diagonal entries of H above 1 (one to three there): a
    lattice of index |det| inside the kernel of u -> u·y modulo |det|,
    for a y whose entries share no factor with |det|, is that kernel
    (:func:`_hermite_mod`).  Any other lattice takes the sweep modulo
    |det|; both give the same H, so U and V do not depend on the way.
    The size of U and V is measured, not proven.
    Over about 13 000 random square nonsingular inputs (n <= 40; entries
    in ±2, ±50 and ±10^6, and products with planted torsion) the largest
    entry had 3.9 bits(M) + bits(n) bits.  Over 1050 random rectangular
    and rank-deficient inputs up to 40 x 40 (entries in ±2, ±7 and ±50,
    half with planted rank) it had 3.7 bits(M) + bits(max(m, n)) bits,
    and at most 1.8 times the bits of Hadamard's bound on the r x r
    minors.  M itself is no bound: the last n - r columns of V are a
    kernel basis, which can need entries as large as the largest r x r
    minor, and M may be smaller.
    :func:`invariant_factors` finds the same diagonal without transforms.
    """
    m, n = a.rows, a.cols
    if m < n:  # U' A^T V' = D' gives V'^T A U'^T = D'^T
        t = smith_normal_form(_transpose(a))
        return SnfDecomposition(U=_transpose(t.V), D=_transpose(t.D), V=_transpose(t.U))
    r, _, _, (q, p) = eliminated = _transposed_bareiss(a.entries, n)  # A's pivot columns q, rows p
    wt = _set_unit([[0] * n for _ in range(n)])  # W'^T
    b = a.entries
    if r < n:  # the last n - r columns of W'^T span the kernel of A
        w = [row[n:] for row in _hermite_and_transform([[b[i][j] for i in p[:r]] for j in range(n)], q[:r])]
        wt = [list(col) for col in zip(*w)]
        b = [[sum(map(mul, row, wk)) for wk in w[:r]] for row in a.entries]
    # a square nonsingular A has nothing to pad, so its first elimination is the Hermite form's own
    hw = _hermite_and_transform(b, p[:r], eliminated if r == m == n else None)
    mat = [h[:r] + h[m:] for h in hw[:r]] + [row[:r] for row in wt]
    _diagonalize(mat, r)
    u = [row[r:] for row in mat[:r]] + [h[m:] for h in hw[r:]]
    d = [[0] * i + [mat[i][i]] + [0] * (n - i - 1) if i < r else [0] * n for i in range(m)]
    v = [row + w[r:] for row, w in zip(mat[r:], wt)]
    return SnfDecomposition(
        U=_trusted(IntMatrix, m, m, tuple(map(tuple, u))),
        D=_trusted(IntMatrix, m, n, tuple(map(tuple, d))),
        V=_trusted(IntMatrix, n, n, tuple(map(tuple, v))),
    )


def _transpose(a: IntMatrix) -> IntMatrix:
    """A^T, built unchecked; a 0 x n matrix gives n empty rows."""
    return _trusted(IntMatrix, a.cols, a.rows, tuple(zip(*a.entries)) or ((),) * a.cols)


def _divisor_chain(orders: Iterable[int]) -> list[int]:
    """Invariant factors t1 | t2 | ..., units dropped, of cyclic groups of positive ``orders``.

    gcd/lcm folding finds them without factoring anything.
    """
    chain: list[int] = []
    for f in orders:
        for i, c in enumerate(chain):
            if f == 1:
                break
            g = gcd(c, f)
            chain[i], f = g, c * f // g
        if f > 1:
            chain.append(f)
    return [c for c in chain if c > 1]


def invariant_factors(a: IntMatrix) -> tuple[tuple[int, ...], int]:
    """The invariant factors other than 1 and the rank of ``a``, without transforms.

    The work is done by the rows-level read :func:`_factors`, which
    takes only the rows and the column count.  :func:`cokernel` calls it
    on ``a``, and :mod:`spherecp.pimsner` on the rows of a K-group
    presentation, so that route builds no :class:`IntMatrix`.

    Let g be the gcd of the entries and D_k the gcd of the k x k minors.
    When every minor is an entry or the determinant, as for at most one
    row or column and for a 2 x 2, the rank r and M = D_r are read with
    no elimination: M = |det| at rank 2, g at rank 1, and the empty
    minor 1 at rank 0; there c_r below is M.  Any other shape runs
    Bareiss elimination, which finds r and a nonzero r x r minor M, a
    multiple of D_r.  A tall ``a`` (more rows than columns) is eliminated
    through its transpose, which has the same factors and rank.  Row r-1
    of the elimination holds M and, in the columns after it, other
    r x r minors: the pivot rows, the first r-1 pivot columns and one
    more column.  So D_r divides c_r, the gcd of M and those minors, and
    c_r divides M.  A tall matrix's transpose holds rows - r + 1 of them
    there, where the matrix itself would hold one; a nonsingular square
    holds M alone, so c_n = M.  When g**r = c_r every invariant factor
    d_i (i <= r) is g, and no sweep runs; the proof is Smith's
    determinantal divisors (Phil. Trans. 151 (1861)):

    * g divides every d_i, so g**r divides d_1 ... d_r;
    * d_1 ... d_r = D_r divides c_r;
    * so g**r = c_r forces d_1 ... d_r = g**r, and each d_i = g.

    Rank 0 and c_r = 1 are cases of this exit.  A square nonsingular n x n
    ``a`` has a second exit, by the same divisors D_k = d_1 ... d_k.
    D_n = M, and g**(n-1) divides D_(n-1), which divides c, the gcd of M
    and of any integer combinations of (n-1) x (n-1) minors.  At n = 2
    the entries are all the 1 x 1 minors, so c = g.  At n >= 3 the
    Bareiss pass carries two more columns, v = (1, ..., n) and
    w = ((-1)^i); c takes the two minors that the elimination leaves in
    its row n-2, and, only if they do not decide, the entries of
    ±adj(A)·v and ±adj(A)·w, one linear solve with the two as its
    right-hand sides, back-substituted a row at a time through the
    triangular rows (:func:`_back_substitute`) until c decides.  A small
    prime p of d_n divides every entry of adj(A)·v in about one square
    in p; w decides most of those.  One linear solve exposing a large
    divisor of the determinant is the idea of Abbott, Bronstein, Mulders
    (ISSAC 1999).  When c = g**(n-1),
    the factors are g, n-1 times, then M / g**(n-1).  So a matrix read
    with no elimination never reaches the sweep: at rank r <= 1, M = g**r,
    and at rank 2, c = g divides M.

    Otherwise the sweep runs.  Since every d_i divides c_r, the rows of
    ``a`` plus c_r*Z^cols span a lattice with invariant factors d_1..d_r
    and cols - r copies of c_r (Domich, Kannan, Trotter, Math. Oper. Res.
    12 (1987)).  A nonsingular square, where c_n = M, takes the modulus
    c instead: the rows plus c*Z^n have the factors gcd(d_i, c), and each
    d_i with i < n divides D_(n-1), hence c, so the first n-1 of them are
    d_1..d_(n-1) exactly, and d_n = M / (d_1 ... d_(n-1)).
    :func:`_echelon_mod` makes the lattice triangular modulo its
    modulus.  The sweep runs again on the transpose until each diagonal
    entry divides its row; column operations from the top row down
    would then clear the rows without touching the diagonal, whose
    divisor chain is the lattice's.

    >>> invariant_factors(IntMatrix.from_rows([[1, 0, 0], [1, 2, 0], [-1, -3, 3]]))
    ((6,), 3)

    That 3 x 3 has g = 1 and M = 6; its minors in Bareiss row 1 leave
    c = 2, and the first row of the solve, the last entries of
    ±adj(A)·v and ±adj(A)·w, brings c down to 1, so no sweep runs.

    >>> invariant_factors(IntMatrix.from_rows([[2, 4], [6, 8]]))
    ((2, 4), 2)
    >>> invariant_factors(IntMatrix.from_rows([[4, 6]]))
    ((2,), 1)
    >>> invariant_factors(IntMatrix.from_rows([[2, 4], [1, 2]]))
    ((), 1)
    >>> invariant_factors(IntMatrix.from_rows([[2, 0], [1, 2]]))
    ((4,), 2)
    """
    return _factors(a.entries, a.cols)


def _factors(entries: Sequence[Sequence[int]], cols: int) -> tuple[tuple[int, ...], int]:
    """:func:`invariant_factors` of the matrix with these rows and ``cols`` columns."""
    # the gcd of the entries, a row at a time: gcd(*chain(...)) left about
    # 144 KB of argument tuples in CPython's free list, raising peak RSS
    g = 0
    for row in entries:
        g = gcd(g, *row)
    n = len(entries)
    if n == cols == 2:  # the minors are the entries and the determinant
        (p, q), (s, t) = entries
        minor = abs(p * t - q * s)
        rank, minor = (2, minor) if minor else (1, g) if g else (0, 1)
    elif min(n, cols) <= 1:  # the minors are the entries
        rank, minor = (1, g) if g else (0, 1)
    else:  # a tall matrix is eliminated through its transpose, whose row r-1 holds more minors
        width = max(n, cols)
        if n == cols:  # a square carries v = (1, ..., n) and w = ((-1)^i), for the adjoint solves
            rows = [(*row, i, 1 - 2 * (i & 1)) for i, row in enumerate(entries, 1)]
        else:
            rows = entries if n < cols else list(zip(*entries))
        rank, minor, eliminated, _ = _bareiss(rows, width)
        # c_r, the gcd of M and the other r x r minors in Bareiss row r-1: D_r | c_r | M, and a
        # nonsingular square has none, so c_n = M; at rank 0 the empty minor 1 leaves c_0 = 1
        minor = gcd(minor, *eliminated[rank - 1][rank:width])
    if g**rank == minor:  # rank 0 included: the empty minor is 1
        return (g,) * rank if g > 1 else (), rank
    modulus = minor
    if rank == n == cols:  # D_(n-1) divides c, and c divides M
        floor = g ** (n - 1)
        c = gcd(*eliminated[n - 2][n - 2:n], minor) if n > 2 else g
        if c != floor:  # the two (n-1)-minors in Bareiss row n-2 leave D_(n-1) open
            vw = ([minor * row[n], minor * row[n + 1]] for row in reversed(eliminated))
            for z in _back_substitute(eliminated, vw):  # rows of ±[adj(A)·v | adj(A)·w], permuted
                c = gcd(c, *z)
                if c == floor:
                    break
        if c == floor:
            return ((g,) * (n - 1) if g > 1 else ()) + (minor // floor,), n
        modulus = c
    h = _echelon_mod(entries, cols, modulus)
    # the gcd of a row is its diagonal entry exactly when that entry divides the row
    while (diagonal := [row[k] for k, row in enumerate(h)]) != [gcd(*row) for row in h]:
        h = _echelon_mod(list(zip(*h)), cols, modulus)
    chain = _divisor_chain(diagonal)
    if rank == n == cols:  # the first n-1 factors are exact, and their product and M give d_n
        return (*chain[:-1], minor // prod(chain[:-1])), n
    return tuple(chain[: len(chain) - (cols - rank)]), rank


class FgAbGroup(_Checked, namedtuple("FgAbGroup", "free_rank torsion")):
    """Finitely generated abelian group Z^free_rank + Z/t1 + ... + Z/tk.

    The fields are the int ``free_rank`` and the tuple ``torsion`` of the
    invariant factors t1, ..., tk.  Canonical form is enforced at
    construction: every invariant factor is at least 2 and
    t1 | t2 | ... | tk, so ``==`` is the isomorphism test: two groups are
    isomorphic exactly when they compare equal.

    >>> FgAbGroup.from_factors([2, 3])
    FgAbGroup(free_rank=0, torsion=(6,))
    >>> str(FgAbGroup(free_rank=1, torsion=(2, 4)))
    'Z + Z/2 + Z/4'
    """

    __slots__ = ()

    def __new__(cls, free_rank: int = 0, torsion: Iterable[int] = ()):
        torsion = tuple(torsion)
        _require_int("free rank and invariant factors", free_rank, *torsion)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for t in torsion:
            if t < 2:
                raise ValueError(f"invariant factors must be >= 2, got {t}")
        for x, y in zip(torsion, torsion[1:]):
            if y % x:
                raise ValueError(f"invariant factors must form a divisor chain: {x} does not divide {y}")
        return tuple.__new__(cls, (free_rank, torsion))

    @classmethod
    def from_factors(cls, factors: Iterable[int]) -> "FgAbGroup":
        """Canonicalize an arbitrary direct sum of cyclic groups.

        Each factor is a cyclic order; 0 stands for an infinite cyclic
        summand and unit factors are dropped.
        """
        factors = tuple(factors)
        _require_int("cyclic orders", *factors)
        return cls(factors.count(0), tuple(_divisor_chain([abs(f) for f in factors if f])))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(["Z/" + _int_text(t) for t in self.torsion])
        return " + ".join(parts) if parts else "0"


def cokernel(a: IntMatrix) -> FgAbGroup:
    """Quotient of Z^cols by the subgroup generated by the rows of ``a``.

    Each row is one relation among the ``cols`` generators.  The
    invariant factors give the torsion; generators not hit by any
    relation contribute free rank cols - rank.
    """
    torsion, rank = _factors(a.entries, a.cols)
    return _trusted(FgAbGroup, a.cols - rank, torsion)


def kernel(a: IntMatrix) -> FgAbGroup:
    """Kernel of ``a`` acting on column vectors Z^cols -> Z^rows.

    A subgroup of a free group is free, so the result has no torsion;
    its rank is cols - rank(a), and the rank alone needs no elimination
    past Bareiss.
    """
    return _trusted(FgAbGroup, a.cols - _bareiss(a.entries, a.cols)[0], ())


def group_order(g: FgAbGroup) -> int | None:
    """Number of elements, or None when the group is infinite."""
    if g.free_rank:
        return None
    return prod(g.torsion)
