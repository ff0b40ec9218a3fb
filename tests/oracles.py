"""Independent brute-force oracles for the test-suite.

Everything here recomputes expected values by a route that shares no code
with the library: gcd/determinant identities for tiny Smith forms, coset
enumeration for quotient orders, direct solution enumeration for kernels.
Slow on purpose -- these only run on small inputs.
"""

from __future__ import annotations

import contextlib
import re
import signal
import sys
import time
from math import gcd


def snf_2x2_oracle(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Invariant factors of [[a, b], [c, d]] from first principles.

    The first invariant factor is the gcd of the entries; the product of
    both is |det|.  Rank-deficient cases degrade to (gcd, 0) or (0, 0).
    """
    g = gcd(gcd(a, b), gcd(c, d))
    det = a * d - b * c
    if g == 0:
        return (0, 0)
    if det == 0:
        return (g, 0)
    return (g, abs(det) // g)


def determinantal_divisors(rows: list[list[int]]) -> tuple[int, ...]:
    """Smith's determinantal divisors D_1, ..., D_min(m, n) of a matrix with at most 4 rows or columns.

    D_k is the gcd of every k x k minor, each minor expanded by Leibniz's
    formula over all permutations; D_k = 0 past the rank.  The invariant
    factors are then d_k = D_k / D_(k-1), with D_0 = 1.  Brute force:
    C(m, k) C(n, k) k! terms for each k.
    """
    import itertools

    m, n = len(rows), len(rows[0]) if rows else 0
    if min(m, n) > 4:
        raise ValueError("oracle needs at most 4 rows or columns")

    def leibniz(block: list[list[int]]) -> int:
        total = 0
        for perm in itertools.permutations(range(len(block))):
            inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
            term = -1 if inversions % 2 else 1
            for i, j in enumerate(perm):
                term *= block[i][j]
            total += term
        return total

    divisors = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in itertools.combinations(range(m), k):
            for cs in itertools.combinations(range(n), k):
                g = gcd(g, leibniz([[rows[i][j] for j in cs] for i in rs]))
        divisors.append(g)
    return tuple(divisors)


def coset_count_2x2(matrix) -> int:
    """Order of Z^2 / (column lattice of a nonsingular 2x2 matrix).

    Counts lattice points inside the box [0, |det|)^2 by solving the
    Cramer system exactly; the quotient order is |box| / |points found|.
    Never touches any normal-form code.
    """
    (a, b), (c, d) = matrix
    det = a * d - b * c
    if det == 0:
        raise ValueError("oracle needs a nonsingular matrix")
    n = abs(det)
    inside = 0
    for p in range(n):
        for q in range(n):
            # p = x*a + y*b, q = x*c + y*d must have an integer solution
            if (p * d - q * b) % det == 0 and (a * q - c * p) % det == 0:
                inside += 1
    return (n * n) // inside


def kernel_rank_by_enumeration(rows: list[list[int]], box: int = 6) -> int:
    """Rank of the integer solution set of ``rows @ x = 0``.

    Enumerates all integer vectors in [-box, box]^n, keeps the solutions,
    and computes the rank of the lattice they span by exact fraction-free
    elimination on a list of vectors.  Only usable for very small n.
    """
    import itertools
    from fractions import Fraction

    n = len(rows[0])
    sols = [
        v
        for v in itertools.product(range(-box, box + 1), repeat=n)
        if all(sum(r * x for r, x in zip(row, v)) == 0 for row in rows)
    ]
    basis: list[list[Fraction]] = []
    for v in sols:
        vec = [Fraction(x) for x in v]
        for b in basis:
            lead = next((i for i, x in enumerate(b) if x), None)
            if lead is not None and vec[lead]:
                coef = vec[lead] / b[lead]
                vec = [x - coef * y for x, y in zip(vec, b)]
        if any(vec):
            basis.append(vec)
    return len(basis)


def invariant_factors_by_primes(factors: list[int]) -> tuple[int, ...]:
    """Canonical invariant-factor chain of a direct sum of cyclic groups,
    computed the slow way: trial-division factorization into elementary
    divisors, then zipping prime powers largest-to-largest."""
    primes: dict[int, list[int]] = {}
    for f in factors:
        f = abs(f)
        if f <= 1:
            continue
        p = 2
        while p * p <= f:
            if f % p == 0:
                e = 0
                while f % p == 0:
                    f //= p
                    e += 1
                primes.setdefault(p, []).append(e)
            p += 1
        if f > 1:
            primes.setdefault(f, []).append(1)
    width = max((len(v) for v in primes.values()), default=0)
    chain = []
    for slot in range(width):
        t = 1
        for p, exps in primes.items():
            exps_sorted = sorted(exps, reverse=True)
            if slot < len(exps_sorted):
                t *= p ** exps_sorted[slot]
        chain.append(t)
    return tuple(sorted(c for c in chain if c > 1))


def random_int_matrix(rng, max_dim: int = 6, max_entry: int = 50, min_dim: int = 0):
    """Random IntMatrix with independently chosen dimensions and entries."""
    from spherecp.fgab import IntMatrix

    m = rng.randint(min_dim, max_dim)
    n = rng.randint(min_dim, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(m)],
        cols=n,
    )


def random_unimodular(rng, n: int, steps: int = 12):
    """Random determinant +-1 matrix built from elementary operations."""
    from spherecp.fgab import IntMatrix

    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.choice(("shear", "swap", "negate"))
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == "shear" and i != j:
            q = rng.randint(-3, 3)
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        elif op == "swap" and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == "negate":
            m[i] = [-x for x in m[i]]
    return IntMatrix.from_rows(m, cols=n)


def plain_bareiss(entries, cols: int):
    """Bareiss elimination updating every entry of every row, as ``(rank, minor, rows, (row order, column order))``.

    The same pivot search, swaps and exact divisions as
    ``spherecp.fgab._bareiss``, with no sparse update of any block: after
    step k each row below k is ``(row * pivot - row[k] * pivot row) / previous pivot``
    across its whole width.
    """
    a = [list(row) for row in entries]
    m = len(a)
    row_order, col_order = list(range(m)), list(range(cols))
    sign = prev = 1
    for k in range(min(m, cols)):
        found = next(((i, j) for j in range(k, cols) for i in range(k, m) if a[i][j]), None)
        if found is None:
            return k, sign * prev, a, (row_order, col_order)
        i, j = found
        if i != k:
            a[k], a[i] = a[i], a[k]
            row_order[k], row_order[i] = row_order[i], row_order[k]
            sign = -sign
        if j != k:
            for row in a:
                row[k], row[j] = row[j], row[k]
            col_order[k], col_order[j] = col_order[j], col_order[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, m):
            x = a[i][k]
            a[i] = a[i][:k] + [0] + [(y * p - x * z) // prev for y, z in zip(a[i][k + 1:], a[k][k + 1:])]
        prev = p
    return min(m, cols), sign * prev, a, (row_order, col_order)


def is_divisor_chain(diagonal: tuple[int, ...]) -> bool:
    """True when the diagonal is nonnegative, zeros trail, and each nonzero
    entry divides the next."""
    nonzero = [x for x in diagonal if x]
    if any(x < 0 for x in diagonal):
        return False
    if list(diagonal[: len(nonzero)]) != nonzero:
        return False
    return all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def expand(x, depth: int):
    """``x`` rewritten so every adjoint part has length exactly ``depth``.

    Applies S_mu S_nu* = sum of S_{mu w} S_{nu w}* over all |w| =
    depth - |nu|, so every |nu| must be at most ``depth``; each term
    becomes d^(depth - |nu|) terms.  At a common depth the refined
    monomials are linearly independent, so comparing expansions decides
    equality in the algebra without the library's normal form, at a cost
    exponential in the depth.
    """
    import itertools

    from spherecp.cuntz_words import CuntzElement

    out = {}
    for (mu, nu), c in x.terms().items():
        if depth < len(nu):
            raise ValueError(f"cannot expand to depth {depth}: a term has adjoint length {len(nu)}")
        for w in itertools.product(range(1, x.base + 1), repeat=depth - len(nu)):
            out[mu + w, nu + w] = out.get((mu + w, nu + w), 0) + c
    return CuntzElement(x.base, out)


def _nonzero(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if c}


def fraction_product(x_terms: dict, y_terms: dict) -> dict:
    """Coefficient map ``{(mu, nu): Fraction}`` of the product of two such maps.

    The reference product: multiplies every pair of terms with plain
    ``Fraction`` arithmetic, the left factor's terms outer, where
    S_nu* S_alpha is S_rho when alpha = nu rho, S_rho* when nu = alpha rho,
    and 0 otherwise.  A key whose sum reaches 0 leaves the map at once, so
    if it comes back it goes last: the map's key order is the order of
    the library's product, which ``repr`` and ``terms()`` show.
    """
    out: dict = {}
    for (mu, nu), a in x_terms.items():
        for (alpha, beta), b in y_terms.items():
            if alpha[: len(nu)] == nu:
                key = (mu + alpha[len(nu):], beta)
            elif nu[: len(alpha)] == alpha:
                key = (mu, beta + nu[len(alpha):])
            else:
                continue
            total = out.get(key, 0) + a * b
            if total:
                out[key] = total  # a key already present keeps its place
            else:
                out.pop(key, None)
    return out


def fraction_normal_form(base: int, terms: dict) -> dict:
    """Coefficient map of the Leavitt normal form, one letter at a time.

    Rewrites S_{mu d} S_{nu d}* = S_mu S_nu* - sum over i < d of
    S_{mu i} S_{nu i}* (the unit relation between mu and nu) until no
    term's mu and nu both end in d, with ``Fraction`` coefficients.
    """
    todo = dict(terms)
    out: dict = {}
    while todo:
        (mu, nu), c = todo.popitem()
        if mu and nu and mu[-1] == nu[-1] == base:
            todo[mu[:-1], nu[:-1]] = todo.get((mu[:-1], nu[:-1]), 0) + c
            for i in range(1, base):
                key = (mu[:-1] + (i,), nu[:-1] + (i,))
                todo[key] = todo.get(key, 0) - c
        else:
            out[mu, nu] = out.get((mu, nu), 0) + c
    return _nonzero(out)


def render_element(x) -> str:
    """The text of a word-calculus element, written from its output format.

    The terms of ``x.terms()`` come in the order (|mu|, mu, |nu|, nu).  A
    term is its word, ``sK`` for each letter of mu and then ``sK*`` for
    each letter of nu from the last, after the magnitude of its
    coefficient, an integer or ``p/q`` in lowest terms; the magnitude is
    left out when it is 1 and the word is not empty.  The first term has
    a ``-`` in front when its coefficient is negative, and each later one
    is joined by `` + `` or `` - ``.  With no terms the text is ``0``.
    """
    terms = x.terms()
    text = ""
    for mu, nu in sorted(terms, key=lambda key: (len(key[0]), key[0], len(key[1]), key[1])):
        c = terms[mu, nu]
        pieces = [f"s{i}" for i in mu] + [f"s{i}*" for i in nu[::-1]]
        if abs(c) != 1 or not pieces:
            pieces.insert(0, str(abs(c)))  # Fraction writes p or p/q, in lowest terms
        body = " ".join(pieces)
        if not text:
            text = "-" + body if c < 0 else body
        else:
            text += (" - " if c < 0 else " + ") + body
    return text or "0"


def render_k_class(z: int, z1: int) -> str:
    """The text of the K-class ``z + z1·λ``, written from its output format.

    The rank part ``z``, when nonzero, comes first as an integer; the λ
    part, when nonzero, is ``λ`` or ``k·λ`` for its magnitude k, with a
    ``-`` in front when it comes first and is negative, or joined by
    `` + `` or `` - `` after the rank part.  With both zero the text is ``0``.
    """
    lam = "" if not z1 else "λ" if abs(z1) == 1 else f"{abs(z1)}·λ"
    if not z:
        return ("-" + lam if z1 < 0 else lam) or "0"
    return f"{z} {'-' if z1 < 0 else '+'} {lam}" if lam else str(z)


class MatrixTextError(ValueError):
    """A refusal by :func:`parse_matrix_tokens`, worded as the library words it.

    ``position`` is the 0-based offset of the error, or None for a ragged row.
    """

    def __init__(self, message: str, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


_TOKEN = re.compile(
    r"[ \t\r\n]+|(?P<sep>[,;]|\][ \t\r\n]*,[ \t\r\n]*\[)|\[|\]|(?P<int>[+-]?\d+)|(?P<bad>.)", re.DOTALL
)


def parse_matrix_tokens(text: str) -> list[list[int]]:
    """The rows of matrix text, read one regex token at a time.

    The library's parser as it was before well-formed text skipped the
    scan: ``;`` or ``],[`` ends a row, ``,`` an entry, other
    brackets and whitespace are skipped, and the first token out of
    place raises :class:`MatrixTextError` at its position.  A literal
    past 4300 digits, or past a lower int <-> str limit that the process
    has set, is refused at its position too.
    """
    rows: list[list[int]] = []
    current: list[int] = []
    expect_entry = True
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "int":
            if not expect_entry:
                raise MatrixTextError("expected ',' or ';' between entries", m.start())
            literal = m.group()
            digits = len(literal.lstrip("+-"))
            if digits > 4300:
                limit = "LITERAL_DIGITS_BUDGET (4300 digits)"
            elif 0 < sys.get_int_max_str_digits() < digits:
                limit = f"the interpreter's int <-> str limit ({sys.get_int_max_str_digits()} digits)"
            else:
                current.append(int(literal))
                expect_entry = False
                continue
            raise MatrixTextError(f"integer literal of {digits} digits exceeds {limit}", m.start())
        elif kind == "sep":
            if expect_entry:
                raise MatrixTextError("expected an integer entry", m.start())
            if m.group() != ",":
                rows.append(current)
                current = []
            expect_entry = True
        elif kind == "bad":
            raise MatrixTextError(f"unexpected character {m.group()!r}", m.start())
    if expect_entry:
        if not rows and not current:
            raise MatrixTextError("matrix text contains no entries", 0)
        raise MatrixTextError("matrix text ends with a dangling separator", len(text))
    rows.append(current)
    for idx, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise MatrixTextError(f"row {idx + 1} has {len(row)} entries, expected {len(rows[0])}")
    return rows


class ExpressionTextError(ValueError):
    """A refusal by :func:`parse_expression_tokens`, worded as the library words it.

    ``position`` is the 0-based offset of the error.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_EXPRESSION_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<gen>s(?P<idx>\d+)(?P<star>\*)?)|(?P<num>(?P<numer>\d+)(?:/(?P<den>\d+))?)|(?P<op>[+-])"
    r"|(?P<bad>.)", re.DOTALL
)


def _expression_literal(literal: str, position: int) -> int:
    digits = len(literal)
    if digits > 4300:
        limit = "LITERAL_DIGITS_BUDGET (4300 digits)"
    elif 0 < sys.get_int_max_str_digits() < digits:
        limit = f"the interpreter's int <-> str limit ({sys.get_int_max_str_digits()} digits)"
    else:
        return int(literal)
    raise ExpressionTextError(f"integer literal of {digits} digits exceeds {limit}", position)


def parse_expression_tokens(base: int, text: str) -> dict:
    """The coefficient map ``{(mu, nu): Fraction}`` of expression text, read one regex token at a time.

    The library's parser as it was before well-formed text skipped the
    scan: each term's coefficient is a ``Fraction`` multiplied atom by
    atom, its monomial S_mu S_nu* is reduced after every generator or
    adjoint (or becomes 0), and ``+``/``-`` close it into the map in the
    order the terms appear, dropping coefficients that cancel.  The first
    token out of place raises :class:`ExpressionTextError` at its
    position, and so does a literal past 4300 digits or past a lower
    int <-> str limit that the process has set.
    """
    from fractions import Fraction

    out: dict = {}
    coeff = None  # the open term's coefficient; None between terms
    key = None  # its reduced (mu, nu); None once the term is 0
    sign = 1
    op_pos = None

    def close():
        if key is not None and coeff:
            total = out.get(key, 0) + coeff
            if total:
                out[key] = total  # a key already present keeps its place
            else:
                del out[key]

    for m in _EXPRESSION_TOKEN.finditer(text):
        kind, pos = m.lastgroup, m.start()
        if kind == "bad":
            raise ExpressionTextError(f"unexpected character {m.group()!r}", pos)
        if kind == "op":
            if coeff is not None:
                close()
                coeff = None
            elif op_pos is not None:
                raise ExpressionTextError("empty term before operator", pos)
            sign = 1 if m.group() == "+" else -1
            op_pos = pos
        elif kind != "ws":
            if coeff is None:
                coeff, key = Fraction(sign), ((), ())
            if kind == "num":
                numer = _expression_literal(m.group("numer"), pos)
                den = _expression_literal(m.group("den"), m.start("den")) if m.group("den") else 1
                if den == 0:
                    raise ExpressionTextError("zero denominator", pos)
                coeff *= Fraction(numer, den)
                continue
            i = _expression_literal(m.group("idx"), m.start("idx"))
            if not 1 <= i <= base:
                raise ExpressionTextError(f"generator index {i} out of range 1..{base}", pos)
            if key is None:
                continue
            mu, nu = key
            if m.group("star"):
                key = (mu, (i,) + nu)  # S_mu S_nu* S_i* = S_mu S_(i nu)*
            elif not nu:
                key = (mu + (i,), ())
            elif nu[0] == i:  # S_nu* S_i with nu = (i, rest...) is S_rest*
                key = (mu, nu[1:])
            else:
                key = None
    if coeff is None:
        if op_pos is not None:
            raise ExpressionTextError("expression ends with a dangling operator", op_pos)
        raise ExpressionTextError("empty expression", 0)
    close()
    return out


# -- generation and timing helpers (not oracles, but shared by several suites)


class TimeLimitExceeded(BaseException):
    """Raised by :func:`time_limit`.

    Not an ``Exception``: hypothesis would catch one as a failing example
    and shrink it, running the hang again with no limit left, and code
    under test that reports every ``Exception`` would turn it into a result.
    """


@contextlib.contextmanager
def time_limit(seconds):
    """Raise :class:`TimeLimitExceeded` in the block once ``seconds`` of wall time pass.

    Blocks nest: on exit the enclosing limit gets back its handler and
    the time it had left, less the time this block took.  An enclosing
    limit that ran out inside this block fires as soon as it exits.  The
    exit holds SIGALRM back while it restores the enclosing limit, and
    drops this block's alarm if it came too late to fire in the block.
    """

    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    start = time.monotonic()
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        try:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})  # runs expire if the alarm came just now
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if signal.SIGALRM in signal.sigpending():
                signal.sigwait({signal.SIGALRM})
            signal.signal(signal.SIGALRM, previous)
            if outer:
                signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 1e-6))
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def random_cuntz_element(rng, base: int, max_terms: int = 4, max_len: int = 3):
    """Random reduced element: up to max_terms monomials with words of
    length <= max_len and small nonzero rational coefficients."""
    from fractions import Fraction

    from spherecp.cuntz_words import CuntzElement

    def word():
        return tuple(rng.randint(1, base) for _ in range(rng.randint(0, max_len)))

    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.choice([1, 1, 2, 3])
        coeffs[(word(), word())] = Fraction(num, den)
    return CuntzElement(base, coeffs)


def random_homogeneous_element(rng, base: int, degree: int, max_terms: int = 3, max_len: int = 3):
    """Random element all of whose monomials have gauge degree ``degree``."""
    from fractions import Fraction

    from spherecp.cuntz_words import CuntzElement

    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        nu_len = rng.randint(max(0, -degree), max_len)
        mu_len = nu_len + degree
        if mu_len < 0 or mu_len > max_len + abs(degree):
            continue
        mu = tuple(rng.randint(1, base) for _ in range(mu_len))
        nu = tuple(rng.randint(1, base) for _ in range(nu_len))
        coeffs[(mu, nu)] = Fraction(rng.choice([-2, -1, 1, 2]))
    return CuntzElement(base, coeffs)
