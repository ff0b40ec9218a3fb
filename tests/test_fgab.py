"""Tests for exact integer linear algebra and canonical abelian groups.

Expected values for the small worked examples were frozen from the
independent oracles in oracles.py (gcd/determinant identities, coset
enumeration, solution enumeration) -- see the comments next to each.
"""

import doctest
import hashlib
import itertools
import json
import random
import sys
import time
from math import gcd, isqrt, prod
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spherecp.fgab
from spherecp import cli
from oracles import (
    MatrixTextError,
    coset_count_2x2,
    determinantal_divisors,
    invariant_factors_by_primes,
    is_divisor_chain,
    kernel_rank_by_enumeration,
    parse_matrix_tokens,
    plain_bareiss,
    random_int_matrix,
    random_unimodular,
    snf_2x2_oracle,
    time_limit,
)
from spherecp.fgab import (
    LITERAL_DIGITS_BUDGET,
    FgAbGroup,
    IntMatrix,
    MatrixParseError,
    cokernel,
    group_order,
    invariant_factors,
    kernel,
    parse_matrix,
    smith_normal_form,
)


def snf_is_valid(a, snf):
    """Full decomposition check: U A V = D, unimodularity, divisor chain."""
    assert snf.U @ a @ snf.V == snf.D
    assert abs(snf.U.det()) == 1
    assert abs(snf.V.det()) == 1
    assert is_divisor_chain(snf.diagonal)
    # off-diagonal must vanish
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D[i, j] == 0


def test_doctests():
    results = doctest.testmod(spherecp.fgab)
    assert results.failed == 0


class TestSmithNormalForm:
    def test_identity_is_fixed(self):
        a = IntMatrix.identity(3)
        snf = smith_normal_form(a)
        assert snf.D == a
        snf_is_valid(a, snf)

    def test_diag_2_3(self):
        # oracle: gcd(2,3) = 1, |det| = 6 -> (1, 6)
        assert snf_2x2_oracle(2, 0, 0, 3) == (1, 6)
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        snf = smith_normal_form(a)
        assert snf.diagonal == (1, 6)
        snf_is_valid(a, snf)

    def test_presentation_of_order_four_quotient(self):
        # oracle: gcd of entries 1, |det| = 4 -> (1, 4)
        assert snf_2x2_oracle(-2, 0, -1, -2) == (1, 4)
        a = IntMatrix.from_rows([[-2, 0], [-1, -2]])
        snf = smith_normal_form(a)
        assert snf.diagonal == (1, 4)
        snf_is_valid(a, snf)

    def test_zero_matrix(self):
        a = IntMatrix(2, 3, ((0, 0, 0), (0, 0, 0)))
        snf = smith_normal_form(a)
        assert snf.diagonal == (0, 0)
        snf_is_valid(a, snf)

    def test_empty_matrices(self):
        for rows, cols in [(0, 3), (3, 0), (0, 0)]:
            a = IntMatrix(rows, cols, ((0,) * cols,) * rows)
            snf = smith_normal_form(a)
            assert snf.D.rows == rows and snf.D.cols == cols
            snf_is_valid(a, snf)

    def test_deterministic(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_int_matrix(rng, max_dim=5, max_entry=30)
            assert smith_normal_form(a) == smith_normal_form(a)

    def test_random_decompositions(self):
        rng = random.Random(20260819)
        for _ in range(300):
            a = random_int_matrix(rng, max_dim=5, max_entry=60)
            snf_is_valid(a, smith_normal_form(a))

    def test_2x2_against_gcd_oracle(self):
        rng = random.Random(99)
        for _ in range(400):
            vals = [rng.randint(-40, 40) for _ in range(4)]
            a = IntMatrix.from_rows([vals[:2], vals[2:]])
            expected = snf_2x2_oracle(*vals)
            assert smith_normal_form(a).diagonal == expected

    @given(
        st.lists(
            st.lists(st.integers(-100, 100), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=80, deadline=None)
    def test_property_decomposition(self, rows):
        a = IntMatrix.from_rows(rows)
        snf_is_valid(a, smith_normal_form(a))

    def test_huge_entries_stay_exact(self):
        big = 10**40
        a = IntMatrix.from_rows([[2 * big, 0], [big, 3 * big]])
        snf = smith_normal_form(a)
        snf_is_valid(a, snf)
        assert snf.diagonal == (big, 6 * big)

    @pytest.mark.parametrize(
        "text, u, d, v",
        [
            # the README example
            ("-2,0;-1,-2", "0,-1;1,-2", "1,0;0,4", "1,-2;0,1"),
            ("2,4,4;-6,6,12", "1,0;0,1", "2,0,0;0,6,0", "1,0,2;-1,-1,-4;1,1,3"),
            ("2,3;4,5;6,7", "2,-1,0;-5,3,0;1,-2,1", "1,0;0,2;0,0", "0,1;1,0"),
            # rank 2
            ("1,2,3;4,5,6;7,8,9", "1,0,0;-1,1,0;1,-2,1", "1,0,0;0,3,0;0,0,0",
             "-1,2,1;1,-1,-2;0,0,1"),
            # the divides-pivot matrix of TestInvariantFactors; wide, so decomposed through its transpose
            ("-2,0,-8,5,-4;-4,-1,5,-9,-1;-4,0,-16,10,-8", "-1,0,0;2,-1,0;-2,0,1",
             "1,0,0,0,0;0,1,0,0,0;0,0,0,0,0",
             "3,0,-4,5,-2;-19,1,21,-38,7;0,0,1,0,0;1,0,0,2,0;0,0,0,0,1"),
        ],
    )
    def test_exact_transforms(self, text, u, d, v):
        # the pivot order and every operation are pinned, not only U A V = D
        snf = smith_normal_form(parse_matrix(text))
        assert (snf.U.to_text(), snf.D.to_text(), snf.V.to_text()) == (u, d, v)


class TestCokernelKernel:
    def test_cokernel_of_relations(self):
        # oracle: gcd of entries 2, |det| = 16 -> factors (2, 8)
        assert snf_2x2_oracle(-4, 0, -2, -4) == (2, 8)
        g = cokernel(IntMatrix.from_rows([[-4, 0], [-2, -4]]))
        assert g == FgAbGroup(free_rank=0, torsion=(2, 8))

    def test_cokernel_no_relations(self):
        assert cokernel(IntMatrix(2, 2, ((0, 0), (0, 0)))) == FgAbGroup(free_rank=2)

    def test_cokernel_empty_presentation(self):
        # a 0 x n relation matrix presents the free group Z^n
        assert cokernel(IntMatrix(0, 3, ())) == FgAbGroup(free_rank=3)
        assert cokernel(IntMatrix(2, 0, ((), ()))) == FgAbGroup()

    def test_kernel_of_rank_one_row(self):
        # oracle: solutions of 2x + 4y = 0 in a box span a rank-1 lattice
        assert kernel_rank_by_enumeration([[2, 4]]) == 1
        assert kernel(IntMatrix.from_rows([[2, 4]])) == FgAbGroup(free_rank=1)

    def test_kernel_trivial_iff_nonsingular(self):
        rng = random.Random(41)
        for _ in range(150):
            a = random_int_matrix(rng, max_dim=4, max_entry=20, min_dim=1)
            if a.rows != a.cols:
                continue
            k = kernel(a)
            if a.det() != 0:
                assert k.is_trivial
            else:
                assert k.free_rank > 0

    def test_cokernel_order_is_det(self):
        rng = random.Random(42)
        seen = 0
        while seen < 120:
            a = random_int_matrix(rng, max_dim=4, max_entry=15, min_dim=1)
            if a.rows != a.cols or a.det() == 0:
                continue
            seen += 1
            assert group_order(cokernel(a)) == abs(a.det())

    def test_cokernel_against_coset_enumeration(self):
        rng = random.Random(4242)
        seen = 0
        while seen < 60:
            rows = [[rng.randint(-8, 8) for _ in range(2)] for _ in range(2)]
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            if det == 0 or abs(det) > 64:
                continue
            seen += 1
            a = IntMatrix.from_rows(rows)
            assert group_order(cokernel(a)) == coset_count_2x2(rows)

    def test_cokernel_unimodular_invariance(self):
        rng = random.Random(271828)
        for _ in range(60):
            a = random_int_matrix(rng, max_dim=4, max_entry=12, min_dim=1)
            left = random_unimodular(rng, a.rows) if a.rows else IntMatrix.identity(0)
            right = random_unimodular(rng, a.cols) if a.cols else IntMatrix.identity(0)
            assert cokernel(left @ a) == cokernel(a)
            assert cokernel(a @ right) == cokernel(a)


@st.composite
def int_matrices(draw, max_dim=7, max_entry=30):
    """Random m x n matrices, 0 <= m, n <= max_dim, rank-deficient ones included.

    Dense draws are mostly of full rank; repeated or scaled rows and
    products of a thin m x k and k x n pair are not.
    """
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    entry = st.integers(-max_entry, max_entry)
    kind = draw(st.sampled_from(["dense", "scaled rows", "low rank"]))
    if kind == "dense" or not (m and n):
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    elif kind == "scaled rows":
        base = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=m))
        picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.integers(-4, 4)),
                              min_size=m, max_size=m))
        rows = [[c * x for x in base[i]] for i, c in picks]
    else:
        k = draw(st.integers(1, min(m, n)))
        small = st.integers(-6, 6)
        b = draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=m, max_size=m))
        c = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=k, max_size=k))
        rows = [[sum(b[i][l] * c[l][j] for l in range(k)) for j in range(n)] for i in range(m)]
    return IntMatrix.from_rows(rows, cols=n)


@st.composite
def small_presentations(draw):
    """Square matrices U D V with planted torsion, and non-square ones, with at most 4 rows or columns.

    D is diagonal, a divisor chain of drawn rank with zeros after it, and
    U, V are random unimodular matrices.
    """
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        rank = draw(st.integers(0, n))
        chain, acc = [], 1
        for _ in range(rank):
            acc *= draw(st.sampled_from([1, 1, 2, 3, 4, 5, 12]))
            chain.append(acc)
        chain += [0] * (n - rank)
        rng = random.Random(draw(st.integers(0, 2**32)))
        d = IntMatrix.from_rows([[chain[i] if i == j else 0 for j in range(n)] for i in range(n)])
        return random_unimodular(rng, n, steps=3 * n) @ d @ random_unimodular(rng, n, steps=3 * n)
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    if m == n:
        n += 1
    if draw(st.booleans()):
        m, n = n, m
    bound = draw(st.sampled_from([2, 12, 10**6]))
    entry = st.integers(-bound, bound)
    return IntMatrix.from_rows(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)))


@st.composite
def deficient_or_rectangular(draw):
    """m x n matrices, at most 4 rows or columns and at most 6 of the other, that are not nonsingular squares.

    Half are U D V with D holding a divisor chain on its first r diagonal
    places, r <= min(m, n) drawn, and zeros elsewhere, U and V random
    unimodular: wide, tall or square, of full or deficient rank, save the
    square of full rank.  The rest are dense and wide or tall, with
    entries in ±12, where M has more factors than D_r.
    """
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        m, n = n, m
    rng = random.Random(draw(st.integers(0, 2**32)))
    if m != n and draw(st.booleans()):
        return IntMatrix.from_rows([[rng.randint(-12, 12) for _ in range(n)] for _ in range(m)])
    rank = draw(st.integers(0, min(m, n) - (m == n)))
    chain = list(itertools.accumulate(draw(st.lists(st.sampled_from([1, 1, 2, 3, 4, 6]), min_size=rank,
                                                    max_size=rank)), lambda x, y: x * y))
    d = IntMatrix.from_rows([[chain[i] if i == j < rank else 0 for j in range(n)] for i in range(m)])
    return random_unimodular(rng, m, steps=3 * m) @ d @ random_unimodular(rng, n, steps=3 * n)


@st.composite
def planted_squares(draw):
    """n x n matrices U diag(t_1, ..., t_n) V, n = 3..7, with D_(n-1) > g**(n-1), and their chain t.

    U and V are random unimodular, so g = t_1 and D_k = t_1 ... t_k.  The
    chain t_1 | t_2 | ... grows by a drawn step at each place, and by at
    least 2 at one drawn place below n, so some t_i with i < n exceeds t_1.
    """
    n = draw(st.integers(3, 7))
    steps = [draw(st.sampled_from([1, 2, 3]))]
    steps += draw(st.lists(st.sampled_from([1, 1, 2, 3, 5, 6]), min_size=n - 1, max_size=n - 1))
    steps[draw(st.integers(1, n - 2))] *= draw(st.sampled_from([2, 3, 4]))
    chain = list(itertools.accumulate(steps, lambda x, y: x * y))
    rng = random.Random(draw(st.integers(0, 2**32)))
    d = IntMatrix.from_rows([[chain[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return random_unimodular(rng, n, steps=3 * n) @ d @ random_unimodular(rng, n, steps=3 * n), chain


@st.composite
def elimination_free_shapes(draw):
    """0 x n, n x 0, 1 x n and n x 1 matrices (n <= 6) and 2 x 2s, some zero and some singular.

    Every minor of these shapes is an entry or the determinant.  A 2 x 2
    is drawn whole, as a row r beside t*r in either order (possibly
    transposed), or as zero.
    """
    entry = st.integers(-10**6, 10**6)
    kind = draw(st.sampled_from(["0xn", "nx0", "1xn", "nx1", "2x2", "t*r", "zero"]))
    n = draw(st.integers(0, 6))
    if kind == "0xn":
        return IntMatrix(0, n, ())
    if kind == "nx0":
        return IntMatrix(n, 0, ((),) * n)
    if kind in ("1xn", "nx1"):
        row = draw(st.lists(entry, min_size=n, max_size=n))
        return IntMatrix(1, n, (row,)) if kind == "1xn" else IntMatrix(n, 1, [(x,) for x in row])
    if kind == "zero":
        return IntMatrix(2, 2, ((0, 0), (0, 0)))
    if kind == "2x2":
        return IntMatrix.from_rows(draw(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2)))
    r, t = draw(st.lists(entry, min_size=2, max_size=2)), draw(st.integers(-1000, 1000))
    rows = [r, [t * x for x in r]][:: draw(st.sampled_from([1, -1]))]
    return IntMatrix.from_rows(list(zip(*rows)) if draw(st.booleans()) else rows)


@st.composite
def planted_chains(draw):
    """n x n matrices U diag(chain) V, n = 2..6, and the chain: cyclic or not.

    The cyclic chains are (1, ..., 1, t); the others end in (2, 2) or
    (2, 2, 6), so every (n-1) x (n-1) minor is even.
    """
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["cyclic", "1,2,2", "2,2,6"]))
    if kind == "cyclic":
        chain = [1] * (n - 1) + [draw(st.integers(1, 10**6))]
    else:
        tail = [2, 2] if kind == "1,2,2" or n == 2 else [2, 2, 6]
        chain = [1] * (n - len(tail)) + tail
    rng = random.Random(draw(st.integers(0, 2**32)))
    d = IntMatrix.from_rows([[chain[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return random_unimodular(rng, n, steps=4 * n) @ d @ random_unimodular(rng, n, steps=4 * n), chain


def adjugate_columns(a):
    """The columns of adj(A), from the cofactors of A."""
    n = a.rows
    if n == 1:
        return [[1]]

    def minor(i, j):  # A without row i and column j
        return IntMatrix.from_rows([r[:j] + r[j + 1:] for k, r in enumerate(a.entries) if k != i]).det()

    return [[(-1) ** (i + j) * minor(j, i) for i in range(n)] for j in range(n)]


def adjugate_times(a, b):
    """adj(A)·b for a vector b, from the cofactors of A."""
    return [sum(x * col[i] for x, col in zip(b, adjugate_columns(a))) for i in range(a.rows)]


class TestInvariantFactors:
    """The transform-free route, modulo a nonzero minor, against the SNF route."""

    @given(int_matrices())
    @settings(max_examples=300, deadline=None)
    def test_property_matches_smith_normal_form(self, a):
        diagonal = smith_normal_form(a).diagonal
        rank = sum(1 for x in diagonal if x)
        expected = (tuple(x for x in diagonal if x > 1), rank)
        assert invariant_factors(a) == expected
        free = a.cols - rank
        assert cokernel(a) == FgAbGroup(free, expected[0])
        assert kernel(a) == FgAbGroup(free)

    def test_short_circuits(self):
        # rank 0 and empty shapes: the empty minor is 1, nothing to reduce
        assert invariant_factors(IntMatrix(3, 2, ((0, 0), (0, 0), (0, 0)))) == ((), 0)
        for rows, cols in [(0, 3), (3, 0), (0, 0)]:
            assert invariant_factors(IntMatrix(rows, cols, ((0,) * cols,) * rows)) == ((), 0)
        # a unit minor: all invariant factors are 1
        assert invariant_factors(IntMatrix.from_rows([[2, 3], [1, 2]])) == ((), 2)
        assert invariant_factors(IntMatrix.from_rows([[1, 5, 7]])) == ((), 1)

    @staticmethod
    def expected_from_snf(a):
        diagonal = smith_normal_form(a).diagonal
        if a.rows == a.cols == 2:
            assert diagonal == snf_2x2_oracle(*a.entries[0], *a.entries[1])
        return tuple(x for x in diagonal if x > 1), sum(1 for x in diagonal if x)

    @pytest.mark.parametrize("a, expected", [
        (IntMatrix(2, 3, ((0, 0, 0), (0, 0, 0))), ((), 0)),
        (IntMatrix(0, 4, ()), ((), 0)),
        (IntMatrix.from_rows([[-4]]), ((4,), 1)),
        (IntMatrix.from_rows([[3, 0], [0, 3]]), ((3, 3), 2)),
        (IntMatrix.from_rows([[2, 0], [4, 0]]), ((2,), 1)),
        (IntMatrix.from_rows([[6 * x for x in row] for row in random_unimodular(random.Random(6), 3).entries]),
         ((6, 6, 6), 3)),
    ], ids=["zero", "0x4", "-4", "3I", "rank-1 2x2", "6U"])
    def test_gcd_power_exit(self, a, expected, monkeypatch):
        # g**rank == |minor| for g the gcd of the entries: every factor is g, no sweep
        assert self.expected_from_snf(a) == expected

        def no_sweep(*args):
            raise AssertionError("the gcd-power exit should have answered")

        monkeypatch.setattr(spherecp.fgab, "_echelon_mod", no_sweep)
        assert invariant_factors(a) == expected

    @pytest.mark.parametrize("rows, expected", [
        ([[2, 0], [0, 4]], ((2, 4), 2)),
        ([[2, 4], [6, 8]], ((2, 4), 2)),
        ([[2, 0], [1, 2]], ((4,), 2)),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 4]], ((4,), 3)),
        ([[2, 0, 0], [0, 2, 0], [0, 0, 6]], ((2, 2, 6), 3)),
    ], ids=["2,0;0,4", "2,4;6,8", "2,0;1,2", "1,0,0;0,1,0;0,0,4", "2,0,0;0,2,0;0,0,6"])
    def test_gcd_power_near_misses_exit_by_determinants(self, rows, expected, monkeypatch):
        # g**n != M, but gcd(c, M) = g**(n-1) for c the gcd of the (n-1)-minors
        # in hand (the entries at n = 2): the factors are g, ..., g, M / g**(n-1)
        a = IntMatrix.from_rows(rows)
        assert self.expected_from_snf(a) == expected  # before the patch: snf sweeps

        def no_sweep(*args):
            raise AssertionError("the determinantal-divisor exit should have answered")

        monkeypatch.setattr(spherecp.fgab, "_echelon_mod", no_sweep)
        assert invariant_factors(a) == expected

    def test_undecided_minors_still_sweep(self, monkeypatch):
        # g = 1 and M = 4; the 2-minors in Bareiss row 1 are 2 and 0, so
        # gcd(c, M) = 2 != 1 leaves D_2 open (it is 2): the factors (2, 2) need the sweep
        a = IntMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
        expected = self.expected_from_snf(a)
        sweep, calls = spherecp.fgab._echelon_mod, []

        def counted(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(spherecp.fgab, "_echelon_mod", counted)
        assert invariant_factors(a) == expected == ((2, 2), 3)
        assert calls

    # U diag(1, 2, 2, 6) V: M = 24 and D_3 = 4, which the two minors in
    # Bareiss row 2 and the adjoint column leave as the modulus
    PLANTED_4X4 = [[-11, -4, 12, -11], [0, 0, 0, 2], [6, 2, -6, 6], [5, 2, 0, -1]]

    def test_square_sweeps_modulo_a_multiple_of_the_next_to_last_divisor(self):
        # a nonsingular square sweeps modulo c with D_(n-1) | c | M, which keeps
        # d_1 ... d_(n-1) exact, and M / (d_1 ... d_(n-1)) gives d_n
        rng = random.Random(27)
        squares = [self.PLANTED_4X4]
        for n in (3, 4):
            ones = [1] * (n - 2)
            for chain in (ones + [2, 6], ones + [3, 9], [2] * (n - 1) + [4], ones[1:] + [2, 2, 4]):
                d = IntMatrix.from_rows([[chain[i] if i == j else 0 for j in range(n)] for i in range(n)])
                for _ in range(10):
                    u, v = random_unimodular(rng, n, steps=3 * n), random_unimodular(rng, n, steps=3 * n)
                    squares.append([list(row) for row in (u @ d @ v).entries])
            squares += [[[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)] for _ in range(60)]
        swept = {}
        for rows in squares:
            a = IntMatrix.from_rows(rows)
            det = abs(a.det())
            if not det:
                continue
            divisors = determinantal_divisors(rows)
            with mock.patch.object(spherecp.fgab, "_echelon_mod", wraps=spherecp.fgab._echelon_mod) as sweep:
                factors = invariant_factors(a)
            factors_expected = tuple(y // x for x, y in zip((1, *divisors), divisors))
            assert factors == (tuple(f for f in factors_expected if f > 1), len(rows))
            for call in sweep.call_args_list:
                modulus = call.args[2]
                assert det % modulus == 0 and modulus % divisors[-2] == 0
                swept.setdefault(a.entries, []).append((modulus, det))
        assert len(swept) >= 10
        moduli = swept[IntMatrix.from_rows(self.PLANTED_4X4).entries]
        assert all(modulus == 4 < det == 24 for modulus, det in moduli)

    def test_adjoint_column_exits_with_no_sweep(self, monkeypatch):
        # g = 1 and M = 6; the 2-minors in Bareiss row 1 leave gcd(c, M) = 2,
        # and the entries of adj(A) v bring it down to 1 = g**2
        a = IntMatrix.from_rows([[1, 0, 0], [1, 2, 0], [-1, -3, 3]])
        rows = [(*row, i) for i, row in enumerate(a.entries, 1)]
        eliminated = spherecp.fgab._bareiss(rows, 3)[2]
        assert gcd(*eliminated[1][1:3], 6) == 2
        expected = self.expected_from_snf(a)

        def no_sweep(*args):
            raise AssertionError("the adjoint column should have answered")

        monkeypatch.setattr(spherecp.fgab, "_echelon_mod", no_sweep)
        assert invariant_factors(a) == expected == ((6,), 3)

    @pytest.mark.parametrize("rows, expected", [
        ([[-1, 0, 2], [0, 4, 0], [4, 1, -4]], ((16,), 3)),
        ([[-2, -2, 3, -3], [-4, -4, 1, -1], [4, -3, 3, 4], [-4, 1, 1, 1]], ((490,), 4)),
    ], ids=["3x3", "4x4"])
    def test_second_adjoint_column_exits_with_no_sweep(self, rows, expected, monkeypatch):
        # g = D_(n-1) = 1, but the minors in Bareiss row n-2 and adj(A)·v,
        # v = (1, ..., n), leave c > 1; adj(A)·w, w_i = (-1)^i, brings it to 1
        n = len(rows)
        a = IntMatrix.from_rows(rows)
        carried = [(*row, i, (-1) ** i) for i, row in enumerate(rows, 1)]
        rank, det, eliminated, _ = spherecp.fgab._bareiss(carried, n)
        c = gcd(*eliminated[n - 2][n - 2:n], det, *adjugate_times(a, [row[n] for row in carried]))
        assert rank == n and c > 1
        assert gcd(c, *adjugate_times(a, [row[n + 1] for row in carried])) == 1
        assert self.expected_from_snf(a) == expected

        def no_sweep(*args):
            raise AssertionError("the second adjoint column should have answered")

        monkeypatch.setattr(spherecp.fgab, "_echelon_mod", no_sweep)
        assert invariant_factors(a) == expected

    @given(deficient_or_rectangular())
    @settings(max_examples=200, deadline=None)
    def test_property_sweep_modulus_lies_between_d_r_and_the_minor(self, a):
        # a shape other than a nonsingular square sweeps modulo c_r, the gcd of
        # M and the other r x r minors in Bareiss row r-1 (of A^T when A is
        # tall), so D_r | c_r | M; the factors must still be D_k / D_(k-1)
        rows = [list(row) for row in a.entries]
        divisors = determinantal_divisors(rows)
        rank = sum(1 for x in divisors if x)
        eliminated = [list(col) for col in zip(*rows)] if a.rows > a.cols else rows
        minor = spherecp.fgab._bareiss(eliminated, len(eliminated[0]))[1]
        with mock.patch.object(spherecp.fgab, "_echelon_mod", wraps=spherecp.fgab._echelon_mod) as sweep:
            factors = invariant_factors(a)
        chain = [1, *divisors[:rank]]
        assert factors == (tuple(f for f in (y // x for x, y in zip(chain, chain[1:])) if f > 1), rank)
        for call in sweep.call_args_list:
            modulus = call.args[2]
            assert modulus % divisors[rank - 1] == 0 and minor % modulus == 0

    @given(planted_squares())
    @settings(max_examples=150, deadline=None)
    def test_property_planted_squares_past_the_gcd_power(self, drawn):
        # D_(n-1) > g**(n-1), so neither the gcd-power exit nor the minors
        # in hand decide; the answer must still be the planted chain
        a, chain = drawn
        n = a.rows
        diagonal = smith_normal_form(a).diagonal
        if n <= 4:  # the brute-force oracle's reach; past it the planted chain gives D_k = t_1 ... t_k
            divisors = determinantal_divisors([list(row) for row in a.entries])
            assert divisors == tuple(itertools.accumulate(chain, lambda x, y: x * y))
        expected = tuple(t for t in chain if t > 1)
        assert invariant_factors(a) == (expected, n) == (tuple(x for x in diagonal if x > 1), n)

    @given(small_presentations())
    @settings(max_examples=300, deadline=None)
    def test_property_matches_determinantal_divisors(self, a):
        # d_k = D_k / D_(k-1), D_k the gcd of the k x k minors (Smith 1861), units dropped
        divisors = [1, *(x for x in determinantal_divisors([list(row) for row in a.entries]) if x)]
        factors = tuple(y // x for x, y in zip(divisors, divisors[1:]))
        assert invariant_factors(a) == (tuple(f for f in factors if f > 1), len(factors))

    @given(elimination_free_shapes())
    @settings(max_examples=300, deadline=None)
    def test_property_small_shapes_need_no_elimination(self, a):
        # every minor is an entry or the determinant, so the rank and D_r are
        # read directly; hypothesis refuses function-scoped fixtures, hence mock
        divisors = [1, *(x for x in determinantal_divisors([list(row) for row in a.entries]) if x)]
        factors = tuple(y // x for x, y in zip(divisors, divisors[1:]))
        refuse = AssertionError("an elimination ran on a shape read without one")
        with mock.patch.object(spherecp.fgab, "_bareiss", side_effect=refuse), \
                mock.patch.object(spherecp.fgab, "_echelon_mod", side_effect=refuse):
            assert invariant_factors(a) == (tuple(f for f in factors if f > 1), len(factors))

    def test_larger_shapes_still_run_bareiss(self, monkeypatch):
        # a 2 x 3 has three 2 x 2 minors, a 3 x 3 nine: neither is read directly
        bareiss, calls = spherecp.fgab._bareiss, []

        def counted(*args):
            calls.append(args)
            return bareiss(*args)

        monkeypatch.setattr(spherecp.fgab, "_bareiss", counted)
        assert invariant_factors(IntMatrix.from_rows([[2, 4, 6], [1, 3, 5]])) == ((2,), 2)
        assert invariant_factors(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 6]])) == ((6, 6), 3)
        assert len(calls) == 2
        # a nonsingular square carries the adjoint column in that one elimination,
        # whether it sweeps or not, and a low-rank square is not eliminated again
        rng = random.Random(12)
        b = [[rng.randint(-7, 7) for _ in range(9)] for _ in range(12)]
        c = [[rng.randint(-7, 7) for _ in range(12)] for _ in range(9)]
        squares = [
            [[1, 0, 0], [0, 2, 0], [0, 0, 2]],
            [[1, 0, 0], [1, 2, 0], [-1, -3, 3]],
            [[rng.randint(-50, 50) for _ in range(12)] for _ in range(12)],
            [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b],
        ]
        for rows in squares:
            calls.clear()
            cokernel(IntMatrix.from_rows(rows))
            assert len(calls) == 1
        assert kernel(IntMatrix.from_rows(squares[-1])).free_rank == 3

    def test_pivot_dividing_the_entry_takes_the_plain_branch(self):
        # rank 2 with minor 2: modulo 2 every nonzero pivot divides the entries
        # below it, so the sweep clears each column by plain subtraction; the
        # alarm turns a regression that loops into a failure
        a = IntMatrix.from_rows([[-2, 0, -8, 5, -4], [-4, -1, 5, -9, -1], [-4, 0, -16, 10, -8]])
        assert abs(spherecp.fgab._bareiss(a.entries, a.cols)[1]) == 2
        with time_limit(5):
            assert invariant_factors(a) == ((), 2)
            assert cokernel(a) == FgAbGroup(free_rank=3)

    def test_cofactor_times_the_pivot_row_is_kept(self):
        # modulo the minor M, a diagonal entry d > 1 leaves (M/d) times the
        # pivot row in the lattice; a sweep that drops it reads (4,) and (18,)
        assert invariant_factors(IntMatrix.from_rows([[4, 6]])) == ((2,), 1)
        assert invariant_factors(IntMatrix.from_rows([[-18, 18, 12, -6, -12, -18]])) == ((6,), 1)

    @pytest.mark.parametrize("m, n, planted, rank", [
        (30, 40, (2, 6, 12), 30),
        (40, 30, (2, 6, 12), 30),
        (40, 40, (3, 3, 6), 20),
    ])
    def test_planted_factors_at_size(self, m, n, planted, rank):
        # A = U D V with U, V unimodular and D holding the planted chain
        rng = random.Random(m * n + rank)
        d = [[0] * n for _ in range(m)]
        for i, x in enumerate([1] * (rank - len(planted)) + list(planted)):
            d[i][i] = x
        u, v = random_unimodular(rng, m, steps=4 * m), random_unimodular(rng, n, steps=4 * n)
        a = u @ IntMatrix.from_rows(d) @ v
        with time_limit(5):
            assert invariant_factors(a) == (planted, rank)

    def test_dense_60x60_cokernel_order_is_det(self):
        # the transform route did not finish this size in 290 s
        rng = random.Random(60)
        a = IntMatrix.from_rows([[rng.randint(-50, 50) for _ in range(60)] for _ in range(60)])
        started = time.perf_counter()
        g = cokernel(a)
        elapsed = time.perf_counter() - started
        det = a.det()
        assert det != 0 and g.free_rank == 0
        assert group_order(g) == abs(det)
        assert elapsed < 10.0


def dense(rng, n):
    """An n x n matrix with entries drawn row by row from [-50, 50]."""
    return IntMatrix.from_rows([[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)])


def fixed_dense(n):
    """The benchmark's fixed dense n x n, 16 <= n <= 25, drawn after those of the smaller sizes."""
    rng = random.Random(20071123)
    return [dense(rng, k) for k in range(16, n + 1)][-1]


def cyclic_drawn(a):
    """``a`` with the invariant factors of a nonsingular square whose quotient is cyclic."""
    return a, [1] * (a.rows - 1) + [abs(a.det())]


def max_bits(*matrices):
    return max(abs(x).bit_length() for m in matrices for row in m.entries for x in row)


def twice_det_bits(a):
    """2 bits(|det A|) + bits(n): the U/V size the fgab docstring states for these inputs."""
    return 2 * abs(a.det()).bit_length() + a.rows.bit_length()


def within_four_minor_bits(a, *transforms):
    """Entries of the transforms within 4 bits(H) + bits(max(m, n)) bits.

    H is Hadamard's bound on every r x r minor of A, r = rank A: the
    product of the r longest rows, or columns if that is smaller.  A
    kernel basis can need entries as large as the largest such minor, and
    the minor Bareiss elimination finds can be far smaller:
    [[1, 50, 0], [0, 1, 50]] has the minor 1 and the kernel (2500, -50, 1).
    """
    r = invariant_factors(a)[1]
    h = min(prod(sorted((sum(x * x for x in line) for line in lines), reverse=True)[:r])
            for lines in (a.entries, zip(*a.entries)))
    h_bits = (isqrt(h - 1) + 1).bit_length()
    return max_bits(*transforms) <= 4 * h_bits + max(a.rows, a.cols).bit_length()


def snf_dense_seeded(seed):
    """The benchmark's seeded rank-deficient and rectangular matrices, drawn in its order."""
    rng = random.Random(seed)
    for n in (8, 9, 10, 11, 12):  # its square draws come first
        for _ in range(6):
            dense(rng, n)
    mats = []
    for n in (10, 11, 12, 12):  # rank n - 3
        b = [[rng.randint(-7, 7) for _ in range(n - 3)] for _ in range(n)]
        c = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n - 3)]
        mats.append(IntMatrix.from_rows(b) @ IntMatrix.from_rows(c))
    for m, n in ((9, 12), (12, 9), (10, 12), (12, 10), (11, 12), (12, 11)):
        mats.append(IntMatrix.from_rows([[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]))
    return mats


@st.composite
def compressed_inputs(draw):
    """Rectangular or rank-deficient m x n matrices up to 40 x 40, entries in ±2, ±7 or ±50.

    Half plant the rank as a product of m x k and k x n factors with
    k < min(m, n); the rest are dense and rectangular.
    """
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    bound = draw(st.sampled_from([2, 7, 50]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if min(m, n) > 1 and draw(st.booleans()):
        k = rng.randint(1, min(m, n) - 1)
        b = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(m)]
        c = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
        return IntMatrix.from_rows(b) @ IntMatrix.from_rows(c)
    if m == n:
        n = m + 1 if m < 40 else m - 1
    return IntMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


@st.composite
def snf_inputs(draw):
    """Square nonsingular, rank-deficient and rectangular matrices, entries up to 10^6."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        entry = st.integers(-(10**6), 10**6)
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        return IntMatrix.from_rows(rows)
    return draw(int_matrices(max_entry=10**6))


class TestBoundedTransforms:
    """Every shape: compressed to a nonsingular core, whose Hermite forms run modulo a minor."""

    @given(snf_inputs())
    @settings(max_examples=150, deadline=None)
    def test_property_against_invariant_factors(self, a):
        snf = smith_normal_form(a)
        snf_is_valid(a, snf)
        factors, rank = invariant_factors(a)
        assert tuple(x for x in snf.diagonal if x > 1) == factors
        assert sum(1 for x in snf.diagonal if x) == rank

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.sampled_from([1, 1, 2, 3, 4, 6]), min_size=n, max_size=n),
    )))
    @settings(max_examples=200, deadline=None)
    def test_hermite_form(self, drawn):
        # B diag(t) B^T with small t plants invariant factors, so pivots are
        # often not units modulo |det| and the Bezout steps run
        b, t = drawn
        n = len(b)
        rows = [[sum(b[i][k] * t[k] * b[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
        a = IntMatrix.from_rows(rows)
        det = a.det()
        if det == 0:
            return
        h = spherecp.fgab._hermite_mod(a.entries, abs(det))
        assert prod(h[i][i] for i in range(n)) == abs(det)
        for i in range(n):
            assert all(x == 0 for x in h[i][:i])
            assert all(0 <= h[k][i] < h[i][i] for k in range(i))
        # H = W A with W unimodular: both span the same row lattice
        hw = spherecp.fgab._hermite_and_transform(a.entries, range(a.rows))
        w = IntMatrix.from_rows([row[n:] for row in hw])
        assert w @ a == IntMatrix.from_rows(h)
        assert abs(w.det()) == 1

    @pytest.mark.parametrize("rows, runs", [
        ([[2, 1], [1, 3]], (1, 1)),  # square nonsingular: the first elimination is reused
        ([[5]], (1, 1)),
        ([[1, 2], [3, 4], [5, 6]], (2, 1)),  # tall, full column rank: no column side
        ([[1, 2, 3], [4, 5, 6]], (2, 1)),  # wide, full row rank: its transpose is tall
        ([[1, 2], [2, 4]], (3, 2)),  # singular square
        ([[1, 2], [2, 4], [3, 6]], (3, 2)),  # tall, rank deficient
        ([[0, 0], [0, 0]], (3, 2)),
    ], ids=["square", "1x1", "tall", "wide", "singular", "tall-deficient", "zero"])
    def test_elimination_work_per_shape(self, monkeypatch, rows, runs):
        # Bareiss runs and Hermite forms: one compression call per side, none
        # for the columns at full column rank, and none padded for a square
        bareiss = mock.Mock(wraps=spherecp.fgab._transposed_bareiss)
        hermite = mock.Mock(wraps=spherecp.fgab._hermite_mod)
        monkeypatch.setattr(spherecp.fgab, "_transposed_bareiss", bareiss)
        monkeypatch.setattr(spherecp.fgab, "_hermite_mod", hermite)
        a = IntMatrix.from_rows(rows)
        snf_is_valid(a, smith_normal_form(a))
        assert (bareiss.call_count, hermite.call_count) == runs

    def test_hermite_form_with_bezout_pivot(self):
        # modulo 12 neither 4 nor 6 is a unit, so column 0 takes a Bezout step
        assert spherecp.fgab._hermite_mod([[4, 0], [6, 3]], 12) == [[2, 3], [0, 6]]
        a = IntMatrix.from_rows([[4, 0], [6, 3]])
        snf = smith_normal_form(a)
        snf_is_valid(a, snf)
        assert snf.diagonal == (1, 12)

    @given(planted_chains())
    # cyclic, but g falls in more than one step, so b is rescaled (t != 1) and some
    # row has s = 0 before g reaches 1: Hermite diagonals 2, 7, M' and 3, M'
    @example(cyclic_drawn(fixed_dense(24)))
    @example(cyclic_drawn(fixed_dense(21)))
    @settings(max_examples=150, deadline=None)
    def test_property_adjugate_rule_matches_the_sweep(self, drawn):
        # every column of adj(A) offered: the rule holds exactly when Z^n/L is cyclic
        a, chain = drawn
        modulus = prod(chain)
        swept = self.sweep_count(lambda: spherecp.fgab._hermite_mod(a.entries, modulus, adjugate_columns(a)))
        assert swept[0] == spherecp.fgab._hermite_mod(a.entries, modulus)
        assert swept[1] == (0 if chain[-2] == 1 else 1)

    @staticmethod
    def sweep_count(call):
        """The result of ``call()`` and how many times it ran ``_echelon_mod``."""
        with mock.patch.object(spherecp.fgab, "_echelon_mod", wraps=spherecp.fgab._echelon_mod) as sweep:
            result = call()
        return result, sweep.call_count

    @pytest.mark.parametrize("rows", [
        [[2, 1, 0], [1, 3, 1], [0, 1, 4]],  # det 18, D_2 = 1
        [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8], [9, 7, 9, 3]],
        [[-6]],
        [[-1]],
    ])
    def test_cyclic_square_runs_no_sweep(self, rows, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a square with a cyclic quotient swept modulo |det|")

        a = IntMatrix.from_rows(rows)
        assert len(invariant_factors(a)[0]) <= 1
        monkeypatch.setattr(spherecp.fgab, "_echelon_mod", refuse)
        snf = smith_normal_form(a)
        snf_is_valid(a, snf)
        assert snf.diagonal == (1,) * (a.rows - 1) + (abs(a.det()),)
        assert cli.main(["snf", a.to_text(), "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["D"] == snf.D.to_text()

    @pytest.mark.parametrize("rows", [
        [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
        [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8], [9, 7, 9, 3]],
    ])
    def test_first_adjugate_column_decides_after_one_solved_row(self, rows, monkeypatch):
        # the Hermite form reads its adjugate columns lazily: one row of the
        # solve decides it, and W^T then takes all n rows of a second solve
        solve, taken = spherecp.fgab._back_substitute, []

        def counted(t, rhs):
            taken.append(0)
            for row in solve(t, rhs):
                taken[-1] += 1
                yield row

        monkeypatch.setattr(spherecp.fgab, "_back_substitute", counted)
        a = IntMatrix.from_rows(rows)
        snf, swept = self.sweep_count(lambda: smith_normal_form(a))
        snf_is_valid(a, snf)
        assert swept == 0
        assert taken == [1, a.rows]

    def test_non_cyclic_square_still_sweeps(self):
        rng = random.Random(29)
        d = IntMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
        a = random_unimodular(rng, 3, steps=9) @ d @ random_unimodular(rng, 3, steps=9)
        snf, swept = self.sweep_count(lambda: smith_normal_form(a))
        snf_is_valid(a, snf)
        assert snf.diagonal == (1, 2, 2)
        assert swept == 1

    def test_rule_at_sizes_zero_and_one(self):
        hermite, transform = spherecp.fgab._hermite_mod, spherecp.fgab._hermite_and_transform
        assert hermite([], 1, []) == hermite([], 1) == []
        assert transform([], []) == []
        assert hermite([[-6]], 6, [[1]]) == hermite([[-6]], 6) == [[6]]
        assert hermite([[-6]], 6, [[2], [3]]) == [[6]]  # folded: 2 + 3·3 = 5 modulo 6
        assert transform([[-6]], [0]) == [[6, -1]]

    def test_unimodular_and_singular_squares(self):
        a = IntMatrix.from_rows([[2, 3], [1, 2]])
        snf = smith_normal_form(a)
        snf_is_valid(a, snf)
        assert snf.D == IntMatrix.identity(2)
        a = IntMatrix.from_rows([[1, 2], [2, 4]])
        snf = smith_normal_form(a)
        snf_is_valid(a, snf)
        assert snf.diagonal == (1, 0)

    def test_dense_fixed_matrices_print_as_valid_input(self, capsys):
        # the benchmark's fixed dense set, drawn in the same order; the
        # transforms of the 23x23 and 25x25 used to print past the digit
        # limit, and those of its seeded rank-deficient and rectangular
        # matrices reached 4933 bits; the digest of all the outputs pins U, D and V
        fixed = [fixed_dense(n) for n in range(16, 26)]
        digest = hashlib.blake2b(digest_size=16)
        for a in fixed + snf_dense_seeded(1):
            assert cli.main(["snf", a.to_text(), "--format", "structured"]) == 0
            text = capsys.readouterr().out
            digest.update(text.encode())
            out = json.loads(text)
            u, d, v = (parse_matrix(out[k]) for k in ("U", "D", "V"))  # within the literal budget
            assert u @ a @ v == d
            if a in fixed:
                assert max_bits(u, v) <= twice_det_bits(a)
            else:
                assert within_four_minor_bits(a, u, v)
        # a deliberate change of the transforms updates this digest
        assert digest.hexdigest() == "940b6b048def3dc14973aa98e1edb424"

    @pytest.mark.parametrize("m, n, zero_last_column", [(21, 20, False), (22, 22, True)])
    def test_rectangular_and_singular_draws_print_as_valid_input(self, capsys, m, n, zero_last_column):
        # before the compression their U/V reached 61 k and 37 k bits, and
        # printing them passed the int -> str limit, so snf exited 2
        rng = random.Random(1)
        a = IntMatrix.from_rows(
            [[rng.randint(-50, 50) for _ in range(n - zero_last_column)] + [0] * zero_last_column
             for _ in range(m)])
        with time_limit(10):
            assert cli.main(["snf", a.to_text(), "--format", "structured"]) == 0
        out = json.loads(capsys.readouterr().out)
        u, d, v = (parse_matrix(out[k]) for k in ("U", "D", "V"))
        assert u @ a @ v == d
        assert abs(u.det()) == abs(v.det()) == 1
        assert within_four_minor_bits(a, u, v)

    @given(compressed_inputs())
    @settings(max_examples=40, deadline=None)
    def test_compressed_transforms_stay_small(self, a):
        with time_limit(10):
            snf = smith_normal_form(a)
        snf_is_valid(a, snf)
        assert within_four_minor_bits(a, snf.U, snf.V)

    def test_dense_40x40_within_twice_det_bits(self):
        # the transforms used to reach 1.46 M bits at 35x35; 40x40 did not finish
        a = dense(random.Random(1), 40)
        with time_limit(10):
            snf = smith_normal_form(a)
        snf_is_valid(a, snf)
        assert max_bits(snf.U, snf.V) <= twice_det_bits(a)


class TestFgAbGroup:
    def test_canonicalization_merges_coprime_factors(self):
        assert FgAbGroup.from_factors([2, 3]) == FgAbGroup(torsion=(6,))
        assert FgAbGroup.from_factors([4, 6]) == FgAbGroup(torsion=(2, 12))
        assert FgAbGroup.from_factors([0, 2]) == FgAbGroup(free_rank=1, torsion=(2,))

    def test_units_dropped(self):
        assert FgAbGroup.from_factors([1, 1, 5]) == FgAbGroup(torsion=(5,))
        assert FgAbGroup.from_factors([]) == FgAbGroup()
        assert FgAbGroup.from_factors([1]).is_trivial

    def test_isomorphism_ignores_summand_order(self):
        assert FgAbGroup.from_factors([0, 2]) == FgAbGroup.from_factors([2, 0])

    def test_z4_not_z2_z2(self):
        assert FgAbGroup.from_factors([4]) != FgAbGroup.from_factors([2, 2])

    def test_invalid_chains_rejected(self):
        with pytest.raises(ValueError):
            FgAbGroup(torsion=(4, 2))
        with pytest.raises(ValueError):
            FgAbGroup(torsion=(1,))
        with pytest.raises(ValueError):
            FgAbGroup(free_rank=-1)

    def test_float_torsion_refused_not_truncated(self):
        # refused, not truncated to Z/2
        with pytest.raises(TypeError):
            FgAbGroup(torsion=(2.9,))  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            FgAbGroup(torsion=(True,))  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            FgAbGroup(free_rank=1.0)  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            FgAbGroup.from_factors([4, 2.0])  # type: ignore[list-item]
        with pytest.raises(TypeError):
            FgAbGroup.from_factors([True])  # type: ignore[list-item]
        assert FgAbGroup(torsion=[2, 4]) == FgAbGroup(torsion=(2, 4))  # type: ignore[arg-type]

    @given(st.lists(st.integers(0, 60), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_canonical_chain_matches_prime_oracle(self, factors):
        g = FgAbGroup.from_factors(factors)
        assert g.torsion == invariant_factors_by_primes(factors)
        assert g.free_rank == sum(1 for f in factors if f == 0)
        assert is_divisor_chain(g.torsion)

    @given(st.lists(st.integers(0, 40), max_size=6), st.randoms())
    @settings(max_examples=80, deadline=None)
    def test_canonicalization_permutation_invariant(self, factors, rng):
        shuffled = list(factors)
        rng.shuffle(shuffled)
        assert FgAbGroup.from_factors(factors) == FgAbGroup.from_factors(shuffled)

    def test_group_order(self):
        assert group_order(FgAbGroup(torsion=(2, 8))) == 16
        assert group_order(FgAbGroup(free_rank=1)) is None
        assert group_order(FgAbGroup()) == 1

    def test_rendering(self):
        assert str(FgAbGroup()) == "0"
        assert str(FgAbGroup(free_rank=1)) == "Z"
        assert str(FgAbGroup(free_rank=3)) == "Z^3"
        assert str(FgAbGroup(torsion=(4,))) == "Z/4"
        assert str(FgAbGroup(free_rank=2, torsion=(2, 6))) == "Z^2 + Z/2 + Z/6"

    def test_rendering_past_the_int_str_limit(self):
        # a factor past the interpreter's 4300-digit limit still renders exactly
        assert str(FgAbGroup(free_rank=1, torsion=(10**6000,))) == "Z + Z/1" + "0" * 6000
        assert IntMatrix.from_rows([[-(10**5000), 7]]).to_text() == "-1" + "0" * 5000 + ",7"


class TestIntText:
    @given(st.integers(-(10**12000), 10**12000), st.sampled_from([640, 4300]))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_str_with_no_limit(self, x, limit):
        # pieces of 512 digits convert under the least limit an interpreter takes
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = str(x)
            sys.set_int_max_str_digits(limit)
            assert spherecp.fgab._int_text(x) == expected
        finally:
            sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize("k", [511, 512, 513, 1024, 4300, 4301, 9000])
    def test_powers_of_ten_keep_their_zeros(self, k):
        # each piece but the leading one is padded to its full width
        assert spherecp.fgab._int_text(10**k - 1) == "9" * k
        assert spherecp.fgab._int_text(-(10**k)) == "-1" + "0" * k
        assert spherecp.fgab._int_text(10**k + 1) == "1" + "0" * (k - 1) + "1"


MATRIX_ALPHABET = list("0123456789+-,;[] \t\r\n") + ["],[", "] ,\n[", "[[[", "]]]"]
PADDING = st.lists(st.sampled_from([" ", "\t", "\r", "\n", "[", "]", "[[[", "]]]"]), max_size=3).map("".join)
ENTRIES = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.integers(0, 99).map(lambda k: f"+{k}"),
    st.integers(LITERAL_DIGITS_BUDGET - 1, LITERAL_DIGITS_BUDGET + 1).map(lambda n: "-" + "7" * n),
)


@st.composite
def matrix_texts(draw):
    """Padded entries joined by ",", ";" or "],[", then edited.

    Entries carry signs, and some sit at the literal budget or one digit
    past it; padding mixes whitespace and bracket runs.  Up to three
    pieces of the matrix alphabet go in at drawn places, a drawn span may
    be cut, and one foreign character may go in, so the texts run from
    well formed through ragged to refused.
    """
    cells = draw(st.lists(st.tuples(PADDING, ENTRIES, PADDING).map("".join), max_size=12))
    seps = st.sampled_from([",", ",", ";", "],[", "] ,\n["])
    text = "".join((draw(seps) if i else "") + cell for i, cell in enumerate(cells))
    for piece in draw(st.lists(st.sampled_from(MATRIX_ALPHABET), max_size=3)):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + piece + text[at:]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + text[at + draw(st.integers(0, 3)):]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.characters()) + text[at:]
    return text


class TestMatrixText:
    def test_parse_basic(self):
        assert parse_matrix("-2,0;-1,-2") == IntMatrix.from_rows([[-2, 0], [-1, -2]])

    def test_parse_tolerates_brackets_and_space(self):
        assert parse_matrix("[ 1, 2 ; 3, 4 ]") == IntMatrix.from_rows([[1, 2], [3, 4]])
        # "],[" separates rows, so nested brackets are read as rows
        assert parse_matrix("[[-2,0],[-1,-2]]") == IntMatrix.from_rows([[-2, 0], [-1, -2]])
        assert parse_matrix("[[1, 2] , [3, 4]]") == IntMatrix.from_rows([[1, 2], [3, 4]])

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_token_spans_tile_the_text(self, text):
        # the catch-all alternative matches wherever no token does, so
        # finditer skips no character and parse_matrix sees all of them
        spans = [m.span() for m in spherecp.fgab._MATRIX_TOKEN.finditer(text)]
        assert "".join(text[a:b] for a, b in spans) == text

    @given(matrix_texts())
    @settings(max_examples=400, deadline=None)
    def test_property_matches_the_token_scan(self, text):
        # the search, str methods and int() accept what the token scan
        # accepts, and refused text keeps the scan's message and position
        try:
            rows = parse_matrix_tokens(text)
        except MatrixTextError as expected:
            with pytest.raises(MatrixParseError) as err:
                parse_matrix(text)
            assert (str(err.value), err.value.position) == (str(expected), expected.position)
        else:
            assert parse_matrix(text).entries == tuple(map(tuple, rows))

    def test_valid_text_never_reaches_the_scan(self, monkeypatch):
        # the token scan runs only to name an error
        def no_scan(text):
            raise AssertionError(f"well-formed text {text!r} reached the token scan")

        monkeypatch.setattr(spherecp.fgab, "_raise_matrix_text_error", no_scan)
        fixed = fixed_dense(25)  # the largest of the benchmark's fixed dense set
        big = "9" * LITERAL_DIGITS_BUDGET
        cases = [
            ("-2,0;-1,-2", [[-2, 0], [-1, -2]]),
            ("[[-2,0],[-1,-2]]", [[-2, 0], [-1, -2]]),
            ("[ 1, 2 ; 3, 4 ]", [[1, 2], [3, 4]]),
            ("[[1, 2] , [3, 4]]", [[1, 2], [3, 4]]),
            ("\t+1,\n-2 ;\r\n+3 ,\t4\n", [[1, -2], [3, 4]]),
            (f"[-{big}, +{big}]", [[-int(big), int(big)]]),
            (fixed.to_text(), fixed.entries),
        ]
        for text, rows in cases:
            assert parse_matrix(text) == IntMatrix.from_rows(rows)
        with pytest.raises(AssertionError, match="reached the token scan"):
            parse_matrix("1,x")  # the patch is live: refused text does reach it

    def test_ragged_text_never_reaches_the_scan(self, monkeypatch):
        # every entry reads, so parse_matrix names the first ragged row itself
        def no_scan(text):
            raise AssertionError(f"ragged text {text!r} reached the token scan")

        monkeypatch.setattr(spherecp.fgab, "_raise_matrix_text_error", no_scan)
        for text, message in [
            ("1,2;3", "row 2 has 1 entries, expected 2"),
            ("[[1],[2,3],[4]]", "row 2 has 2 entries, expected 1"),
            ("1;2;3,4;5,6,7", "row 3 has 2 entries, expected 1"),
        ]:
            with pytest.raises(MatrixParseError) as err:
                parse_matrix(text)
            assert (str(err.value), err.value.position) == (message, None)

    def test_refused_text_stays_linear(self):
        cases = [
            (",".join(["7"] * 100_000) + "x", "unexpected character 'x'", 199_999),
            ("1" * 200_000, "integer literal of 200000 digits exceeds LITERAL_DIGITS_BUDGET", 0),
            ("[" * 100_000, "matrix text contains no entries", 0),
        ]
        with time_limit(10):
            for text, message, position in cases:
                with pytest.raises(MatrixParseError, match=message) as err:
                    parse_matrix(text)
                assert err.value.position == position

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(40):
            a = random_int_matrix(rng, max_dim=5, max_entry=99, min_dim=1)
            if a.cols == 0:
                continue
            assert parse_matrix(a.to_text()) == a

    def test_parse_errors_carry_positions(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix("1,x;3,4")
        assert err.value.position == 2
        with pytest.raises(MatrixParseError):
            parse_matrix("1,2;3")
        with pytest.raises(MatrixParseError):
            parse_matrix("1,,2")
        with pytest.raises(MatrixParseError):
            parse_matrix("")
        with pytest.raises(MatrixParseError):
            parse_matrix("1,2;")
        with pytest.raises(MatrixParseError) as err:
            parse_matrix("1 2")
        assert str(err.value) == "expected ',' or ';' between entries (at position 2)"
        # with two errors, the leftmost one is reported
        with pytest.raises(MatrixParseError, match="expected an integer entry") as err:
            parse_matrix("1,,x")
        assert err.value.position == 2
        # int() takes underscores between digits and any whitespace around them
        for text, position in [("1_000", 1), ("\x0b1, 2", 0), ("1, 2\xa0", 4), ("1;\u30002", 2)]:
            with pytest.raises(MatrixParseError) as err:
                parse_matrix(text)
            assert str(err.value) == f"unexpected character {text[position]!r} (at position {position})"

    def test_literal_budget(self):
        # refused as a parse error, not int()'s bare ValueError
        with pytest.raises(MatrixParseError, match="LITERAL_DIGITS_BUDGET") as err:
            parse_matrix("1" * 5000)
        assert err.value.position == 0
        with pytest.raises(MatrixParseError, match="LITERAL_DIGITS_BUDGET") as err:
            parse_matrix("2, -" + "1" * (LITERAL_DIGITS_BUDGET + 1))
        assert err.value.position == 3
        # the budget counts digits, not the sign
        big = "-" + "7" * LITERAL_DIGITS_BUDGET
        assert parse_matrix(big).entries == ((int(big),),)
        # many long literals within the budget all convert
        assert parse_matrix(",".join(["7" * 4000] * 50)).cols == 50

    def test_literal_past_a_lowered_interpreter_limit(self):
        # a process may lower the int <-> str limit below the budget
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(1000)
        try:
            with pytest.raises(MatrixParseError, match=r"int <-> str limit \(1000 digits\)") as err:
                parse_matrix("1" * 2000)
            assert err.value.position == 0
            with pytest.raises(MatrixParseError, match="1000 digits") as err:
                parse_matrix("2, -" + "1" * 1001)
            assert err.value.position == 3
            assert parse_matrix("9" * 1000).entries == ((int("9" * 1000),),)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("limit", [0, 10_000])
    def test_budget_holds_past_a_raised_interpreter_limit(self, limit):
        # with no limit (0) or a higher one, int() would take the literal,
        # so the budget alone refuses it
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            with pytest.raises(MatrixParseError, match="LITERAL_DIGITS_BUDGET") as err:
                parse_matrix("[1, -" + "1" * (LITERAL_DIGITS_BUDGET + 1) + "]")
            assert err.value.position == 4
        finally:
            sys.set_int_max_str_digits(previous)


class TestIntMatrix:
    def test_matmul_shapes(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
        b = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
        assert (a @ b).rows == 3 and (a @ b).cols == 3
        with pytest.raises(ValueError):
            b @ IntMatrix.identity(2)
        with pytest.raises(ValueError, match="matrix shapes differ"):  # and - needs equal shapes
            IntMatrix.identity(2) - IntMatrix.identity(3)

    def test_det_matches_cofactor_small(self):
        rng = random.Random(11)
        for _ in range(100):
            e = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            a = IntMatrix.from_rows(e)
            cof = (
                e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
                - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
                + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
            )
            assert a.det() == cof

    def test_det_empty_and_identity(self):
        assert IntMatrix.identity(0).det() == 1
        assert IntMatrix.identity(4).det() == 1

    def test_shape_refusals(self):
        with pytest.raises(ValueError, match="nonnegative"):
            IntMatrix(-1, 0, ())
        with pytest.raises(ValueError, match="expected 2 rows, got 1"):
            IntMatrix(2, 1, ((1,),))
        with pytest.raises(ValueError, match="ragged"):
            IntMatrix(2, 2, ((1, 2), (3,)))
        with pytest.raises(ValueError, match="cols="):
            IntMatrix.from_rows([])
        with pytest.raises(ValueError, match="square"):
            IntMatrix(2, 3, ((0, 0, 0), (0, 0, 0))).det()

    def test_entries_must_be_int(self):
        with pytest.raises(TypeError):
            IntMatrix(1, 1, ((1.5,),))  # type: ignore[arg-type]

    def test_from_rows_refuses_float_and_bool(self):
        # refused, not stored as ((2, 1),)
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[2.7, 1]])
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[2, True]])
        with pytest.raises(TypeError):
            IntMatrix(2.0, 2, ((1, 2), (3, 4)))
        with pytest.raises(TypeError):
            IntMatrix(True, 1, ((1,),))
        with pytest.raises(TypeError):
            IntMatrix.from_rows([], cols=2.5)
        assert IntMatrix.from_rows([[2, 1]]).entries == ((2, 1),)

    def test_entries_are_stored_as_tuples(self):
        # list entries compare and hash like the tuples from_rows stores
        a = IntMatrix(1, 1, [[2]])
        assert a.entries == ((2,),)
        assert a == IntMatrix.from_rows([[2]]) and hash(a) == hash(IntMatrix.from_rows([[2]]))
        b = IntMatrix(2, 2, ([1, 0], [0, 1]))
        assert b == IntMatrix.identity(2) and b.det() == 1


def leibniz_det(rows):
    """Determinant as the signed sum over permutations; no elimination."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


class TestBareissPivotSearch:
    """Each path of the pivot search: column swap, row swap, no pivot at all."""

    @pytest.mark.parametrize("rows, cols, rank, minor", [
        # column k is zero from row k down: the pivot comes from a later column
        ([[0, 1, 2], [0, 3, 4]], 3, 2, 2),
        ([[0, 1], [0, 2]], 2, 1, 1),
        ([[1, 2, 3], [2, 4, 7], [3, 6, 1]], 3, 2, 1),
        # a zero pivot with a nonzero entry below it: rows swap
        ([[0, 1], [1, 0]], 2, 2, 1),
        ([[0, 2, 1], [0, 0, 3], [5, 1, 1]], 3, 3, 30),
        # no nonzero entry at all
        ([[0, 0, 0], [0, 0, 0]], 3, 0, 1),
        ([], 3, 0, 1),
    ])
    def test_rank_and_minor(self, rows, cols, rank, minor):
        r, m, _, (p, q) = spherecp.fgab._bareiss(rows, cols)
        assert (r, abs(m)) == (rank, minor)
        # the pivot order names the rows and columns of the minor
        assert sorted(p) == list(range(len(rows))) and sorted(q) == list(range(cols))
        assert abs(leibniz_det([[rows[i][j] for j in q[:r]] for i in p[:r]])) == minor
        if rows and len(rows) == cols:
            assert IntMatrix.from_rows(rows).det() == leibniz_det(rows)

    def test_unit_block_matches_the_plain_elimination(self):
        # [A | I] updated only where its unit block can be nonzero, against
        # the full update; sparse entries make row swaps common, and
        # products of thin factors make the rank deficient
        rng = random.Random(32)
        swapped = deficient = 0
        for _ in range(400):
            n = rng.randint(1, 8)
            if rng.random() < 0.3:
                k = rng.randint(0, n - 1)  # the rank is at most k
                b = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
                c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
                rows = [[sum(b[i][l] * c[l][j] for l in range(k)) for j in range(n)] for i in range(n)]
            else:
                rows = [[rng.choice((0, 0, 0, 1, -1, 2, -5, 50)) for _ in range(n)] for _ in range(n)]
            padded = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
            expected = plain_bareiss(padded, n)
            assert spherecp.fgab._bareiss(padded, n, unit=True) == expected
            swapped += expected[3][0] != list(range(n))
            deficient += expected[0] < n
        assert swapped > 50 and deficient > 50

    def test_det_sign_against_leibniz(self):
        # sparse entries make zero pivots, and so both kinds of swap, common
        rng = random.Random(4)
        for _ in range(400):
            n = rng.randint(1, 4)
            rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
            assert IntMatrix.from_rows(rows).det() == leibniz_det(rows)


@st.composite
def nonsingular_squares(draw):
    """Nonsingular n x n matrices, n = 1..6, entries in ±50, and whether a zero corner forces a row swap.

    With A[0][0] = 0, the Bareiss elimination of A and of A^T both find
    their first pivot below row 0.
    """
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n), min_size=n, max_size=n))
    swapped = draw(st.booleans())
    if swapped:
        rows[0][0] = 0
    assume(IntMatrix.from_rows(rows).det())
    return rows, swapped


class TestBackSubstitution:
    """The one triangular solve, against adj(A) from cofactors."""

    @staticmethod
    def solve(t, rhs):
        """All rows of X, first first."""
        return list(spherecp.fgab._back_substitute(t, reversed(rhs)))[::-1]

    @given(nonsingular_squares())
    @settings(max_examples=200, deadline=None)
    def test_property_solves_give_adjugate_columns(self, drawn):
        rows, swapped = drawn
        n = len(rows)
        a = IntMatrix.from_rows(rows)
        v, w = range(1, n + 1), [(-1) ** i for i in range(1, n + 1)]
        adj_v, adj_w = adjugate_times(a, v), adjugate_times(a, w)
        # over [A | v | w]: X = ±[adj(A)·v | adj(A)·w], its rows in pivot-column order q
        _, det, t, (p, q) = spherecp.fgab._bareiss([[*row, v[i], w[i]] for i, row in enumerate(rows)], n)
        x = self.solve(t, [[abs(det) * row[n], abs(det) * row[n + 1]] for row in t])
        expected = [[adj_v[j], adj_w[j]] for j in q]
        assert x in (expected, [[-y for y in row] for row in expected])
        assert not swapped or p != list(range(n))  # the rows of A swapped
        # over [A^T | I]: row j of X = ±column p[j] of adj(A), p the pivot columns of A^T
        _, det, tf, (q, p) = spherecp.fgab._transposed_bareiss(rows, n)
        x = self.solve(tf, [[det * f for f in row[n:]] for row in tf])
        adj = adjugate_columns(a)
        expected = [adj[j] for j in p]
        assert x in (expected, [[-y for y in col] for col in expected])
        assert not swapped or q != list(range(n))  # the rows of A^T swapped
