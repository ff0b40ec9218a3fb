"""Tests for exact integer linear algebra and canonical abelian groups.

Expected values for the small worked examples were frozen from the
independent oracles in oracles.py (gcd/determinant identities, coset
enumeration, solution enumeration) -- see the comments next to each.
"""

import contextlib
import doctest
import json
import random
import signal
import sys
import time
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherecp.fgab
from spherecp import cli
from oracles import (
    coset_count_2x2,
    invariant_factors_by_primes,
    is_divisor_chain,
    kernel_rank_by_enumeration,
    random_int_matrix,
    random_unimodular,
    snf_2x2_oracle,
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


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
        a = IntMatrix.zero(2, 3)
        snf = smith_normal_form(a)
        assert snf.diagonal == (0, 0)
        snf_is_valid(a, snf)

    def test_empty_matrices(self):
        for rows, cols in [(0, 3), (3, 0), (0, 0)]:
            a = IntMatrix.zero(rows, cols)
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
            ("2,4,4;-6,6,12", "1,0;3,1", "2,0,0;0,6,0", "1,0,2;0,-1,-4;0,1,3"),
            ("2,3;4,5;6,7", "1,0,0;1,-1,0;1,-2,1", "1,0;0,2;0,0", "-1,-3;1,2"),
            # rank 2
            ("1,2,3;4,5,6;7,8,9", "1,0,0;4,-1,0;1,-2,1", "1,0,0;0,3,0;0,0,0",
             "1,-2,1;0,1,-2;0,0,1"),
            # the divides-pivot matrix of TestInvariantFactors
            ("-2,0,-8,5,-4;-4,-1,5,-9,-1;-4,0,-16,10,-8", "0,-1,0;1,0,0;-2,0,1",
             "1,0,0,0,0;0,1,0,0,0;0,0,0,0,0",
             "0,2,-4,-5,8;1,-17,21,38,-69;0,0,1,0,0;0,1,0,-2,4;0,0,0,0,1"),
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
        assert cokernel(IntMatrix.zero(2, 2)) == FgAbGroup(free_rank=2)

    def test_cokernel_empty_presentation(self):
        # a 0 x n relation matrix presents the free group Z^n
        assert cokernel(IntMatrix.zero(0, 3)) == FgAbGroup(free_rank=3)
        assert cokernel(IntMatrix.zero(2, 0)) == FgAbGroup()

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
        assert invariant_factors(IntMatrix.zero(3, 2)) == ((), 0)
        for rows, cols in [(0, 3), (3, 0), (0, 0)]:
            assert invariant_factors(IntMatrix.zero(rows, cols)) == ((), 0)
        # a unit minor: all invariant factors are 1
        assert invariant_factors(IntMatrix.from_rows([[2, 3], [1, 2]])) == ((), 2)
        assert invariant_factors(IntMatrix.from_rows([[1, 5, 7]])) == ((), 1)

    def test_pivot_dividing_the_entry_takes_the_plain_branch(self):
        # rank 2 with minor 2; the Bezout branch on a pivot that divides the
        # entry cycles forever modulo 2, so a regression fails on the alarm
        a = IntMatrix.from_rows([[-2, 0, -8, 5, -4], [-4, -1, 5, -9, -1], [-4, 0, -16, 10, -8]])
        assert abs(spherecp.fgab._bareiss(a.entries, a.cols)[1]) == 2
        with time_limit(5):
            assert invariant_factors(a) == ((), 2)
            assert cokernel(a) == FgAbGroup(free_rank=3)

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


def max_bits(*matrices):
    return max(abs(x).bit_length() for m in matrices for row in m.entries for x in row)


def twice_det_bits(a):
    """2 bits(|det A|) + bits(n): the U/V size the fgab docstring states for these inputs."""
    return 2 * abs(a.det()).bit_length() + a.rows.bit_length()


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
    """Square nonsingular input: Hermite form modulo |det A|, then one exact solve."""

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
        hw = spherecp.fgab._hermite_and_transform(a)
        w = IntMatrix.from_rows([row[n:] for row in hw])
        assert w @ a == IntMatrix.from_rows(h)
        assert abs(w.det()) == 1

    def test_hermite_form_with_bezout_pivot(self):
        # modulo 12 neither 4 nor 6 is a unit, so column 0 takes a Bezout step
        assert spherecp.fgab._hermite_mod([[4, 0], [6, 3]], 12) == [[2, 3], [0, 6]]
        a = IntMatrix.from_rows([[4, 0], [6, 3]])
        snf = smith_normal_form(a)
        snf_is_valid(a, snf)
        assert snf.diagonal == (1, 12)

    def test_unimodular_and_singular_squares(self):
        a = IntMatrix.from_rows([[2, 3], [1, 2]])
        snf = smith_normal_form(a)
        snf_is_valid(a, snf)
        assert snf.D == IntMatrix.identity(2)
        assert spherecp.fgab._hermite_and_transform(IntMatrix.from_rows([[1, 2], [2, 4]])) is None

    def test_dense_fixed_matrices_print_as_valid_input(self, capsys):
        # the benchmark's fixed dense set, drawn in the same order; the
        # transforms of the 23x23 and 25x25 used to print past the digit limit
        rng = random.Random(20071123)
        for n in range(16, 26):
            a = dense(rng, n)
            assert cli.main(["snf", a.to_text(), "--format", "structured"]) == 0
            out = json.loads(capsys.readouterr().out)
            u, d, v = (parse_matrix(out[k]) for k in ("U", "D", "V"))  # within the literal budget
            assert u @ a @ v == d
            assert max_bits(u, v) <= twice_det_bits(a)

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
        # with two errors, the leftmost one is reported
        with pytest.raises(MatrixParseError, match="expected an integer entry") as err:
            parse_matrix("1,,x")
        assert err.value.position == 2

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
