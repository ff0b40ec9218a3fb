"""End-to-end tests of the command-line interface (in-process, via main)."""

import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import random_cuntz_element, time_limit

from spherecp import SPEC_TEXT_BUDGET, cli
from spherecp.bundles import BundleSpecError, SpecFormatError, SphereBundleSpec
from spherecp.classify import ComparisonError, classify_report
from spherecp.cli import TABLE_ROWS_BUDGET, _table_row, main, render_structured
from spherecp.cuntz_words import BaseMismatchError, ExpressionParseError
from spherecp.fgab import IntMatrix, MatrixParseError, SpherecpInputError, parse_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _word_text(mu, nu):
    return " ".join([f"s{i}" for i in mu] + [f"s{i}*" for i in reversed(nu)])


@st.composite
def zero_sum_rewrites(draw):
    """An element x over d isometries and the text of x plus a sum that is
    zero by the unit relation: c S_mu S_nu* - sum over i of c S_mu.i S_nu.i*."""
    d = draw(st.integers(2, 3))
    x = random_cuntz_element(draw(st.randoms(use_true_random=False)), d)
    word = st.lists(st.integers(1, d), max_size=3).map(tuple)
    mu, nu, c = draw(word), draw(word), draw(st.integers(1, 5))
    zero = " - ".join([f"{c} {_word_text(mu, nu)}"]
                      + [f"{c} {_word_text(mu + (i,), nu + (i,))}" for i in range(1, d + 1)])
    return d, str(x), f"{x} + {zero}"


# JSON values: strings with non-ASCII, control, quote and backslash
# characters; ints of several hundred digits, both signs; bools, None and
# empty containers.
_json_text = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\n\t\x7f\u2028é·λ\U0001f600'), st.characters()),
                     max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400) | _json_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=20,
)


# Exact kgroups output, human and structured.  The note is formatted by the
# CLI from the spec and its presentation matrix; these pin its text.
KGROUPS_PINNED = [
    (
        ["--sphere", "4", "--rank", "3", "--euler", "1"],
        "spec: sphere_dim=4 rank=3 euler=1\n"
        "k_class: 3 + λ\n"
        "K0 = Z/4\n"
        "K1 = 0\n"
        "note: even sphere S^4: K0 = coker, K1 = ker of the presentation matrix "
        "[-2,0;-1,-2] (identity minus tensor endomorphism)\n",
        '{\n'
        '  "K0": "Z/4",\n'
        '  "K1": "0",\n'
        '  "note": "even sphere S^4: K0 = coker, K1 = ker of the presentation matrix '
        '[-2,0;-1,-2] (identity minus tensor endomorphism)"\n'
        '}\n',
    ),
    (
        ["--sphere", "5", "--rank", "4"],
        "spec: sphere_dim=5 rank=4 euler=0\n"
        "k_class: 4\n"
        "K0 = Z/3\n"
        "K1 = 0\n"
        "note: odd sphere S^5: K0 = coker, K1 = ker of the presentation matrix "
        "[-3] (identity minus tensor endomorphism)\n",
        '{\n'
        '  "K0": "Z/3",\n'
        '  "K1": "0",\n'
        '  "note": "odd sphere S^5: K0 = coker, K1 = ker of the presentation matrix '
        '[-3] (identity minus tensor endomorphism)"\n'
        '}\n',
    ),
]


class TestKGroups:
    @pytest.mark.parametrize("flags, human, structured", KGROUPS_PINNED, ids=["S4-even", "S5-odd"])
    def test_pinned_output(self, capsys, flags, human, structured):
        assert run_cli(capsys, "kgroups", *flags) == (0, human, "")
        assert run_cli(capsys, "kgroups", *flags, "--format", "structured") == (0, structured, "")

    def test_human(self, capsys):
        code, out, err = run_cli(
            capsys, "kgroups", "--sphere", "4", "--rank", "3", "--euler", "1"
        )
        assert code == 0 and not err
        assert "K0 = Z/4" in out
        assert "K1 = 0" in out
        assert "3 + λ" in out

    def test_structured(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "kgroups", "--sphere", "4", "--rank", "3", "--euler", "1",
            "--format", "structured",
        )
        assert code == 0
        data = json.loads(out)
        assert data["K0"] == "Z/4"
        assert data["K1"] == "0"

    @pytest.mark.parametrize("k", [4300, 2200])
    def test_order_past_the_int_str_limit_is_exact(self, capsys, k):
        # d = 10^k - 1 is within the literal budget, but K0's order
        # (d - 1)^2 = 10^2k - 4·10^k + 4 has 2k digits, past the
        # interpreter's 4300-digit int -> str limit
        d, d1 = "9" * k, "9" * (k - 1) + "8"
        order = "9" * (k - 1) + "6" + "0" * (k - 1) + "4"
        note = ("even sphere S^4: K0 = coker, K1 = ker of the presentation matrix "
                f"[-{d1},0;-1,-{d1}] (identity minus tensor endomorphism)")
        flags = ["kgroups", "--sphere", "4", "--rank", d, "--euler", "1"]
        human = f"spec: sphere_dim=4 rank={d} euler=1\nk_class: {d} + λ\nK0 = Z/{order}\nK1 = 0\nnote: {note}\n"
        structured = f'{{\n  "K0": "Z/{order}",\n  "K1": "0",\n  "note": "{note}"\n}}\n'
        assert run_cli(capsys, *flags) == (0, human, "")
        assert run_cli(capsys, *flags, "--format", "structured") == (0, structured, "")

    def test_spec_file(self, capsys, tmp_path):
        p = tmp_path / "b.json"
        p.write_text('{"sphere_dim": 5, "rank": 4}')
        code, out, _ = run_cli(capsys, "kgroups", "--spec", str(p))
        assert code == 0
        assert "K0 = Z/3" in out

    def test_spec_literal_over_budget(self, capsys, tmp_path):
        p = tmp_path / "b.json"
        p.write_text('{"sphere_dim": 4, "rank": %s}' % ("1" * 5000))
        code, out, err = run_cli(capsys, "kgroups", "--spec", str(p))
        assert code == 1 and out == ""
        assert "LITERAL_DIGITS_BUDGET" in err and "set_int_max_str_digits" not in err

    def test_spec_nested_past_the_recursion_limit(self, capsys, tmp_path):
        # json.loads raised RecursionError on this, and kgroups exited 2
        p = tmp_path / "b.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "kgroups", "--spec", str(p))
        assert code == 1 and out == ""
        assert err.startswith("error: bundle spec nests deeper than one flat JSON object")

    def test_spec_file_past_the_budget_is_refused(self, capsys, tmp_path):
        # a valid spec padded with spaces to one character past the budget was read whole and exited 0
        assert SPEC_TEXT_BUDGET == 262_144
        p = tmp_path / "b.json"
        p.write_text('{"sphere_dim": 4, "rank": 3, "euler": 1}'.ljust(SPEC_TEXT_BUDGET + 1))
        code, out, err = run_cli(capsys, "kgroups", "--spec", str(p))
        assert (code, out) == (1, "")
        assert err == "error: bundle spec text exceeds SPEC_TEXT_BUDGET (262144 characters)\n"

    def test_spec_file_at_the_budget_is_read(self, capsys, tmp_path):
        p = tmp_path / "b.json"
        p.write_text('{"sphere_dim": 4, "rank": 3, "euler": 1}'.ljust(SPEC_TEXT_BUDGET))
        code, out, err = run_cli(capsys, "kgroups", "--spec", str(p))
        assert (code, err) == (0, "")
        assert "K0 = Z/4" in out

    @pytest.mark.parametrize("value", [1.5, True, "3"], ids=repr)
    @pytest.mark.parametrize("field", ["sphere_dim", "rank", "euler"])
    def test_spec_non_int_field(self, capsys, tmp_path, field, value):
        # a spec error (exit 1), not the TypeError of a library argument check (exit 2)
        p = tmp_path / "b.json"
        p.write_text(json.dumps({"sphere_dim": 4, "rank": 3, "euler": 1, field: value}))
        code, out, err = run_cli(capsys, "kgroups", "--spec", str(p))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {field}")

    def test_spec_repeated_field(self, capsys, tmp_path):
        # the last value used to win, and this printed the S^2 answer with exit 0
        p = tmp_path / "b.json"
        p.write_text('{"sphere_dim": 4, "rank": 3, "euler": 1, "sphere_dim": 2}')
        for argv in (["kgroups", "--spec", p], ["classify", "--sphere", "4", "--rank", "3", "--spec2", p]):
            code, out, err = run_cli(capsys, *map(str, argv))
            assert (code, out, err) == (1, "", "error: repeated bundle spec fields: sphere_dim\n")

    def test_spec_file_not_text(self, capsys, tmp_path):
        p = tmp_path / "b.json"
        p.write_bytes(b"\xff\xfe{")
        code, out, err = run_cli(capsys, "kgroups", "--spec", str(p))
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read bundle spec file:")

    def test_spec_file_conflicts_with_flags(self, capsys, tmp_path):
        p = tmp_path / "b.json"
        p.write_text('{"sphere_dim": 4, "rank": 3}')
        code, _, err = run_cli(capsys, "kgroups", "--spec", str(p), "--rank", "5")
        assert code == 1 and "error:" in err

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "kgroups", "--sphere", "4")
        assert code == 1 and "error:" in err

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "kgroups", "--sphere", "4", "--rank", "1")
        assert code == 1 and "rank" in err

    def test_odd_sphere_euler_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "kgroups", "--sphere", "5", "--rank", "3", "--euler", "2"
        )
        assert code == 1 and "error:" in err


class TestClassify:
    def test_single_report_human(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--sphere", "4", "--rank", "3", "--euler", "1"
        )
        assert code == 0
        assert "K0 = Z/4" in out
        assert "delta1 matrix: 3,0;1,3 base=3" in out
        assert "distinguishable from trivial by K-theory: yes" in out
        assert "caveat:" in out

    def test_single_report_odd_sphere(self, capsys):
        # over an odd sphere the grade-one matrix is the 1x1 matrix [rank]
        code, out, _ = run_cli(capsys, "classify", "--sphere", "5", "--rank", "4")
        assert code == 0
        assert "\ndelta1 matrix: 4 base=4\n" in out

    def test_single_report_structured_fields(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify", "--sphere", "4", "--rank", "3", "--euler", "1",
            "--format", "structured",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {
            "spec", "k_class", "K0", "K1", "delta1_matrix",
            "distinguishable_from_trivial", "caveats",
        }
        assert data["delta1_matrix"] == "3,0;1,3"

    def test_pair_verdicts(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify", "--sphere", "4", "--rank", "3", "--euler", "1", "--euler2", "0",
        )
        assert code == 0
        assert "delta1 invariants equal: no" in out
        assert "graded stably isomorphic: no" in out
        assert "K-theory distinguishes them: yes" in out

    def test_pair_blind_spot_notes_inconclusive(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify", "--sphere", "4", "--rank", "2", "--euler", "1", "--euler2", "0",
        )
        assert code == 0
        assert "K-theory distinguishes them: no" in out
        assert "inconclusive" in out
        assert "graded stably isomorphic: no" in out

    def test_pair_structured(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify", "--sphere", "6", "--rank", "4", "--euler", "2", "--euler2", "2",
            "--format", "structured",
        )
        assert code == 0
        data = json.loads(out)
        assert data["delta1_equal"] is True
        assert data["graded_stably_isomorphic"] is True
        assert data["k_distinguishable"] is False
        assert data["specB"] == {"sphere_dim": 6, "rank": 4, "euler": 2}

    def test_pair_rank_mismatch_is_refused(self, capsys):
        code, _, err = run_cli(
            capsys,
            "classify", "--sphere", "4", "--rank", "3", "--euler", "1",
            "--rank2", "4", "--euler2", "1",
        )
        assert code == 1 and "rank" in err

    def test_pair_dimension_mismatch_is_refused(self, capsys):
        code, _, err = run_cli(
            capsys,
            "classify", "--sphere", "4", "--rank", "3", "--sphere2", "2",
        )
        assert code == 1 and "sphere" in err.lower()

    def test_pair_spec_files(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"sphere_dim": 4, "rank": 3, "euler": 1}')
        b.write_text('{"sphere_dim": 4, "rank": 3, "euler": -1}')
        code, out, _ = run_cli(capsys, "classify", "--spec", str(a), "--spec2", str(b))
        assert code == 0
        assert "graded stably isomorphic: no" in out

    def test_pair_spec_file_and_euler2(self, capsys, tmp_path):
        # bundle B is bundle A, read from the file, with the euler parameter replaced
        a = tmp_path / "a.json"
        a.write_text('{"sphere_dim": 4, "rank": 3, "euler": 1}')
        assert run_cli(capsys, "classify", "--spec", str(a), "--euler2", "0") == (0, (
            "bundle A: sphere_dim=4 rank=3 euler=1\n"
            "bundle B: sphere_dim=4 rank=3 euler=0\n"
            "delta1 invariants equal: no\n"
            "graded stably isomorphic: no\n"
            "K-theory distinguishes them: yes\n"), "")

    @pytest.mark.parametrize("flags, err", [
        (["--rank2", "1"], "error: fiber rank must be >= 2, got 1\n"),  # RankTooSmall
        (["--sphere2", "5"], "error: S^5 has trivial reduced K-theory, so the class of a bundle is its rank; "
                             "euler parameter must be 0, got 1\n"),  # OddSphereNonzeroClass, from A's euler
        (["--spec2", "a.json", "--euler2", "0"], "error: --spec2 cannot be combined with numeric bundle flags\n"),
    ], ids=["rank2", "sphere2", "spec2-and-euler2"])
    def test_pair_bundle_b_refusals(self, capsys, tmp_path, monkeypatch, flags, err):
        monkeypatch.chdir(tmp_path)
        Path("a.json").write_text('{"sphere_dim": 4, "rank": 3, "euler": 1}')
        assert run_cli(capsys, "classify", "--sphere", "4", "--rank", "3", "--euler", "1", *flags) == (1, "", err)


class TestTable:
    def test_basic_grid(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--d-max", "3", "--c-max", "2")
        assert code == 0
        lines = out.strip().splitlines()
        # 2 ranks x 3 euler values = 6 rows after the 3 header lines
        assert len(lines) == 9

    def test_pinned_human_grid(self, capsys):
        # the human lines are written from the same row dicts the structured form holds
        human = (
            "survey over S^4\n"
            "  d    c k_class      K0                  gcd  distinguishable\n"
            "--------------------------------------------------------------\n"
            "  2    0 2            0                     1  no\n"
            "  2    1 2 + λ        0                     1  no\n"
            "  2    2 2 + 2·λ      0                     1  no\n"
            "  3    0 3            Z/2 + Z/2             2  no\n"
            "  3    1 3 + λ        Z/4                   1  yes\n"
            "  3    2 3 + 2·λ      Z/2 + Z/2             2  no\n"
        )
        assert run_cli(capsys, "table", "--d-max", "3", "--c-max", "2") == (0, human, "")

    def test_structured_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--d-max", "3", "--c-max", "1", "--format", "structured"
        )
        assert code == 0
        data = json.loads(out)
        assert data["sphere_dim"] == 4
        assert [(
            r["rank"], r["euler"]) for r in data["rows"]
        ] == [(2, 0), (2, 1), (3, 0), (3, 1)]
        row = data["rows"][3]
        assert row["K0"] == "Z/4" and row["gcd"] == 1
        assert row["distinguishable_from_trivial"] is True

    def test_rows_match_classify_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--sphere", "6", "--d-max", "4", "--c-max", "3", "--format", "structured"
        )
        assert code == 0
        rows = {(r["rank"], r["euler"]): r for r in json.loads(out)["rows"]}
        assert len(rows) == 12
        # the CLI grid only has c >= 0; negative c goes through the same row builder
        for d in range(2, 5):
            for c in range(-3, 4):
                spec = SphereBundleSpec(6, d, c)
                row = rows[(d, c)] if c >= 0 else _table_row(spec)
                rep = classify_report(spec)
                assert row["k_class"] == str(rep.k_class)
                assert row["K0"] == str(rep.k_groups.k0)
                assert row["distinguishable_from_trivial"] is rep.k_distinguishable_from_trivial

    def test_bad_bounds(self, capsys):
        assert run_cli(capsys, "table", "--d-max", "1")[0] == 1
        assert run_cli(capsys, "table", "--c-max", "-1")[0] == 1
        assert run_cli(capsys, "table", "--sphere", "3")[0] == 1
        assert run_cli(capsys, "table", "--jobs", "0")[0] == 1

    def test_grid_over_budget_is_refused(self, capsys):
        # budget + 1 rows; without the check this would print them all and exit 0
        code, out, err = run_cli(capsys, "table", "--d-max", "2", "--c-max", str(TABLE_ROWS_BUDGET))
        assert code == 1 and out == ""
        assert f"{TABLE_ROWS_BUDGET + 1} rows" in err and "TABLE_ROWS_BUDGET" in err
        assert run_cli(capsys, "table", "--d-max", "100000", "--c-max", "100000")[0] == 1

    def test_grid_at_the_budget_runs(self, capsys):
        # exactly TABLE_ROWS_BUDGET rows: the title, the header and the rule, then one line per row
        code, out, err = run_cli(capsys, "table", "--d-max", "2", "--c-max", str(TABLE_ROWS_BUDGET - 1))
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 3 + TABLE_ROWS_BUDGET

    @pytest.mark.parametrize("flag, rows", [
        ("--c-max", "5" + "0" * 4300),  # 5 ranks times 10**4300 euler values
        ("--d-max", "6" + "9" * 4298 + "86"),  # (10**4300 - 2) ranks times 7
    ], ids=["c-max", "d-max"])
    def test_grid_past_the_int_str_limit_is_refused(self, capsys, flag, rows):
        # the grid size has 4301 digits; written with str it exited 2
        code, out, err = run_cli(capsys, "table", flag, "9" * 4300)
        assert (code, out) == (1, "")
        assert err == f"error: the grid has {rows} rows, over TABLE_ROWS_BUDGET ({TABLE_ROWS_BUDGET} rows)\n"


class TestSnf:
    def test_worked_example(self, capsys):
        # "],[" separates rows, so the bracketed text is the same 2x2 matrix
        for text in ("-2,0;-1,-2", "[[-2,0],[-1,-2]]"):
            code, out, _ = run_cli(capsys, "snf", text)
            assert code == 0
            assert "diagonal: 1, 4" in out

    def test_structured_is_consistent_decomposition(self, capsys):
        code, out, _ = run_cli(capsys, "snf", "-2,0;-1,-2", "--format", "structured")
        assert code == 0
        data = json.loads(out)
        u = parse_matrix(data["U"])
        d = parse_matrix(data["D"])
        v = parse_matrix(data["V"])
        a = parse_matrix("-2,0;-1,-2")
        assert u @ a @ v == d
        assert abs(u.det()) == 1 and abs(v.det()) == 1

    def test_determinant_past_the_int_str_limit_is_exact(self, capsys):
        # A = [[N, 1], [1, N]], N = 10^3000 - 1: each entry is within the literal
        # budget, but D holds det A = N^2 - 1 = 10^6000 - 2·10^3000, 6000 digits;
        # U A V = [[1, N], [0, N^2 - 1]] V = D
        n = "9" * 3000
        det = "9" * 2999 + "8" + "0" * 3000
        u, d, v = f"0,1;-1,{n}", f"1,0;0,{det}", f"1,-{n};0,1"
        human = f"A = {n},1;1,{n}\nU = {u}\nD = {d}\nV = {v}\ndiagonal: 1, {det}\n"
        structured = f'{{\n  "D": "{d}",\n  "U": "{u}",\n  "V": "{v}"\n}}\n'
        assert run_cli(capsys, "snf", f"{n},1;1,{n}") == (0, human, "")
        assert run_cli(capsys, "snf", f"{n},1;1,{n}", "--format", "structured") == (0, structured, "")

    def test_entries_budget(self, capsys, monkeypatch):
        # the benchmark's largest matrix, 25 x 25, and every test input are within it
        assert cli.SNF_ENTRIES_BUDGET == 10_000 > 25 * 25
        monkeypatch.setattr(cli, "SNF_ENTRIES_BUDGET", 4)
        assert run_cli(capsys, "snf", "-2,0;-1,-2")[0] == 0
        monkeypatch.setattr(cli, "SNF_ENTRIES_BUDGET", 3)

        def refuse(a):
            raise AssertionError("an over-budget matrix reached the elimination")

        monkeypatch.setattr(cli, "smith_normal_form", refuse)
        for fmt in ("human", "structured"):
            assert run_cli(capsys, "snf", "-2,0;-1,-2", "--format", fmt) == (
                1, "", "error: the matrix has 4 entries, over SNF_ENTRIES_BUDGET (3 entries)\n")

    def test_bits_budget(self, capsys, monkeypatch):
        # the benchmark's largest matrix, 25 x 25 in ±50, and the two 3000-digit entries above are within it
        assert cli.SNF_BITS_BUDGET == 100_000 > 2 * (10**3000).bit_length() + 2 > 25 * 25 * (50).bit_length()
        monkeypatch.setattr(cli, "SNF_BITS_BUDGET", 5)  # -2, 0, -1, -2 have 2 + 0 + 1 + 2 bits
        assert run_cli(capsys, "snf", "-2,0;-1,-2")[0] == 0
        monkeypatch.setattr(cli, "SNF_BITS_BUDGET", 4)

        def refuse(a):
            raise AssertionError("an over-budget matrix reached the elimination")

        monkeypatch.setattr(cli, "smith_normal_form", refuse)
        for fmt in ("human", "structured"):
            assert run_cli(capsys, "snf", "-2,0;-1,-2", "--format", fmt) == (
                1, "", "error: the matrix entries have 5 bits in all, over SNF_BITS_BUDGET (4 bits)\n")

    def test_bad_matrix_text(self, capsys):
        code, _, err = run_cli(capsys, "snf", "1,2;x")
        assert code == 1 and "position" in err

    def test_dash_letter_is_still_an_option(self, capsys):
        # only cuntz widens the negative-number pattern to "-s"
        code, _, err = run_cli(capsys, "snf", "-s1")
        assert code == 1 and "required: matrix" in err


class TestCuntz:
    def test_canonical_form(self, capsys):
        code, out, _ = run_cli(capsys, "cuntz", "--d", "2", "s1* s1")
        assert code == 0
        assert out.strip() == "1"

    def test_canonical_form_of_sum(self, capsys):
        code, out, _ = run_cli(capsys, "cuntz", "--d", "2", "s2 s1* + s1")
        assert code == 0
        assert out.strip() == "s1 + s2 s1*"

    def test_equality_unit_relation(self, capsys):
        code, out, _ = run_cli(
            capsys, "cuntz", "--d", "2", "s1 s1* + s2 s2*", "--equal", "1"
        )
        assert code == 0
        assert out.strip() == "equal: yes"

    def test_inequality(self, capsys):
        code, out, _ = run_cli(capsys, "cuntz", "--d", "2", "s1 s1*", "--equal", "1")
        assert code == 0
        assert out.strip() == "equal: no"

    def test_structured_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cuntz", "--d", "3", "s1 s1* + s2 s2* + s3 s3*",
            "--equal", "1", "--format", "structured",
        )
        assert code == 0
        assert json.loads(out) == {"equal": True}

    def test_deep_equality_by_normal_form(self, capsys):
        # expanding s2^200 s2*^200 to a common depth would need 2^200 terms
        deep = " ".join(["s2"] * 200 + ["s2*"] * 200)
        rhs = f"s1 s1* + s2 s2* + {deep}"
        code, out, _ = run_cli(capsys, "cuntz", "--d", "2", f"1 + {deep}", "--equal", rhs)
        assert code == 0 and out.strip() == "equal: yes"
        code, out, _ = run_cli(capsys, "cuntz", "--d", "2", f"2 + {deep}", "--equal", rhs)
        assert code == 0 and out.strip() == "equal: no"

    @pytest.mark.parametrize("words", [("", "s1"), ("s1", "s2")])
    def test_coefficient_past_the_int_str_limit_is_exact(self, capsys, words):
        # N = 10^3000 - 1 is within the literal budget, but the coefficient
        # N^2 = 10^6000 - 2·10^3000 + 1 has 6000 digits, past the
        # interpreter's 4300-digit int -> str limit
        n = "9" * 3000
        square = "9" * 2999 + "8" + "0" * 2999 + "1"
        word = " ".join(w for w in words if w)
        text = f"{n} {words[0]} {n} {words[1]}"
        structured = f'{{\n  "canonical": "{square} {word}",\n  "degree": {len(word.split())}\n}}\n'
        assert run_cli(capsys, "cuntz", "--d", "2", text) == (0, f"{square} {word}\n", "")
        assert run_cli(capsys, "cuntz", "--d", "2", text, "--format", "structured") == (0, structured, "")

    def test_parse_error_position(self, capsys):
        code, _, err = run_cli(capsys, "cuntz", "--d", "2", "s1 ? s2")
        assert code == 1 and "position 3" in err

    def test_index_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "cuntz", "--d", "2", "s5")
        assert code == 1 and "out of range" in err

    def test_normal_form_past_the_budget_is_refused_at_once(self, capsys):
        # s_d s_d* expands to d terms; at d = 10^9 that would exhaust memory
        d = 10**9
        for extra in ([], ["--equal", "1"]):
            with time_limit(1):
                code, out, err = run_cli(capsys, "cuntz", "--d", str(d), f"s{d} s{d}*", *extra)
            assert code == 1 and out == ""
            assert err == "error: the normal form passes NORMAL_FORM_TERMS_BUDGET (100000 terms)\n"

    def test_long_shared_run_is_refused_at_once(self, capsys):
        # s2^k s2*^k at k = 20 000 is 20 000 terms, but about 4·10^8 letters
        text = " ".join(["s2"] * 20_000 + ["s2*"] * 20_000)
        for extra in ([], ["--equal", "1"]):
            with time_limit(1):
                code, out, err = run_cli(capsys, "cuntz", "--d", "2", text, *extra)
            assert code == 1 and out == ""
            assert err == "error: the normal form passes NORMAL_FORM_LETTERS_BUDGET (10000000 letters)\n"

    def test_d_too_small(self, capsys):
        code, _, err = run_cli(capsys, "cuntz", "--d", "1", "s1")
        assert code == 1
        assert err == "error: number of isometries must be an int >= 2, got 1\n"

    def test_expression_may_start_with_minus_s(self, capsys):
        assert run_cli(capsys, "cuntz", "--d", "2", "-s1") == (0, "-s1\n", "")
        code, out, _ = run_cli(capsys, "cuntz", "--d", "2", "-s1", "--format", "structured")
        assert code == 0 and json.loads(out) == {"canonical": "-s1", "degree": 1}
        code, out, _ = run_cli(capsys, "cuntz", "--d", "2", "s1", "--equal", "-s1*")
        assert code == 0 and out.strip() == "equal: no"
        code, out, _ = run_cli(capsys, "cuntz", "--d", "2", "-s1 s1*", "--equal", "-1 + s2 s2*")
        assert code == 0 and out.strip() == "equal: yes"

    def test_help_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cuntz", "-h"])
        assert exc.value.code == 0
        assert "--equal" in capsys.readouterr().out

    def test_prints_the_leavitt_normal_form(self, capsys):
        # structurally mixed, but the element is s1
        text = "s1 + s1 s1* + s2 s2* - 1"
        code, out, _ = run_cli(capsys, "cuntz", "--d", "2", text)
        assert code == 0 and out.strip() == "s1"
        code, out, _ = run_cli(capsys, "cuntz", "--d", "2", text, "--format", "structured")
        assert code == 0 and json.loads(out) == {"canonical": "s1", "degree": 1}

    @given(zero_sum_rewrites())
    @settings(max_examples=100, deadline=None)
    def test_output_ignores_zero_sum_rewrites(self, case):
        # capsys is one fixture per test, not per example, so capture here
        d, text, rewritten = case
        for fmt in ("human", "structured"):
            outputs = []
            for expr in (text, rewritten):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert main(["cuntz", "--d", str(d), "--format", fmt, "--", expr]) == 0
                outputs.append(buf.getvalue())
            assert outputs[0] == outputs[1]


class TestHarness:
    def test_help_describes_the_program(self, capsys):
        # the description is the first line of the module docstring
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "\n\nCommand-line front end.\n\n" in capsys.readouterr().out

    def test_unknown_subcommand_exits_one(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert run_cli(capsys, "kgroups", "--sphere", "4", "--rank", "3", "--zap")[0] == 1

    def test_internal_error_exits_two(self, capsys, monkeypatch):
        # anything but bad input or a domain refusal is exit code 2; only a
        # SpherecpInputError is bad input, so a stray ValueError is a fault too
        for error in (RuntimeError, ValueError):
            def broken(args, error=error):
                raise error("boom")

            monkeypatch.setitem(cli._COMMANDS, "snf", broken)
            code, out, err = run_cli(capsys, "snf", "1,2;3,4")
            assert code == 2
            assert out == ""
            assert err.startswith(f"internal error: {error.__name__}: boom")

    def test_input_errors_share_one_base(self):
        for error in (BundleSpecError, SpecFormatError, ComparisonError, BaseMismatchError,
                      ExpressionParseError, MatrixParseError, cli.CliError):
            assert issubclass(error, SpherecpInputError)
        assert SpherecpInputError("bad").position is None
        assert str(SpherecpInputError("bad", 3)) == "bad (at position 3)"

    def test_structured_round_trip_byte_identical(self, capsys):
        # the oracle is the json module's own indenting encoder, not render_structured
        cases = [
            ["kgroups", "--sphere", "4", "--rank", "3", "--euler", "1"],
            ["classify", "--sphere", "4", "--rank", "3", "--euler", "1"],
            ["classify", "--sphere", "5", "--rank", "4"],
            ["classify", "--sphere", "4", "--rank", "2", "--euler", "1", "--euler2", "0"],
            ["classify", "--sphere", "4", "--rank", "3", "--euler", "1", "--euler2", "0"],
            ["table", "--d-max", "3", "--c-max", "2"],
            ["snf", "-2,0;-1,-2"],
            ["snf", "1,2,3;4,5,6"],
            ["cuntz", "--d", "2", "s1 s2*"],
            ["cuntz", "--d", "2", "s1 s1* + s2 s2*", "--equal", "1"],
            ["cuntz", "--d", "2", "s1", "--equal", "s2"],
        ]
        for argv in cases:
            code, out, _ = run_cli(capsys, *argv, "--format", "structured")
            assert code == 0
            assert json.dumps(json.loads(out), indent=2, sort_keys=True, ensure_ascii=False) + "\n" == out

    @given(json_values)
    @settings(max_examples=300, deadline=None)
    def test_render_structured_matches_json_dumps(self, value):
        assert render_structured(value) == json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)

    def test_render_structured_writes_ints_past_the_int_str_limit(self):
        # json.dumps would raise here; every integer prints through fgab._int_text
        n = 10**5000 - 1
        assert render_structured({"n": [-n]}) == '{\n  "n": [\n    -' + "9" * 5000 + '\n  ]\n}'

    @pytest.mark.parametrize("value", [1.5, (1, 2), {1: "x"}, {"a": {None: 1}}, b"x", [{1, 2}]], ids=repr)
    def test_render_structured_refuses_other_types(self, value):
        with pytest.raises(TypeError):
            render_structured(value)

    @pytest.mark.parametrize("argv, calls", [
        (["snf", "-2,0;-1,-2", "--format", "structured"], 3),  # U, D, V
        (["snf", "-2,0;-1,-2"], 4),  # A, U, D, V
        (["classify", "--sphere", "4", "--rank", "3", "--euler", "1", "--format", "structured"], 1),
        (["classify", "--sphere", "4", "--rank", "3", "--euler", "1"], 1),
    ])
    def test_builds_only_the_format_it_prints(self, capsys, monkeypatch, argv, calls):
        rendered = []
        to_text = IntMatrix.to_text
        monkeypatch.setattr(IntMatrix, "to_text", lambda self: rendered.append(self) or to_text(self))
        assert run_cli(capsys, *argv)[0] == 0
        assert len(rendered) == calls


class _FailingStdout:
    """A stdout whose ``write`` or ``flush`` raises ``error``; it keeps every text it is asked to write."""

    def __init__(self, method, error):
        self.method, self.error, self.writes = method, error, []

    def write(self, text):
        self.writes.append(text)
        if self.method == "write":
            raise self.error
        return len(text)

    def flush(self):
        if self.method == "flush":
            raise self.error


KGROUPS_ARGV = ["kgroups", "--sphere", "4", "--rank", "3", "--euler", "1"]
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the console script pyproject.toml declares, run as its generated wrapper runs it
_MODULE, _FUNC = re.search(r'^spherecp = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M).groups()
LAUNCHERS = {
    "python-m": ["-m", "spherecp.cli"],
    "console-script": ["-c", f"import sys; from {_MODULE} import {_FUNC}; sys.exit({_FUNC}())"],
}


def _run_process(launcher, stdout):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)  # the default, buffered stdout keeps what a failed write left
    return subprocess.run([sys.executable, *LAUNCHERS[launcher], *KGROUPS_ARGV], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, text=True, timeout=60)


class TestFailedWrite:
    """A result that cannot be written is exit 2 with one ``internal error:`` line, never a traceback."""

    @pytest.mark.parametrize("method, error", [
        ("write", BrokenPipeError(errno.EPIPE, "Broken pipe")),
        ("flush", BrokenPipeError(errno.EPIPE, "Broken pipe")),
        ("write", OSError(errno.ENOSPC, "No space left on device")),
    ], ids=["write-EPIPE", "flush-EPIPE", "write-ENOSPC"])
    def test_in_process(self, capsys, monkeypatch, method, error):
        stdout = _FailingStdout(method, error)
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(KGROUPS_ARGV)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"internal error: {type(error).__name__}: {error}\n"
        assert captured.out == ""
        assert stdout.writes == [KGROUPS_PINNED[0][1]]  # the result, tried once; nothing else

    def _assert_one_internal_error(self, done):
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal error: "), done.stderr
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr

    @pytest.mark.parametrize("launcher", LAUNCHERS)
    def test_pipe_closed_before_the_write(self, launcher):
        read, write = os.pipe()
        os.close(read)
        try:
            done = _run_process(launcher, write)
        finally:
            os.close(write)
        self._assert_one_internal_error(done)
        assert "BrokenPipeError" in done.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("launcher", LAUNCHERS)
    def test_full_disk(self, launcher):
        with open("/dev/full", "w") as full:
            done = _run_process(launcher, full)
        self._assert_one_internal_error(done)
        assert f"[Errno {errno.ENOSPC}]" in done.stderr


# -- the front door: argv from a grammar of all five subcommands ----------------
#
# Each part of an argv is either well formed or drawn from hostile text:
# numbers of 4300 digits and one past, negative, float-like and in other
# scripts' digits; ragged and bracketed matrices, within 6 x 6 so that no
# example nears the snf budgets; expressions of every atom; and spec files
# nested deep, with repeated keys, non-int fields or bad encodings.
# "SPEC" and "SPEC2" in an argv stand for spec files whose bytes come with
# it.  No token starts with -h, so argparse never prints help and exits.

_DIGITS = "٠١٢٣٤٥٦٧٨٩０１２３４５６７８９"
_numbers = st.one_of(
    st.integers(-12, 12).map(str),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["9" * 4300, "-" + "9" * 4300, "9" * 4301, "1" + "0" * 4299, "", " 4 ", "+3", "1_0", "0x10"]),
    st.floats().map(str),
    st.text(_DIGITS, min_size=1, max_size=3),
)
_json_values = st.sampled_from(
    ["4", "3", "2", "1", "0", "-1", "1.5", "1e3", "true", "null", '"3"', "[4]", "{}", "NaN", "9" * 4300, "9" * 4301])


@st.composite
def _spec_bytes(draw):
    kind = draw(st.sampled_from(["valid", "fields", "nested", "encoding"]))
    if kind == "valid":
        n, d, c = draw(st.integers(1, 8)), draw(st.integers(2, 6)), draw(st.integers(0, 6))
        return f'{{"sphere_dim": {n}, "rank": {d}, "euler": {c}}}'.encode()
    if kind == "nested":
        depth = draw(st.sampled_from([1, 2, 1000, 100_000]))
        return ("[" * depth + "]" * depth).encode()
    if kind == "encoding":
        return draw(st.sampled_from([b"\xff\xfe{", '{"sphere_dim": 4}'.encode("utf-16"), '{"é": 4}'.encode("latin-1"), b""]))
    keys = st.sampled_from(["sphere_dim", "rank", "euler", "extra"])
    fields = draw(st.lists(st.tuples(keys, _json_values), max_size=5))  # keys may repeat
    return ("{" + ", ".join(f'"{k}": {v}' for k, v in fields) + "}").encode()


@st.composite
def _spec_flags(draw, suffix=""):
    kind = draw(st.sampled_from(["numbers", "file", "any"]))
    if kind == "numbers":
        values = [draw(st.integers(1, 8)), draw(st.integers(2, 6)), draw(st.integers(0, 6))]
        return [token for name, v in zip(("sphere", "rank", "euler"), values) for token in (f"--{name}{suffix}", str(v))]
    if kind == "file":
        return [f"--spec{suffix}", f"SPEC{suffix}"]
    flags = []
    for name in draw(st.lists(st.sampled_from(["sphere", "rank", "euler", "spec"]), unique=True, max_size=4)):
        flags += [f"--{name}{suffix}", f"SPEC{suffix}" if name == "spec" else draw(_numbers)]
    return flags


@st.composite
def _matrix_texts(draw):
    entry = st.integers(-50, 50).map(str) if draw(st.booleans()) else _numbers
    rows = draw(st.lists(st.lists(entry, min_size=1, max_size=6), min_size=1, max_size=6))  # may be ragged
    if draw(st.booleans()):
        return "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"
    return draw(st.sampled_from([";", "; ", "],["])).join(",".join(row) for row in rows)


_atoms = st.one_of(
    st.integers(1, 2).map(lambda i: f"s{i}"),
    st.integers(1, 2).map(lambda i: f"s{i}*"),
    st.integers(0, 5).map(lambda i: f"s{i}"),
    st.integers(0, 5).map(lambda i: f"s{i}*"),
    st.sampled_from(["+", "-", "2/3", "1/0", "7", "s" + "9" * 4300, "s" + "9" * 4301, "s٣", "9" * 4301, "*", "x", "(", "é"]),
    _numbers.filter(lambda t: not t.startswith("-")),
)
_hostile_expressions = st.lists(_atoms, max_size=8).map(" ".join)
_terms = st.tuples(st.sampled_from(["", "2", "3/2", "10"]),
                   st.lists(st.sampled_from(["s1", "s2", "s1*", "s2*"]), max_size=4))
_expressions = st.lists(_terms, min_size=1, max_size=4).map(
    lambda terms: " + ".join(" ".join([c, *word]).strip() or "1" for c, word in terms))


@st.composite
def front_door_cases(draw):
    hostile = draw(st.booleans())

    def value(valid, hostile_values=_numbers):
        return draw(st.one_of(valid, hostile_values) if hostile else valid)

    command = draw(st.sampled_from(["kgroups", "classify", "table", "snf", "cuntz"]))
    argv = [command]
    if command in ("kgroups", "classify"):
        argv += draw(_spec_flags())
        if command == "classify" and draw(st.booleans()):
            argv += draw(st.one_of(st.integers(0, 6).map(lambda c: ["--euler2", str(c)]), _spec_flags("2")))
    elif command == "table":
        for name in draw(st.lists(st.sampled_from(["--sphere", "--d-max", "--c-max"]), unique=True)):
            argv += [name, value(st.integers(0, 40).map(str))]
    elif command == "snf":
        argv.append(draw(_matrix_texts()))
    else:
        argv += ["--d", value(st.integers(2, 5).map(str)), value(_expressions, _hostile_expressions)]
        if draw(st.booleans()):
            argv += ["--equal", value(_expressions, _hostile_expressions)]
    argv += draw(st.sampled_from([[], ["--format", "human"], ["--format", "structured"], ["--format", "xml"]]))
    return argv, {name: draw(_spec_bytes()) for name in ("SPEC", "SPEC2") if name in argv}


class TestFrontDoor:
    @given(front_door_cases())
    @example((["table", "--c-max", "9" * 4300], {}))
    @example((["table", "--d-max", "9" * 4300, "--format", "structured"], {}))
    @example((["kgroups", "--spec", "SPEC"], {"SPEC": b'{"sphere_dim": 4, "rank": 3}'.ljust(SPEC_TEXT_BUDGET + 1)}))
    @settings(max_examples=300, deadline=5000, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_exit_is_zero_or_one(self, tmp_path, case):
        argv, files = case
        assert not any(token.startswith("-h") or token.startswith("--h") for token in argv)
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        argv = [str(tmp_path / token) if token in files else token for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1), err
        if code == 1:
            assert out == "" and err.startswith("error: ")
            return
        assert err == ""
        if "structured" in argv:
            try:
                again = json.dumps(json.loads(out), indent=2, sort_keys=True, ensure_ascii=False) + "\n"
            except ValueError:  # an integer past the int -> str limit, which json cannot read back
                return
            assert again == out
