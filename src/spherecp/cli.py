"""Command-line front end.

Subcommands::

    kgroups    K-groups of one bundle algebra
    classify   report for one spec, or pairwise verdicts for two
    table      survey over a (rank, euler) grid
    snf        Smith normal form of an integer matrix
    cuntz      Leavitt normal form / equality in the isometry word calculus

Every subcommand takes ``--format human`` (default) or ``--format
structured``; structured output is a single JSON object rendered with
sorted keys, so re-rendering a parsed report is byte-identical.

Exit codes: 0 success, 1 invalid input or a domain refusal, 2 internal
error (never expected).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from math import gcd

from .bundles import SphereBundleSpec, k_class, load_spec, spec_to_dict
from .classify import (
    classify_report,
    delta1_equal,
    graded_stably_isomorphic,
    k_distinguishable,
    report_to_dict,
)
from .cuntz_words import parse_expression
from .fgab import parse_matrix, smith_normal_form
from .pimsner import k_groups, pimsner_matrix

__all__ = ["main", "build_parser"]

#: The most rows ``table`` builds; a larger (rank, euler) grid is refused.
TABLE_ROWS_BUDGET = 10_000


class CliError(Exception):
    """User-facing input problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise CliError(message)


def _add_spec_args(p: argparse.ArgumentParser, suffix: str = "") -> None:
    tag = " (second bundle)" if suffix else ""
    p.add_argument(f"--sphere{suffix}", type=int, metavar="N", help=f"sphere dimension{tag}")
    p.add_argument(f"--rank{suffix}", type=int, metavar="D", help=f"fiber rank{tag}")
    p.add_argument(f"--euler{suffix}", type=int, metavar="C", help=f"euler parameter{tag}, default 0")
    p.add_argument(f"--spec{suffix}", metavar="FILE", help=f"JSON bundle spec file{tag}")


def _spec_from_args(args, suffix: str = "", fallback: SphereBundleSpec | None = None) -> SphereBundleSpec:
    """Build a bundle spec from --spec FILE or from the numeric flags.

    With a ``fallback`` (the first bundle of a pair), missing numeric
    fields inherit from it, so ``--euler2 0`` alone compares against the
    same sphere and rank.
    """
    path = getattr(args, f"spec{suffix}")
    sphere = getattr(args, f"sphere{suffix}")
    rank = getattr(args, f"rank{suffix}")
    euler = getattr(args, f"euler{suffix}")
    if path is not None:
        if sphere is not None or rank is not None or euler is not None:
            raise CliError(f"--spec{suffix} cannot be combined with numeric bundle flags")
        return load_spec(path)
    if sphere is None and fallback is not None:
        sphere = fallback.sphere_dim
    if rank is None and fallback is not None:
        rank = fallback.rank
    if sphere is None or rank is None:
        which = f"--sphere{suffix} and --rank{suffix}" if suffix else "--sphere and --rank"
        raise CliError(f"need {which} (or --spec{suffix} FILE)")
    if euler is None:
        euler = 0 if fallback is None else fallback.euler_param
    return SphereBundleSpec(sphere, rank, euler)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spherecp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = dict(choices=("human", "structured"), default="human")

    p_kg = sub.add_parser("kgroups", help="K-groups of one bundle algebra")
    _add_spec_args(p_kg)
    p_kg.add_argument("--format", **common)

    p_cl = sub.add_parser("classify", help="classification report or pairwise verdicts")
    _add_spec_args(p_cl)
    _add_spec_args(p_cl, suffix="2")
    p_cl.add_argument("--format", **common)

    p_tb = sub.add_parser("table", help="survey table over a (rank, euler) grid")
    p_tb.add_argument("--sphere", type=int, default=4, metavar="N", help="even sphere dimension (default 4)")
    p_tb.add_argument("--d-max", type=int, default=6, metavar="D", help="largest rank (>= 2, default 6)")
    p_tb.add_argument("--c-max", type=int, default=6, metavar="C", help="largest euler parameter (>= 0, default 6)")
    p_tb.add_argument("--format", **common)

    p_snf = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p_snf.add_argument("matrix", help="matrix text, e.g. '-2,0;-1,-2'")
    p_snf.add_argument("--format", **common)

    p_cz = sub.add_parser("cuntz", help="Leavitt normal form or equality of word expressions")
    p_cz.add_argument("--d", type=int, required=True, metavar="D", help="number of isometries (>= 2)")
    p_cz.add_argument("expression", help="expression, e.g. 's1 s2* + 2 s1 s1 s2* s1*'")
    p_cz.add_argument("--equal", metavar="EXPR", help="second expression; print whether the two are equal")
    p_cz.add_argument("--format", **common)

    # Matrix text and word expressions may begin with a minus sign
    # ("-2,0;-1,-2", "-s1"); widen the pattern argparse uses to decide
    # that a dash-digit (or, for cuntz, dash-s) token is a value.
    p_snf._negative_number_matcher = re.compile(r"^-\d")
    p_cz._negative_number_matcher = re.compile(r"^-[\ds]")

    return parser


# -- subcommand bodies -------------------------------------------------------


def _cmd_kgroups(args) -> tuple[list[str], dict]:
    spec = _spec_from_args(args)
    pair = k_groups(spec)
    parity = "even" if spec.sphere_dim % 2 == 0 else "odd"
    note = (
        f"{parity} sphere S^{spec.sphere_dim}: K0 = coker, K1 = ker of the "
        f"presentation matrix [{pimsner_matrix(spec).to_text()}] (identity minus tensor endomorphism)"
    )
    human = [
        f"spec: sphere_dim={spec.sphere_dim} rank={spec.rank} euler={spec.euler_param}",
        f"k_class: {k_class(spec)}",
        f"K0 = {pair.k0}",
        f"K1 = {pair.k1}",
        f"note: {note}",
    ]
    structured = {"K0": str(pair.k0), "K1": str(pair.k1), "note": note}
    return human, structured


def _cmd_classify_single(spec: SphereBundleSpec) -> tuple[list[str], dict]:
    rep = classify_report(spec)
    human = [
        f"spec: sphere_dim={spec.sphere_dim} rank={spec.rank} euler={spec.euler_param}",
        f"k_class: {rep.k_class}",
        f"K0 = {rep.k_groups.k0}",
        f"K1 = {rep.k_groups.k1}",
        f"delta1 matrix: {rep.delta1}",
        f"trivial comparison: K0 = {rep.trivial_comparison.k0}",
        f"distinguishable from trivial by K-theory: {'yes' if rep.k_distinguishable_from_trivial else 'no'}",
    ]
    human += [f"caveat: {c}" for c in rep.caveats]
    return human, report_to_dict(rep)


def _cmd_classify_pair(a: SphereBundleSpec, b: SphereBundleSpec) -> tuple[list[str], dict]:
    verdicts = {
        "delta1_equal": delta1_equal(a, b),
        "graded_stably_isomorphic": graded_stably_isomorphic(a, b),
        "k_distinguishable": k_distinguishable(a, b),
    }
    human = [
        f"bundle A: sphere_dim={a.sphere_dim} rank={a.rank} euler={a.euler_param}",
        f"bundle B: sphere_dim={b.sphere_dim} rank={b.rank} euler={b.euler_param}",
        f"delta1 invariants equal: {'yes' if verdicts['delta1_equal'] else 'no'}",
        f"graded stably isomorphic: {'yes' if verdicts['graded_stably_isomorphic'] else 'no'}",
        f"K-theory distinguishes them: {'yes' if verdicts['k_distinguishable'] else 'no'}",
    ]
    structured = {
        "specA": spec_to_dict(a),
        "specB": spec_to_dict(b),
        **verdicts,
    }
    if not verdicts["k_distinguishable"]:
        note = "equal K-groups are inconclusive; the verdict comes from the delta1 invariant"
        human.append(f"note: {note}")
        structured["note"] = note
    return human, structured


def _cmd_classify(args) -> tuple[list[str], dict]:
    spec_a = _spec_from_args(args)
    second_given = any(
        getattr(args, name) is not None for name in ("sphere2", "rank2", "euler2", "spec2")
    )
    if not second_given:
        return _cmd_classify_single(spec_a)
    spec_b = _spec_from_args(args, suffix="2", fallback=spec_a)
    return _cmd_classify_pair(spec_a, spec_b)


def _table_row(spec: SphereBundleSpec) -> dict:
    rep = classify_report(spec)
    return {
        "rank": spec.rank,
        "euler": spec.euler_param,
        "k_class": str(rep.k_class),
        "K0": str(rep.k_groups.k0),
        "gcd": gcd(spec.rank - 1, spec.euler_param),
        "distinguishable_from_trivial": rep.k_distinguishable_from_trivial,
    }


def _cmd_table(args) -> tuple[list[str], dict]:
    if args.sphere < 1 or args.sphere % 2:
        raise CliError("--sphere must be a positive even dimension")
    if args.d_max < 2:
        raise CliError("--d-max must be at least 2")
    if args.c_max < 0:
        raise CliError("--c-max must be nonnegative")
    size = (args.d_max - 1) * (args.c_max + 1)
    if size > TABLE_ROWS_BUDGET:
        raise CliError(f"the grid has {size} rows, over TABLE_ROWS_BUDGET ({TABLE_ROWS_BUDGET} rows)")
    rows = [
        _table_row(SphereBundleSpec(args.sphere, d, c))
        for d in range(2, args.d_max + 1)
        for c in range(0, args.c_max + 1)
    ]
    header = f"{'d':>3} {'c':>4} {'k_class':<12} {'K0':<18} {'gcd':>4}  distinguishable"
    human = [f"survey over S^{args.sphere}", header, "-" * len(header)]
    for r in rows:
        human.append(
            f"{r['rank']:>3} {r['euler']:>4} {r['k_class']:<12} {r['K0']:<18} "
            f"{r['gcd']:>4}  {'yes' if r['distinguishable_from_trivial'] else 'no'}"
        )
    structured = {"sphere_dim": args.sphere, "rows": rows}
    return human, structured


def _cmd_snf(args) -> tuple[list[str], dict]:
    a = parse_matrix(args.matrix)
    snf = smith_normal_form(a)
    u, d, v = snf.U.to_text(), snf.D.to_text(), snf.V.to_text()
    human = [
        f"A = {a.to_text()}",
        f"U = {u}",
        f"D = {d}",
        f"V = {v}",
        f"diagonal: {', '.join(str(x) for x in snf.diagonal)}",
    ]
    return human, {"U": u, "D": d, "V": v}


def _cmd_cuntz(args) -> tuple[list[str], dict]:
    if args.d < 2:
        raise CliError("--d must be at least 2")
    x = parse_expression(args.d, args.expression)
    if args.equal is None:
        nf = x.normal_form()
        canonical = str(nf)
        return [canonical], {"canonical": canonical, "degree": nf.degree()}
    y = parse_expression(args.d, args.equal)
    verdict = x.equals(y)
    return [f"equal: {'yes' if verdict else 'no'}"], {"equal": verdict}


_COMMANDS = {
    "kgroups": _cmd_kgroups,
    "classify": _cmd_classify,
    "table": _cmd_table,
    "snf": _cmd_snf,
    "cuntz": _cmd_cuntz,
}


def render_structured(obj: dict) -> str:
    """Canonical JSON rendering: parse + re-render is byte-identical."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        human, structured = _COMMANDS[args.subcommand](args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - invariant violations only
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.format == "structured":
        print(render_structured(structured))
    else:
        print("\n".join(human))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
