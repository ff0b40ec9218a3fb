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

Exit codes: 0 success, 1 invalid input or a domain refusal (a
:class:`~spherecp.fgab.SpherecpInputError`), 2 anything else, an
internal error (never expected).  A failed write of the result, to a
closed pipe or a full disk, is exit 2 too, with one ``internal error:``
line on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from math import gcd

from .bundles import SphereBundleSpec, load_spec, spec_to_dict
from .classify import (
    classify_report,
    delta1_equal,
    graded_stably_isomorphic,
    k_distinguishable,
    report_to_dict,
)
from .cuntz_words import parse_expression
from .fgab import SpherecpInputError, _int_text, parse_matrix, smith_normal_form
from .ktheory import k_class
from .pimsner import k_groups, pimsner_matrix

__all__ = ["main", "build_parser"]

#: The most rows ``table`` builds; a larger (rank, euler) grid is refused.
TABLE_ROWS_BUDGET = 10_000

#: The most entries of a matrix ``snf`` takes; a larger one is refused
#: before any elimination (an 80 x 80 with entries in ±50 takes about 0.6 s).
SNF_ENTRIES_BUDGET = 10_000

#: The most bits, summed over the entries' bit lengths, of a matrix ``snf``
#: takes; a larger one is refused before any elimination (at this size a
#: 100 x 100 with 10-bit entries takes about 1.2 s, at four times it about 9 s).
SNF_BITS_BUDGET = 100_000


class CliError(SpherecpInputError):
    """User-facing input problem found by the command line itself."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise CliError(message)


def _add_spec_args(p: argparse.ArgumentParser, suffix: str = "") -> None:
    tag = " (second bundle)" if suffix else ""
    p.add_argument(f"--sphere{suffix}", type=int, metavar="N", help=f"sphere dimension{tag}")
    p.add_argument(f"--rank{suffix}", type=int, metavar="D", help=f"fiber rank{tag}")
    p.add_argument(f"--euler{suffix}", type=int, metavar="C", help=f"euler parameter{tag}, default 0")
    p.add_argument(f"--spec{suffix}", metavar="FILE", help=f"JSON bundle spec file{tag}")


def _spec_from_args(args, suffix: str = "") -> SphereBundleSpec:
    """Build a bundle spec from --spec FILE or from the numeric flags."""
    path = getattr(args, f"spec{suffix}")
    sphere = getattr(args, f"sphere{suffix}")
    rank = getattr(args, f"rank{suffix}")
    euler = getattr(args, f"euler{suffix}")
    if path is not None:
        if sphere is not None or rank is not None or euler is not None:
            raise CliError(f"--spec{suffix} cannot be combined with numeric bundle flags")
        return load_spec(path)
    if sphere is None or rank is None:
        raise CliError(f"need --sphere{suffix} and --rank{suffix} (or --spec{suffix} FILE)")
    return SphereBundleSpec(sphere, rank, 0 if euler is None else euler)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spherecp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_kg = sub.add_parser("kgroups", help="K-groups of one bundle algebra")
    _add_spec_args(p_kg)

    p_cl = sub.add_parser("classify", help="classification report or pairwise verdicts")
    _add_spec_args(p_cl)
    _add_spec_args(p_cl, suffix="2")

    p_tb = sub.add_parser("table", help="survey table over a (rank, euler) grid")
    p_tb.add_argument("--sphere", type=int, default=4, metavar="N", help="even sphere dimension (default 4)")
    p_tb.add_argument("--d-max", type=int, default=6, metavar="D", help="largest rank (>= 2, default 6)")
    p_tb.add_argument("--c-max", type=int, default=6, metavar="C", help="largest euler parameter (>= 0, default 6)")

    p_snf = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p_snf.add_argument("matrix", help="matrix text, e.g. '-2,0;-1,-2'")

    p_cz = sub.add_parser("cuntz", help="Leavitt normal form or equality of word expressions")
    p_cz.add_argument("--d", type=int, required=True, metavar="D", help="number of isometries (>= 2)")
    p_cz.add_argument("expression", help="expression, e.g. 's1 s2* + 2 s1 s1 s2* s1*'")
    p_cz.add_argument("--equal", metavar="EXPR", help="second expression; print whether the two are equal")

    for p in sub.choices.values():  # last, so --help lists it after each subcommand's own options
        p.add_argument("--format", choices=("human", "structured"), default="human")

    # Matrix text and word expressions may begin with a minus sign
    # ("-2,0;-1,-2", "-s1"); widen the pattern argparse uses to decide
    # that a dash-digit (or, for cuntz, dash-s) token is a value.
    p_snf._negative_number_matcher = re.compile(r"^-\d")
    p_cz._negative_number_matcher = re.compile(r"^-[\ds]")

    return parser


# -- subcommand bodies -------------------------------------------------------
#
# Each body builds only the format asked for: with ``--format structured``
# the JSON object, otherwise the human lines.


def _structured(args) -> bool:
    return args.format == "structured"


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _spec_text(spec: SphereBundleSpec) -> str:
    """``sphere_dim=N rank=D euler=C``: the fields of :func:`spec_to_dict`, each written by ``_int_text``."""
    return " ".join(f"{key}={_int_text(value)}" for key, value in spec_to_dict(spec).items())


def _head(spec: SphereBundleSpec, kclass, groups) -> list[str]:
    """The report lines ``kgroups`` and ``classify`` share: the spec, its K-class and its K-groups."""
    return [f"spec: {_spec_text(spec)}", f"k_class: {kclass}", f"K0 = {groups.k0}", f"K1 = {groups.k1}"]


def _cmd_kgroups(args) -> list[str] | dict:
    spec = _spec_from_args(args)
    pair = k_groups(spec)
    parity = "even" if spec.sphere_dim % 2 == 0 else "odd"
    note = (
        f"{parity} sphere S^{_int_text(spec.sphere_dim)}: K0 = coker, K1 = ker of the "
        f"presentation matrix [{pimsner_matrix(spec).to_text()}] (identity minus tensor endomorphism)"
    )
    if _structured(args):
        return {"K0": str(pair.k0), "K1": str(pair.k1), "note": note}
    return _head(spec, k_class(spec), pair) + [f"note: {note}"]


def _cmd_classify(args) -> list[str] | dict:
    """One spec: its classification report.  Two (any ``...2`` flag given): the pairwise verdicts.

    Bundle B is ``--spec2 FILE``, or A with the fields that ``--sphere2/--rank2/--euler2``
    give replaced, through the checked constructor.
    """
    a = _spec_from_args(args)
    flags = zip(SphereBundleSpec._fields, (args.sphere2, args.rank2, args.euler2))
    given = {field: value for field, value in flags if value is not None}
    if not given and args.spec2 is None:
        rep = classify_report(a)
        if _structured(args):
            return report_to_dict(rep)
        return _head(a, rep.k_class, rep.k_groups) + [
            f"delta1 matrix: {rep.delta1.to_text()} base={_int_text(a.rank)}",
            f"trivial comparison: K0 = {rep.trivial_comparison.k0}",
            f"distinguishable from trivial by K-theory: {_yes(rep.k_distinguishable_from_trivial)}",
        ] + [f"caveat: {c}" for c in rep.caveats]
    b = a._replace(**given) if args.spec2 is None else _spec_from_args(args, suffix="2")
    verdicts = {
        "delta1_equal": delta1_equal(a, b),
        "graded_stably_isomorphic": graded_stably_isomorphic(a, b),
        "k_distinguishable": k_distinguishable(a, b),
    }
    note = None if verdicts["k_distinguishable"] else (
        "equal K-groups are inconclusive; the verdict comes from the delta1 invariant")
    if _structured(args):
        obj = {"specA": spec_to_dict(a), "specB": spec_to_dict(b), **verdicts}
        return obj if note is None else {**obj, "note": note}
    labels = ("delta1 invariants equal", "graded stably isomorphic", "K-theory distinguishes them")
    human = [f"bundle A: {_spec_text(a)}", f"bundle B: {_spec_text(b)}"]
    human += [f"{label}: {_yes(v)}" for label, v in zip(labels, verdicts.values())]
    return human if note is None else human + [f"note: {note}"]


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


def _cmd_table(args) -> list[str] | dict:
    if args.sphere < 1 or args.sphere % 2:
        raise CliError("--sphere must be a positive even dimension")
    if args.d_max < 2:
        raise CliError("--d-max must be at least 2")
    if args.c_max < 0:
        raise CliError("--c-max must be nonnegative")
    size = (args.d_max - 1) * (args.c_max + 1)
    if size > TABLE_ROWS_BUDGET:
        raise CliError(f"the grid has {_int_text(size)} rows, over TABLE_ROWS_BUDGET ({TABLE_ROWS_BUDGET} rows)")
    rows = [
        _table_row(SphereBundleSpec(args.sphere, d, c))
        for d in range(2, args.d_max + 1)
        for c in range(0, args.c_max + 1)
    ]
    if _structured(args):
        return {"sphere_dim": args.sphere, "rows": rows}
    header = f"{'d':>3} {'c':>4} {'k_class':<12} {'K0':<18} {'gcd':>4}  distinguishable"
    human = [f"survey over S^{_int_text(args.sphere)}", header, "-" * len(header)]
    for r in rows:
        human.append(
            f"{_int_text(r['rank']):>3} {_int_text(r['euler']):>4} {r['k_class']:<12} {r['K0']:<18} "
            f"{_int_text(r['gcd']):>4}  {_yes(r['distinguishable_from_trivial'])}"
        )
    return human


def _cmd_snf(args) -> list[str] | dict:
    a = parse_matrix(args.matrix)
    if a.rows * a.cols > SNF_ENTRIES_BUDGET:
        raise CliError(
            f"the matrix has {a.rows * a.cols} entries, over SNF_ENTRIES_BUDGET ({SNF_ENTRIES_BUDGET} entries)")
    bits = sum(sum(map(int.bit_length, row)) for row in a.entries)
    if bits > SNF_BITS_BUDGET:
        raise CliError(f"the matrix entries have {bits} bits in all, over SNF_BITS_BUDGET ({SNF_BITS_BUDGET} bits)")
    snf = smith_normal_form(a)
    u, d, v = snf.U.to_text(), snf.D.to_text(), snf.V.to_text()
    if _structured(args):
        return {"U": u, "D": d, "V": v}
    return [f"A = {a.to_text()}", f"U = {u}", f"D = {d}", f"V = {v}",
            f"diagonal: {', '.join(map(_int_text, snf.diagonal))}"]


def _cmd_cuntz(args) -> list[str] | dict:
    x = parse_expression(args.d, args.expression)
    if args.equal is None:
        nf = x.normal_form()
        canonical = str(nf)
        return {"canonical": canonical, "degree": nf.degree()} if _structured(args) else [canonical]
    verdict = x.equals(parse_expression(args.d, args.equal))
    return {"equal": verdict} if _structured(args) else [f"equal: {_yes(verdict)}"]


_COMMANDS = {
    "kgroups": _cmd_kgroups,
    "classify": _cmd_classify,
    "table": _cmd_table,
    "snf": _cmd_snf,
    "cuntz": _cmd_cuntz,
}

_encode_str = json.encoder.encode_basestring  # json.dumps(ensure_ascii=False)'s string writer, in C


def render_structured(obj: object) -> str:
    """Canonical JSON text of ``obj``: parse + re-render is byte-identical.

    The text is ``json.dumps(obj, indent=2, sort_keys=True,
    ensure_ascii=False)`` wherever that succeeds.  A non-empty dict is ``{``, then one line per
    key in sorted order, ``"key": value``, indented two spaces deeper
    than the dict's own line, each but the last ending in ``,``, then
    ``}`` on a line at the dict's own indent; a non-empty list is the
    same with ``[``, values and ``]``.  Empty ones are ``{}`` and ``[]``.
    Strings are written by ``json.encoder.encode_basestring`` (non-ASCII
    kept, quotes, backslashes and control characters escaped), ints by
    :func:`~spherecp.fgab._int_text` (exact past the int -> str limit),
    and ``True``, ``False``, ``None`` as ``true``, ``false``, ``null``.
    Any other value, or a key that is not a string, raises ``TypeError``.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, newline: str, out: list[str]) -> None:
    """Append the text of ``obj`` to ``out``; ``newline`` starts a line at its indent."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, int):
        out.append(_int_text(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (sep, inner, _encode_str(key), ": ")
            _write(obj[key], inner, out)
            sep = ","
        out.append(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner, sep = newline + "  ", "["
        for item in obj:
            out += (sep, inner)
            _write(item, inner, out)
            sep = ","
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = _COMMANDS[args.subcommand](args)
        sys.stdout.write((render_structured(result) if _structured(args) else "\n".join(result)) + "\n")
        sys.stdout.flush()
    except SpherecpInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # invariant violations, or a write that failed (closed pipe, full disk)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


def script() -> int:
    """:func:`main` as a process runs it: the ``spherecp`` command and ``python -m spherecp.cli``."""
    code = main()
    if code == 2:  # a failed write leaves its bytes in stdout's buffer, and the flush at exit would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(script())
