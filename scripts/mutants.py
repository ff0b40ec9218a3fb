#!/usr/bin/env python3
"""Mutation testing of the spherecp package: do its tests catch small defects?

Each module's mutation sites come from a fixed set of operators, read off
its syntax tree:

* a comparison swapped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in``;
* an arithmetic operator swapped: ``+`` and ``-``, ``//`` and ``*``, also
  in augmented assignments (``+=`` and ``-=``, ``//=`` and ``*=``);
* 1 added to an int constant;
* a ``not`` dropped;
* a unary minus dropped, as in ``-spec.euler_param``;
* two neighbouring positional arguments of a call swapped, as in
  ``_class_rows(n, z, z1)``, unless their texts are equal.

A seeded sample of the sites is run, one mutant at a time.  A mutant
replaces one segment of the module's source, so the rest of the file
stays byte-identical.  It runs in a copy of ``src/``, ``tests/``,
``conftest.py`` and ``pyproject.toml`` in a temporary directory, never in
the checkout: ``pytest -x`` on the module's test file
``tests/test_<module>.py``, ``tests/test_acceptance.py`` and the module's
doctests.  ``conftest.py`` fails each test or doctest that runs past
``TEST_SECONDS``, and the whole run has a wall-clock limit of ``TIMEOUT``
seconds, past which the mutant's process group is killed.  A mutant is
killed when those tests fail, survives when they pass, and is timed out
when the run passes ``TIMEOUT``.  Before its mutants, each module's tests
run once unmutated and must pass.

Run:  python3 scripts/mutants.py [MODULE[:FUNCTION] ...] [--seed N] [--per-module N]

MODULE is a module name such as ``fgab`` (default: every module but
``__init__``); ``fgab:_factors`` takes only the sites inside the
definitions named ``_factors``.  ``--per-module 0`` runs every site.
Prints, per module, its site count and the killed, survived and
timed-out counts, then each survivor and timed-out mutant with its
source line.  Exits 1 when an unmutated run fails or a FUNCTION is not
found.
"""

import argparse
import ast
import bisect
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spherecp"

#: One mutation: bytes ``start:end`` of the source, which read ``old``,
#: become ``new``; ``line`` is the 1-based line where the segment starts.
Site = namedtuple("Site", "line start end old new")

_COMPARE = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
    ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
}
_ARITH = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.FloorDiv: ("//", "*"), ast.Mult: ("*", "//")}
_COMMENT = re.compile(rb"#[^\n]*")
_ROW = "{:<18} {:>5} {:>4} {:>6} {:>8} {:>9}"
TIMEOUT = 180  # seconds per pytest run


def _offsets(source: bytes) -> list[int]:
    """The byte offset at which each line starts (``ast`` columns are UTF-8 bytes)."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _operator(source: bytes, lines: list[int], left: ast.AST, right: ast.AST, text: str) -> tuple[int, int]:
    """The (start, end) bytes of operator ``text`` between the nodes ``left`` and ``right``.

    Only parentheses, whitespace, line continuations and comments can
    stand there beside the operator; comments are blanked before the search.
    """
    lo = lines[left.end_lineno - 1] + left.end_col_offset
    hi = lines[right.lineno - 1] + right.col_offset
    gap = _COMMENT.sub(lambda m: b" " * len(m.group()), source[lo:hi])
    word = re.escape(text.encode()).replace(rb"\ ", rb"\s+")
    (match,) = re.finditer(rb"\b" + word + rb"\b" if text[0].isalpha() else word + rb"(?![=*/])", gap)
    return lo + match.start(), lo + match.end()


def mutation_sites(source: bytes) -> list[Site]:
    """Every mutation site of ``source``, in source order.

    Docstrings hold no int, comparison or operator, so every site is
    code.  Expressions inside f-strings are skipped: before Python 3.12
    their nodes' positions need not point into the source.
    """
    tree = ast.parse(source)
    lines = _offsets(source)
    in_fstring = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr) for sub in ast.walk(node)}
    sites = []

    def add(start, end, new):
        sites.append(Site(bisect.bisect_right(lines, start), start, end, source[start:end].decode(), new))

    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                old, new = _COMPARE[type(op)]
                add(*_operator(source, lines, left, right, old), new)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _ARITH:
            old, new = _ARITH[type(node.op)]
            left, right = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            if isinstance(node, ast.AugAssign):
                old, new = old + "=", new + "="
            add(*_operator(source, lines, left, right, old), new)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            start = lines[node.lineno - 1] + node.col_offset
            add(start, lines[node.end_lineno - 1] + node.end_col_offset, str(node.value + 1))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            start = lines[node.lineno - 1] + node.col_offset
            end = lines[node.operand.lineno - 1] + node.operand.col_offset
            # drop "not" and the blanks after it, keeping any parenthesis that opens the operand
            add(start, start + len(re.match(rb"not\s*", source[start:end]).group()), "")
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            start = lines[node.lineno - 1] + node.col_offset
            end = lines[node.operand.lineno - 1] + node.operand.col_offset
            add(start, start + len(re.match(rb"-\s*", source[start:end]).group()), "")
        elif isinstance(node, ast.Call):
            spans = [(lines[arg.lineno - 1] + arg.col_offset, lines[arg.end_lineno - 1] + arg.end_col_offset)
                     for arg in node.args]
            for (a, a_end), (b, b_end) in zip(spans, spans[1:]):
                if source[a:a_end] != source[b:b_end]:
                    add(a, b_end, (source[b:b_end] + source[a_end:b] + source[a:a_end]).decode())
    return sorted(sites, key=lambda site: (site.start, site.end))


def function_span(source: bytes, name: str) -> list[tuple[int, int]]:
    """The (start, end) bytes of each definition named ``name`` in ``source``."""
    lines = _offsets(source)
    return [(lines[node.lineno - 1], lines[node.end_lineno - 1] + node.end_col_offset)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name]


def mutate(source: bytes, site: Site) -> bytes:
    """``source`` with the one segment of ``site`` replaced."""
    return source[:site.start] + site.new.encode() + source[site.end:]


def _run(tree: Path, paths: list[str], seed: int) -> str:
    """'killed', 'survived' or 'timed out': the outcome of pytest on ``paths`` in ``tree``."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no example carries over between mutants
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               f"--hypothesis-seed={seed}", *paths]
    with subprocess.Popen(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as proc:
        try:
            code = proc.wait(TIMEOUT)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.returncode is None:  # timed out, or this script was interrupted
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if code is None:
        return "timed out"
    # 1: a test failed; 2: a collection error or the run was interrupted; 3: an internal
    # error, as when the mutant makes importing a module exit the process
    if code not in (0, 1, 2, 3):
        raise RuntimeError(f"pytest exited {code} on {' '.join(paths)}")
    return "survived" if code == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    parser.add_argument("modules", nargs="*", metavar="MODULE[:FUNCTION]",
                        help=f"modules to mutate, of {', '.join(modules)} (default: all); "
                             "with :FUNCTION, only the sites inside that function")
    parser.add_argument("--seed", type=int, default=0, help="seed of the sample and of hypothesis (default: 0)")
    parser.add_argument("--per-module", type=int, default=10, metavar="N",
                        help="mutants per module (default: 10); 0 runs every site")
    args = parser.parse_args(argv)
    targets = [arg.partition(":")[::2] for arg in args.modules] or [(name, "") for name in modules]
    unknown = sorted({name for name, _ in targets} - set(modules))
    if unknown:
        parser.error(f"no such module: {', '.join(unknown)}")
    rows, notes = [], []
    with tempfile.TemporaryDirectory(prefix="spherecp-mutants-") as temp:
        tree = Path(temp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", tree / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        shutil.copy2(ROOT / "conftest.py", tree)
        for name, function in targets:
            target = tree / "src" / "spherecp" / f"{name}.py"
            source = target.read_bytes()
            paths = [p for p in (f"tests/test_{name}.py", "tests/test_acceptance.py") if (tree / p).exists()]
            paths.append(f"src/spherecp/{name}.py")
            sites = mutation_sites(source)
            if function:
                spans = function_span(source, function)
                if not spans:
                    print(f"{name}: no function named {function}", file=sys.stderr)
                    return 1
                sites = [site for site in sites if any(lo <= site.start < hi for lo, hi in spans)]
            if _run(tree, paths, args.seed) != "survived":
                print(f"{name}: the unmutated tests do not pass within {TIMEOUT} s", file=sys.stderr)
                return 1
            size = len(sites) if args.per_module == 0 else min(args.per_module, len(sites))
            sample = sorted(random.Random(f"{args.seed}:{name}").sample(sites, size))
            counts = {"killed": 0, "survived": 0, "timed out": 0}
            for site in sample:
                target.write_bytes(mutate(source, site))
                try:
                    outcome = _run(tree, paths, args.seed)
                finally:
                    target.write_bytes(source)
                counts[outcome] += 1
                if outcome != "killed":
                    text = source.splitlines()[site.line - 1].decode().strip()
                    notes.append(f"{outcome:<9}  {name}.py:{site.line}  {site.old!r} -> {site.new!r}  |  {text}")
                print(f"{name}.py:{site.line} {site.old!r} -> {site.new!r}: {outcome}", file=sys.stderr, flush=True)
            label = f"{name}.py" + (f":{function}" if function else "")
            rows.append(_ROW.format(label, len(sites), len(sample), *counts.values()))
    print(_ROW.format("module", "sites", "run", "killed", "survived", "timed out"))
    print(*rows, *notes, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
