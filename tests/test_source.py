"""Static checks on the library source, read with ``ast``."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spherecp"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(path: Path) -> set:
    """Every name, attribute, imported name and constant in the source."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):  # from sys import ...
            names.add(node.name)
        elif isinstance(node, ast.Constant):  # getattr(sys, "...")
            names.add(node.value)
    return names


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "fgab.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_only(path):
    # the runtime depends on nothing outside the standard library
    imported = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    assert [n for n in imported if n.split(".")[0] not in sys.stdlib_module_names] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_int_str_limit_is_never_set(path):
    # sys.set_int_max_str_digits is process-global; the library only reads it
    assert "set_int_max_str_digits" not in _names(path)


@pytest.mark.parametrize("name", ["cli.py", "bundles.py"])
def test_user_input_never_meets_the_unchecked_constructor(name):
    # user input enters here, so every value must pass a public constructor's checks
    assert "_trusted" not in _names(PACKAGE / name)


def test_matrix_text_never_meets_the_unchecked_constructor():
    # parse_matrix turns user text into a matrix, so it builds through IntMatrix's checks
    (body,) = [
        node
        for node in ast.walk(_tree(PACKAGE / "fgab.py"))
        if isinstance(node, ast.FunctionDef) and node.name == "parse_matrix"
    ]
    named = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(body)}
    assert "IntMatrix" in named and "_trusted" not in named


def _new_references(path: Path) -> list:
    """Each ``X.__new__`` in the source: X, the innermost class and function
    around it, and its use: called with ``cls`` first, called, bound to a name or read."""
    found = []

    def visit(node, cls, function, parent):
        if isinstance(node, ast.ClassDef):
            cls, function = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Attribute) and node.attr == "__new__":
            if isinstance(parent, ast.Call) and parent.func is node:
                use = "cls" if parent.args and ast.unparse(parent.args[0]) == "cls" else "called"
            elif isinstance(parent, ast.Assign):
                use = "= " + ", ".join(map(ast.unparse, parent.targets))
            else:
                use = "read"
            found.append((ast.unparse(node.value), cls, function, use))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, function, node)

    visit(_tree(path), None, None, None)
    return found


def test_one_unchecked_constructor():
    # a value class's own __new__ checks its fields and stores them with
    # tuple.__new__(cls, ...); the only routes past those checks are fgab._trusted,
    # bound once to tuple.__new__, and cuntz_words._reduced, which builds every derived element
    unchecked = [
        (path.name, owner, cls, function, use)
        for path in SOURCES
        for owner, cls, function, use in _new_references(path)
        if not (owner == "tuple" and cls is not None and function == "__new__" and use == "cls")
    ]
    assert unchecked == [
        ("cuntz_words.py", "object", None, "_reduced", "called"),
        ("fgab.py", "tuple", None, None, "= _trusted"),
    ]
    bound = [
        path.name
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == "_trusted")
        or (isinstance(node, ast.Name) and node.id == "_trusted" and not isinstance(node.ctx, ast.Load))
    ]
    assert bound == ["fgab.py"]


def test_cli_import_loads_no_typing_or_dataclasses():
    # every CLI call is a fresh process, which would pay for these imports;
    # -S keeps site-packages hooks out of the count
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import spherecp.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n")


def test_module_imports_form_no_cycle():
    # the pipeline runs one way, so no module imports one that imports it back;
    # imports under TYPE_CHECKING count, since they mark a cycle all the same
    modules = {path.stem: path for path in SOURCES if path.name != "__init__.py"}
    imports = {
        name: {node.module for node in ast.walk(_tree(path))
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in modules}
        for name, path in modules.items()
    }
    done: set = set()

    def visit(name, path):
        assert name not in path, f"import cycle: {' -> '.join(path + (name,))}"
        if name not in done:
            for imported in sorted(imports[name]):
                visit(imported, path + (name,))
            done.add(name)

    for name in sorted(modules):
        visit(name, ())


MEMOISERS = {"cache", "lru_cache", "cached_property"}


def test_only_the_parser_is_memoised():
    # the benchmark repeats identical rounds, so a cached result would read as a speedup
    found = []
    for path in SOURCES:
        tree = _tree(path)
        decorated = {}  # each node inside a decorator -> the decorated name
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in node.decorator_list:
                    decorated.update((id(sub), node.name) for sub in ast.walk(decorator))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in MEMOISERS:
                found.append((path.name, decorated.get(id(node))))
    assert found == [("cli.py", "build_parser")]


def _script(name):
    path = PACKAGE.parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CODE_LINES_FIXTURE = '''"""Module docstring,
over two lines."""

import re  # a trailing comment leaves a code line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring,

        with a blank line."""
        text = """a string that is not a docstring,

        so its non-blank lines count"""
        return (
            text
        )
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # counted: import, class, def, the string's two non-blank lines, and return ( text )
    assert _script("code_lines").code_lines(CODE_LINES_FIXTURE) == 8


MUTANTS_FIXTURE = """\
\"\"\"Docstring: a < b, a + b, 1.\"\"\"


def f(x: int, y: list) -> int:
    if not (x <= 2):  # a comment: x + y
        x -= 1
    return [i * x // 3 for i in y if i is not None and i in (x, 'λ')] + [x > -4 != f"{x + 5}"]
"""


def test_mutants_finds_each_site_and_changes_only_its_segment():
    mutants = _script("mutants")
    source = MUTANTS_FIXTURE.encode()
    sites = mutants.mutation_sites(source)
    # nothing in the docstring, the comment, a bool or the f-string; the non-ASCII string
    # before the last line's operators shifts their byte offsets past their character ones
    assert [(site.line, site.old, site.new) for site in sites] == [
        (5, "not ", ""), (5, "<=", "<"), (5, "2", "3"), (6, "-=", "+="), (6, "1", "2"),
        (7, "*", "//"), (7, "//", "*"), (7, "3", "4"), (7, "is not", "is"), (7, "in", "not in"),
        (7, "+", "-"), (7, ">", ">="), (7, "-", ""), (7, "4", "5"), (7, "!=", "=="),
    ]
    for site in sites:
        mutant = mutants.mutate(source, site)
        assert mutant[:site.start] == source[:site.start]
        assert mutant[site.start + len(site.new.encode()):] == source[site.end:]
        assert source[site.start:site.end] == site.old.encode()
        ast.parse(mutant)  # every mutant is valid Python


def _private_definitions(path: Path) -> list:
    """The ``_name``s a module defines at its top level, dunders aside."""
    names = []
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_helper_has_a_use():
    # a module-level _name that nothing in src/ reads is dead code
    read = set()
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):  # fgab._trusted
                read.add(node.attr)
    unread = [f"{path.name}:{name}" for path in SOURCES for name in _private_definitions(path) if name not in read]
    assert unread == []


def _value_error_catchers(path: Path) -> list:
    """The innermost function around each ``except`` clause that names ``ValueError``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(c, ast.Name) and c.id == "ValueError" for c in caught):
                found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(_tree(path), None)
    return found


def test_only_the_integer_writer_and_readers_catch_value_error():
    # str() of an int past the int -> str limit raises ValueError: _int_text is the one
    # writer that works around it, and the readers catch int()'s refusal of a literal
    # past a lower limit; any other catch is a private copy of one of them
    catchers = sorted(name for path in SOURCES for name in _value_error_catchers(path))
    assert catchers == ["_int_text", "_literal_int", "parse_expression", "parse_matrix"]
