"""Every public name is used by the package itself or documented in the README.

A name that only tests call is dead weight in the library: the test keeps
it alive but no user path runs it.  README's `## Library` block runs and
gives the values its comments state.  No module imports sympy or numpy:
neither is a declared dependency, even where both are installed.  No
module imports a name it never uses.  And importing the package and its
CLI loads no module that only reflection or typing would need, nor
hashlib's OpenSSL, where the interpreter has a builtin sha256, nor
fractions, random or contextlib, which a one-shot classify never runs.
"""

import ast
import hashlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import entinv
import entinv.cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entinv"


def _public_names():
    """Exported names, plus `Class.member` for public members of exported classes."""
    for name in entinv.__all__:
        if name.startswith("__"):
            continue
        yield name, name
        obj = getattr(entinv, name)
        if not inspect.isclass(obj):
            continue
        for member, value in vars(obj).items():
            if member.startswith("_"):
                continue
            if isinstance(value, (property, classmethod, staticmethod)) or inspect.isfunction(value):
                yield f"{name}.{member}", member


def _unused_names(source_lines, readme):
    """Public names that no source line uses and the README does not name.

    A class member is used in the source only through attribute access
    (`.name`): the bare word may be a local variable or another function.
    """
    unused = []
    for qualified, name in _public_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        use = re.compile(rf"\.{re.escape(name)}\b") if "." in qualified else word
        own_line = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b")
        used = any(use.search(line) and not own_line.match(line) for line in source_lines)
        if not used and not word.search(readme):
            unused.append(qualified)
    return unused


def test_no_public_name_only_tests_call():
    # __init__.py re-exports every name, so its lines are no evidence of use
    source_lines = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _unused_names(source_lines, readme) == []


def test_readme_library_block_gives_the_values_it_states():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.S | re.M).group(1)
    assert "# (0,0,0;2,2,2;0)" in block and "# 'C6'" in block
    names = {}
    exec(block, names)
    assert str(names["sig"]) == "(0,0,0;2,2,2;0)"
    assert names["classify"](names["ghz"]) == "C6"


_UNDECLARED = {"sympy", "numpy"}


def _undeclared_imports(source: str) -> list[int]:
    """Line numbers of each `import` or `from` of an undeclared package."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in _UNDECLARED for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_scanner_finds_every_import_form():
    source = ("import numbers\nimport os, numpy as np\nfrom sympy.abc import x\n"
              "def f():\n    import sympy\nfrom . import numpy\nimport numpyx\n")
    assert _undeclared_imports(source) == [2, 3, 5]


def test_no_module_imports_sympy_or_numpy():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for top in ("src", "tests", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
        for line in _undeclared_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def _unused_imports(source: str) -> list[str]:
    """Names that an `import` or a `from` binds and the module never reads,
    as "line:name".  A name is read where it is loaded, as the base of an
    attribute too, or inside a string annotation; `__future__` imports
    bind nothing to read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({a.asname or a.name: node.lineno for a in node.names})
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    quoted = [ast.parse(n.value, mode="eval") for a in annotations if a is not None
              for n in ast.walk(a) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    read = {n.id for t in [tree, *quoted] for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(f"{line}:{name}" for name, line in bound.items() if name not in read)


def test_unused_import_scanner():
    source = ("from __future__ import annotations\nimport os, os.path as p\nimport a.b\n"
              "from x import (y, z as w)\nfrom . import u\n"
              "def f(q: 'w') -> \"list[y]\":\n    return a.b(q)\n")
    assert _unused_imports(source) == ["2:os", "2:p", "5:u"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports exist to re-export
    found = [
        f"{path.relative_to(ROOT)}:{name}"
        for top in ("src", "tests", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# modules that a one-shot CLI process would import only to build classes,
# read signatures or annotate, with what they pull in (ast, dis, tokenize)
_START_UP_UNUSED = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")


def _loaded_at_import(modules) -> list[str]:
    """Those of `modules` that `import entinv, entinv.cli` loads."""
    # -I -S: no site preloads, which may import typing themselves, and only
    # src/ ahead of the standard library on sys.path
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import entinv, entinv.cli; "
            f"print([m for m in {tuple(modules)!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    return ast.literal_eval(done.stdout)


def test_import_loads_no_reflection_or_typing_modules():
    assert _loaded_at_import(_START_UP_UNUSED) == []


# a document is read straight into its integer image, so a field value, the
# only user of fractions (and of the decimal and numbers it imports), is
# built on first use; random draws and contextlib are not on the classify route
_NOT_ON_THE_CLASSIFY_ROUTE = ("fractions", "decimal", "numbers", "random", "contextlib")


def test_import_loads_no_fractions_random_or_contextlib():
    assert _loaded_at_import(_NOT_ON_THE_CLASSIFY_ROUTE) == []


def test_classify_builds_no_fraction():
    doc = ('{"field": "rational", "dims": [2, 2, 2], '
           '"entries": ["1", "0", "0", "0", "0", "0", "0", "1/2"]}')
    code = ("import io, sys; sys.path.insert(0, sys.argv[1]); import entinv.cli; "
            "sys.stdin = io.StringIO(sys.argv[2]); code = entinv.cli.main(['classify', '-']); "
            "print([m for m in ('fractions', 'decimal') if m in sys.modules], code)")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(ROOT / "src"), doc],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == "[] 0"


@pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                    reason="this Python has no builtin sha256 module, so the CLI takes hashlib's")
def test_import_loads_no_openssl_hashlib():
    # hashlib loads _hashlib, OpenSSL's libcrypto, for the one digest classify takes
    assert _loaded_at_import(["hashlib", "_hashlib"]) == []


@pytest.mark.parametrize("text", ["", '{"field": "rational"}', "\u00e9\u20ac\U0001f600"],
                         ids=["empty", "ascii", "non-ascii"])
def test_cli_sha256_is_hashlibs(text):
    data = text.encode("utf-8")
    assert entinv.cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
