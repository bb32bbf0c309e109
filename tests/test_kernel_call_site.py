"""The Groebner kernels have one call site, ``groebner._run_kernel``.

The routing rule (a compiled OverflowError reruns the call on the pure
kernel) holds only for calls that pass through it.  This test parses the
package and fails on any other way into a kernel: a kernel module
imported outside ``backend``, ``backend.get`` or a dynamic ``getattr``
call outside ``_run_kernel``, or a kernel entry point (``buchberger*``,
``normal_form*``) called as an attribute.  Polynomials cross as their
term maps, so an ``.items()`` call among the arguments of a
``_run_kernel`` call, a second format of pairs, is refused too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "godeaux"
KERNELS = {"_kernel", "_kernel_pure"}
ENTRY_POINTS = ("buchberger", "normal_form")


def violations(source: str, filename: str) -> list[str]:
    """Lines of ``source`` (the module ``filename``) that reach a kernel
    other than through ``groebner._run_kernel``."""
    tree = ast.parse(source, filename=filename)
    allowed = set()
    if filename == "groebner.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "_run_kernel":
                allowed = {id(n) for n in ast.walk(node)}
    out = []
    for node in ast.walk(tree):
        where = f"{filename}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.ImportFrom) and filename != "backend.py":
            names = {(node.module or "").rpartition(".")[2]}
            names |= {a.name for a in node.names}
            if names & KERNELS:
                out.append(f"{where} imports a kernel module")
        if isinstance(node, ast.Import) and filename != "backend.py":
            if any(a.name.rpartition(".")[2] in KERNELS for a in node.names):
                out.append(f"{where} imports a kernel module")
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) == "_run_kernel":
            if any(isinstance(n, ast.Call) and getattr(n.func, "attr", None)
                   == "items" for n in ast.walk(node)):
                out.append(f"{where} passes .items() pairs to _run_kernel")
        if isinstance(func, ast.Attribute):
            if func.attr.startswith(ENTRY_POINTS):
                out.append(f"{where} calls {func.attr} on a module")
            elif (func.attr == "get" and isinstance(func.value, ast.Name)
                  and func.value.id in ("backend", "_backend")
                  and id(node) not in allowed):
                out.append(f"{where} calls {func.value.id}.get")
        elif (isinstance(func, ast.Call) and isinstance(func.func, ast.Name)
              and func.func.id == "getattr" and id(node) not in allowed):
            out.append(f"{where} calls a getattr result")
    return out


def test_run_kernel_is_the_one_kernel_call_site():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += violations(path.read_text(), path.name)
    assert found == []


def test_run_kernel_is_where_the_guard_looks():
    source = (SRC / "groebner.py").read_text()
    assert "def _run_kernel(" in source
    # the same calls moved out of _run_kernel are refused
    moved = source.replace("def _run_kernel(", "def _renamed(")
    assert len(violations(moved, "groebner.py")) == 3


@pytest.mark.parametrize("source, filename", [
    ("from . import backend\n"
     "def f(t):\n    return backend.get('pure').buchberger(t, 1, 5, 'lex')\n",
     "suite.py"),
    ("from ._kernel_pure import normal_form\n", "groebner.py"),
    ("from . import _kernel\n", "derivations.py"),
    ("import godeaux._kernel_pure as k\n", "cli.py"),
    ("def f(kern, t):\n    return getattr(kern, 'buchberger')(t)\n",
     "groebner.py"),
    ("def f(g, o):\n    return _run_kernel(2, 5, o, None, 'buchberger',\n"
     "                       [list(g._terms.items())])\n", "groebner.py"),
    ("def f(g, o):\n    return groebner._run_kernel(\n"
     "        2, 5, o, None, 'normal_form', g._terms.items(), [])\n",
     "suite.py"),
], ids=["backend-get-elsewhere", "from-import", "module-import",
        "plain-import", "getattr-elsewhere", "items-pairs",
        "items-pairs-elsewhere"])
def test_guard_refuses_a_second_path(source, filename):
    assert violations(source, filename)
