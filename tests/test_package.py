"""The package namespace: every public name resolves, submodules load lazily,
the submodules import one another one way only, and the process-wide memos
are the named ones."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperforge

from memos import forget_memos, memos


def test_every_public_name_resolves():
    for module, names in hyperforge._EXPORTS.items():
        home = importlib.import_module(f"hyperforge.{module}")
        assert getattr(hyperforge, module) is home
        for name in names:
            assert getattr(hyperforge, name) is getattr(home, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        hyperforge.no_such_name


def test_import_is_lazy_until_first_name():
    script = (
        "import sys, hyperforge\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('hyperforge.'))\n"
        "print(loaded())\n"
        "assert hyperforge.parse_pd is sys.modules['hyperforge.diagram'].parse_pd\n"
        "print(loaded())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=30, stdin=subprocess.DEVNULL)
    before, after = proc.stdout.splitlines()
    assert before == "[]"
    assert after == str([f"hyperforge.{m}" for m in sorted(
        ("certificate", "classifier", "diagram", "errors", "generators", "moves", "tangle"))])


def _relative_imports(path):
    """(target module, inside a function) for each relative import in a
    source file, leaving out `if TYPE_CHECKING:` blocks."""
    found = []

    def visit(node, in_function):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child, in_function)
            return
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            targets = [node.module] if node.module else [a.name for a in node.names]
            found.extend((t.split(".")[0], in_function) for t in targets)
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def test_import_graph_is_one_way():
    package = Path(hyperforge.__file__).parent
    edges = {path.stem: _relative_imports(path) for path in sorted(package.glob("*.py"))}
    deferred = {(module, target) for module, found in edges.items()
                for target, in_function in found if in_function and module != "cli"}
    assert deferred <= {("classifier", "diagram"), ("tangle", "diagram")}
    # depth-first search for a cycle among the relative imports
    done, stack = set(), []

    def visit(module):
        assert module not in stack, " -> ".join(stack[stack.index(module):] + [module])
        if module in done:
            return
        stack.append(module)
        for target, _ in edges.get(module, ()):
            visit(target)
        stack.pop()
        done.add(module)

    for module in edges:
        visit(module)


def test_the_memo_inventory():
    """Every process-wide memo is a functools cache named here with its
    bound, so a new memo fails until it is named, and `forget_memos`,
    which finds them the same way, empties it."""
    found = memos()
    bounds = {name: memo.cache_info().maxsize for name, memo in found.items()}
    assert bounds == {"certificate._base_diagram": 64, "classifier._menasco_refusal": 256,
                      "diagram._judged": 256, "cli._parser": None}
    assert not inspect.signature(found["cli._parser"]).parameters
    found["cli._parser"]()
    forget_memos()
    assert all(memo.cache_info().currsize == 0 for memo in found.values())
