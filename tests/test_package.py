"""The package namespace: every public name resolves, submodules load lazily."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperforge


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
