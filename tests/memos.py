"""The process-wide memos, found rather than listed, and emptying them for
tests that count the work of a cold process.

A memo is a module-level `functools` cache of a ``hyperforge`` submodule,
anything there with ``cache_clear``.  `menasco_certify` remembers its
decisions, `deserialize` its parsed bases, and `splice` each judged
wiring for the life of the process, so a test that counts the work of a
certification or a splice must first forget what earlier tests certified
and spliced.  `memos` finds every one, so a new memo is emptied too, and
the inventory test in ``test_package`` names each with its bound."""

import importlib
import pkgutil

import hyperforge


def memos():
    """{"module.name": the cache} for every module-level functools cache
    defined in a hyperforge submodule; every submodule is imported."""
    found = {}
    for info in pkgutil.iter_modules(hyperforge.__path__):
        module = importlib.import_module(f"hyperforge.{info.name}")
        for name, value in vars(module).items():
            defined_here = getattr(value, "__module__", None) == module.__name__
            if defined_here and hasattr(value, "cache_clear"):
                found[f"{info.name}.{name}"] = value
    return found


def forget_memos():
    """Empty every memo, so that the next document's base is parsed and
    certified in full and the next splice judges its wirings and reads its
    fragment side."""
    for memo in memos().values():
        memo.cache_clear()
