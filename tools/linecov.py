"""A pytest plugin that lists the body lines of ``src/hyperforge`` no test ran.

Usage (from the repository root):

    PYTHONPATH=src:tools python -m pytest -p linecov -q [pytest arguments]

Standard library only.  A trace function, installed with `sys.settrace`
for the main thread and `threading.settrace` for every thread the run
starts, records each line run in a file of the package; calls into any
other file are not traced line by line.  At the end of the session the
terminal summary gives the count of unrun body lines, then each one as
``path:line``.  A body line is a line of a function's (or lambda's or
comprehension's) code other than its first line; module and class bodies
run at import, before the plugin is installed, and are not counted.
Code that only a spawned process runs (the subprocess tests) is never
seen, so it is listed as unrun.

The summary ends with ``linecov: N unrun refusal lines`` and each of
them: the unrun body lines whose text holds one of `REFUSALS`, the
places where a certifier, a gate or `verify` says no, and where the
library raises one of its input errors (`SiteError`, `FormatError`,
`CertificateError`, `GlueError`, `PremiseError`) at the line that names
it.  The plugin itself gates nothing; CI fails the run when N is not 0.
The trace slows the run several times over.
"""

import inspect
import linecache
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hyperforge"
_PREFIX = str(PACKAGE) + "/"
_ran: set = set()  # (file name, line) of every line run in the package
REFUSALS = ("refuse(", "Refusal(", "Admission(False", "raise SiteError(", "raise FormatError(",
            "raise CertificateError(", "raise GlueError(", "raise PremiseError(")


def _lines(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(_PREFIX) else None


def body_lines(path: Path) -> set:
    """The body lines of every function in the source file ``path``."""
    todo, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
    return lines


def pytest_configure(config):
    threading.settrace(_calls)
    sys.settrace(_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    unrun = sorted((path.relative_to(PACKAGE.parents[1]), line)
                   for path in sorted(PACKAGE.glob("*.py"))
                   for line in body_lines(path) if (str(path), line) not in _ran)
    terminalreporter.write_line(f"linecov: {len(unrun)} body lines of src/hyperforge never ran")
    for path, line in unrun:
        terminalreporter.write_line(f"{path}:{line}")
    refusals = [(path, line) for path, line in unrun
                if any(mark in linecache.getline(str(PACKAGE.parents[1] / path), line)
                       for mark in REFUSALS)]
    terminalreporter.write_line(f"linecov: {len(refusals)} unrun refusal lines")
    for path, line in refusals:
        terminalreporter.write_line(f"{path}:{line}")
