"""Pass only when a benchmark run checked its outputs and none failed.

Usage: python tools/check_bench_smoke.py RUN_OUTPUT.txt

RUN_OUTPUT.txt is the stdout of ``perfbench/run.py`` (any workload, or
``--workload all``).  Its last line is a JSON object; the check passes when
that object's ``correct`` is true, so every item matched the known-answer
table and the CLI session matched its recorded digest, and its ``failed``
is 0.  The check fails on a missing or malformed summary line too.
"""

import json
import sys


def problems(text):
    """The lines that explain why the run's summary is not a clean pass."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["no output"]
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"last line is not a JSON summary: {lines[-1][:120]!r}"]
    if not isinstance(summary, dict):
        return [f"last line is not a JSON object: {lines[-1][:120]!r}"]
    found = []
    if summary.get("correct") is not True:
        found.append(f"correct is {summary.get('correct')!r}, expected true")
    if summary.get("failed") != 0:
        found.append(f"failed is {summary.get('failed')!r}, expected 0")
    return found


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        lines = problems(fh.read())
    for line in lines:
        print(line)
    print("benchmark smoke run: " + ("OK" if not lines else "FAILED"))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
