"""Pass only when the tier-1 run's failures are exactly the known-red tests.

Usage: python tools/check_known_red.py REPORT.xml

REPORT.xml is the junit-xml report of a pytest run (``--junitxml``).  The
two acceptance tests in KNOWN_RED are red on purpose (see the README):
they run like every other test and must fail.  The check fails when any
other test fails, errors or is skipped (a collection error counts as an
error), when a known-red test passes, or when one is missing from the run.
"""

import sys
import xml.etree.ElementTree as ET

KNOWN_RED = frozenset({
    "tests.test_acceptance::test_acceptance_3b_k0_outputs_match_generator",
    "tests.test_acceptance::test_acceptance_5b_minus3_closure_accepted",
})


def outcomes(report_path):
    """{test id: 'passed' | 'failure' | 'error' | 'skipped'} of a junit-xml report."""
    found = {}
    for case in ET.parse(report_path).getroot().iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        kinds = [child.tag for child in case if child.tag in ("failure", "error", "skipped")]
        found[test_id] = kinds[0] if kinds else "passed"
    return found


def problems(found):
    """The lines that explain why ``found`` is not the expected outcome."""
    lines = []
    for test_id in sorted(KNOWN_RED - found.keys()):
        lines.append(f"known-red test did not run: {test_id}")
    for test_id, outcome in sorted(found.items()):
        if test_id in KNOWN_RED:
            if outcome != "failure":
                lines.append(f"known-red test is {outcome}, expected failure: {test_id}")
        elif outcome != "passed":
            lines.append(f"{outcome}: {test_id}")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    found = outcomes(argv[1])
    lines = problems(found)
    for line in lines:
        print(line)
    passed = sum(outcome == "passed" for outcome in found.values())
    print(f"{passed} passed, {len(found) - passed} not passed; "
          f"{'OK' if not lines else 'FAILED'}: known red is {len(KNOWN_RED)} tests")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
