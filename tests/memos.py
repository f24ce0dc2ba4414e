"""Emptying the process-wide memos, for tests that count the work of a
cold process.

`menasco_certify` remembers its decisions, `deserialize` its parsed
bases, and `splice` each fragment's side and each judged wiring for the
life of the process, so a test that counts the work of a certification
or a splice must first forget what earlier tests certified and spliced."""

from hyperforge import certificate, classifier, diagram


def forget_memos():
    """Empty the memos of base diagrams, certifier decisions, fragment
    sides and judged wirings, so that the next document's base is parsed
    and certified in full and the next splice reads its fragment side and
    judges its wirings."""
    certificate._base_diagram.cache_clear()
    classifier._decisions.clear()
    diagram._emitted_side.cache_clear()
    diagram._judged.cache_clear()
