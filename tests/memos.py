"""Emptying the process-wide memos, for tests that count certifier work.

`menasco_certify` remembers its decisions and `deserialize` its parsed
bases for the life of the process, so a test that counts the work of a
certification must first forget what earlier tests certified."""

from hyperforge import certificate, classifier


def forget_memos():
    """Empty the memos of base diagrams and certifier decisions, so that
    the next document's base is parsed and certified in full."""
    certificate._base_diagram.cache_clear()
    classifier._decisions.clear()
