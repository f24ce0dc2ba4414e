"""Time `verify` on chain-move derivations of 8 to 64 steps under two source
trees, run side by side in one process.

Usage: python tools/verify_by_length.py BASE_SRC CHANGE_SRC [--rounds N]

BASE_SRC and CHANGE_SRC are source directories that hold a ``hyperforge``
package, both required, base first.  Each is imported under a package name of its own, which works because the
package imports itself only by relative imports.  For each length, each
tree builds ``perfbench/reanchor.chain_derivation`` (which the tool only
reads) and serialises it.  Then, every round, each tree verifies a freshly
deserialised copy of its document, once, with the tree that goes first
alternating from round to round.

Prints, for each length, each tree's median verify in ms over the rounds
and the change/base ratio of the paired rounds as a median with its
quartiles, and then the work each tree counts in one warm verify: the
corners that fresh ``_Analysis`` objects index, counted by wrapping
``_Analysis.__init__`` from outside.  Nothing is gated on the figures.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LENGTHS = (8, 16, 32, 64)


def load(src: Path, name: str):
    """The ``hyperforge`` package under ``src``, imported as ``name``."""
    package = src / "hyperforge"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def verify_ms(hf, doc: str) -> float:
    """One `verify` of a freshly deserialised ``doc``, in ms; it must be valid."""
    cert = hf.deserialize(doc)
    start = time.perf_counter()
    verdict = hf.verify(cert)
    elapsed = time.perf_counter() - start
    if not verdict.valid:
        raise SystemExit(f"error: the derivation did not verify: {verdict.reason}")
    return elapsed * 1e3


def corners_indexed(hf, doc: str) -> int:
    """The corners that fresh analyses index in one `verify` of a freshly
    deserialised ``doc``: four per crossing of each `_Analysis` made, an
    upper bound, since a built replay state's analysis is given its index."""
    cls, count = hf.diagram._Analysis, [0]
    init = cls.__init__

    def counted(self, crossings, loops, *given):
        count[0] += 4 * len(crossings)
        init(self, crossings, loops, *given)

    cert = hf.deserialize(doc)
    cls.__init__ = counted
    try:
        hf.verify(cert)
    finally:
        cls.__init__ = init
    return count[0]


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("base_src", metavar="BASE_SRC", help="the base tree's source directory")
    parser.add_argument("change_src", metavar="CHANGE_SRC", help="the change's source directory")
    parser.add_argument("--rounds", type=int, default=31, help="paired runs per length")
    args = parser.parse_args(argv[1:])
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    trees = [Path(args.base_src).resolve(), Path(args.change_src).resolve()]
    for src in trees:
        if not (src / "hyperforge" / "__init__.py").is_file():
            print(f"error: no hyperforge sources under {src}", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "perfbench"))
    import reanchor

    sides = [load(src, f"hyperforge_{side}") for src, side in zip(trees, ("base", "change"))]
    print(f"base:   {trees[0]}\nchange: {trees[1]}\nrounds: {args.rounds}")
    print(f"{'steps':>5} {'base ms':>9} {'change ms':>9} {'ratio':>6} {'q1':>6} {'q3':>6} "
          f"{'base corners':>12} {'change corners':>14}")
    for steps in LENGTHS:
        docs = [hf.serialize(reanchor.chain_derivation(hf, steps)) for hf in sides]
        for hf, doc in zip(sides, docs):
            verify_ms(hf, doc)  # warm: each fragment side is read on its first splice
        times: list[list[float]] = [[], []]
        for r in range(args.rounds):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                times[i].append(verify_ms(sides[i], docs[i]))
        ratios = [c / b for b, c in zip(*times)]
        q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        corners = [corners_indexed(hf, doc) for hf, doc in zip(sides, docs)]
        print(f"{steps:>5} {statistics.median(times[0]):>9.2f} "
              f"{statistics.median(times[1]):>9.2f} {median:>6.3f} {q1:>6.3f} {q3:>6.3f} "
              f"{corners[0]:>12} {corners[1]:>14}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
