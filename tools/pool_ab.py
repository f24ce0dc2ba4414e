"""Time whole passes over a benchmark workload's pool under two source trees,
run side by side in one process.

Usage: python tools/pool_ab.py BASE_SRC CHANGE_SRC --workload NAME [--rounds N] [--seed S]
                               [--cold]

BASE_SRC and CHANGE_SRC are source directories that hold a ``hyperforge``
package, both required, base first; each is imported under a package name
of its own (``verify_by_length.load``).  Each tree builds its own pool of
the workload from ``perfbench/workloads.py``, which the tool only reads, in
a temporary directory of its own.  A pass runs one round of the pool (the
items the workload's round generator yields next) and times each item's
program call alone; the known-answer check runs outside the timing.  Each
tree first runs one pass that is not counted, as a warm-up.  Then, for up
to N paired rounds, each tree runs one pass, the tree that goes first
alternating from round to round.  A workload whose pool has a fixed number
of rounds (certify_bases has 16, each of distinct subjects) stops early
when either tree runs out, and the figures cover the pairs run.

The program keeps per-process memos, and a pool's items repeat, so a pass
times warm memos.  With ``--cold``, every module-level ``functools`` cache
of a tree (anything with ``cache_clear`` defined in one of its modules) is
emptied before each of its items, outside the timing, so every item pays
for its memos' misses: a splice's judge, a certifier's decision, a parsed
base.

Prints each tree's median pass time in ms, the change/base ratio of the
paired passes as a median with its quartiles, and each tree's count of
items that raised or failed their known-answer check.  Nothing is gated on
the figures.
"""

import argparse
import importlib
import pkgutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from verify_by_length import load  # noqa: E402


def memos(hf) -> list:
    """Every module-level functools cache of the tree ``hf``, each of its
    modules imported."""
    found = []
    for info in pkgutil.iter_modules(hf.__path__):
        module = importlib.import_module(f"{hf.__name__}.{info.name}")
        found += [value for value in vars(module).values()
                  if getattr(value, "__module__", None) == module.__name__
                  and hasattr(value, "cache_clear")]
    return found


def timed_pass(workload, state, items, forget=()) -> tuple[float, int]:
    """(the summed time of each item's program call in ms, the count of
    items that raised or failed their check) of one pass over ``items``,
    each of the ``forget`` caches emptied before each item; an item that
    raises is not timed."""
    _, _, execute, check, *_ = workload
    elapsed, failed = 0.0, 0
    for item in items:
        for memo in forget:
            memo.cache_clear()
        try:
            start = time.perf_counter()
            outcome = execute(state, item)
            elapsed += time.perf_counter() - start
        except Exception:  # an unexpected exception is a failed item
            failed += 1
            continue
        failed += not check(state, item, outcome)
    return elapsed * 1e3, failed


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("base_src", metavar="BASE_SRC", help="the base tree's source directory")
    parser.add_argument("change_src", metavar="CHANGE_SRC", help="the change's source directory")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/workloads.py")
    parser.add_argument("--rounds", type=int, default=21, help="paired passes at most")
    parser.add_argument("--seed", type=int, default=1, help="the seed each pool is built from")
    parser.add_argument("--cold", action="store_true",
                        help="empty every memo of a tree before each of its items")
    args = parser.parse_args(argv[1:])
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    trees = [Path(args.base_src).resolve(), Path(args.change_src).resolve()]
    for src in trees:
        if not (src / "hyperforge" / "__init__.py").is_file():
            print(f"error: no hyperforge sources under {src}", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    build, rounds = workload[:2]
    sides = [load(src, f"hyperforge_{side}") for src, side in zip(trees, ("base", "change"))]
    for hf in sides:
        importlib.import_module(f"{hf.__name__}.cli")  # cli_pipeline runs hf.cli.run
    forget = [memos(hf) if args.cold else [] for hf in sides]
    print(f"base:   {trees[0]}\nchange: {trees[1]}\n"
          f"workload: {args.workload}  seed: {args.seed}  rounds: {args.rounds}"
          + (f"  cold: {len(forget[0])} / {len(forget[1])} memos emptied per item"
             if args.cold else ""))
    with tempfile.TemporaryDirectory() as workdir:
        states = [build(hf, args.seed, str(Path(workdir) / side))
                  for hf, side in zip(sides, ("base", "change"))]
        passes = [rounds(state) for state in states]
        times: list[list[float]] = [[], []]
        failed = [0, 0]
        try:
            for i in (0, 1):  # warm-up, not counted
                failed[i] += timed_pass(workload, states[i], next(passes[i]), forget[i])[1]
            for r in range(args.rounds):
                pair = [next(passes[i]) for i in (0, 1)]
                for i in (0, 1) if r % 2 == 0 else (1, 0):
                    ms, bad = timed_pass(workload, states[i], pair[i], forget[i])
                    times[i].append(ms)
                    failed[i] += bad
        except StopIteration:
            print(f"the pool ran out of rounds after {len(times[0])} paired passes")
    if not times[0]:
        print("no paired pass was run")
        return 0
    ratios = [c / b for b, c in zip(*times)]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"{'passes':>6} {'base ms':>9} {'change ms':>9} {'ratio':>6} {'q1':>6} {'q3':>6}")
    print(f"{len(ratios):>6} {statistics.median(times[0]):>9.2f} "
          f"{statistics.median(times[1]):>9.2f} {median:>6.3f} {q1:>6.3f} {q3:>6.3f}")
    print(f"known-answer failures: base {failed[0]}  change {failed[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
