"""hyperforge benchmark: one workload, one seed, one closed-loop client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify_bases --seed 1 --seconds 25 --trace 0

Workloads: certify_bases, replay_verify, cli_pipeline, or all of them in
turn (see README.md in this directory).  With --trace 0 the run reports the
end-to-end metrics, every time scaled to a fixed host speed (speed.py);
with --trace 1 it runs every second item of each kind traced and reports
the per-layer metrics.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The
program is imported from the checkout's src/; without it the benchmark
exits with code 2.
"""

from __future__ import annotations

import argparse
import collections
import json
import importlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NEAR, NOMINAL_S, Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up runs this many times in an untraced run; setup_s is the median.
SETUP_REPEATS = 3
# The cold-start probe runs between items about this often, so its samples
# spread over the whole run; cold_start_ms is their median.
COLD_START_EVERY_S = 1.0
# The host-speed task (speed.py) runs between items about this often, and
# this many times before and after each set-up run, whose time is scaled by
# the speed measured around it.
SPEED_EVERY_S = 0.25
SPEED_AROUND_SETUP = 3
COLD_START_ARGV = ["-m", "hyperforge.cli", "fraction", "--seq", "-2 0"]
COLD_START_WANT = "-1/2\n"  # [-2, 0] is 0 + 1/(-2)

LAZY_ANALYSIS_NOTE = (
    "note: a diagram's _Analysis is built lazily, so its cost is in the self "
    "time of whichever traced function first touches a new diagram"
)


def _import_fresh():
    """Import hyperforge from the checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "hyperforge" or m.startswith("hyperforge.")]:
        del sys.modules[name]
    hf = importlib.import_module("hyperforge")
    importlib.import_module("hyperforge.cli")
    return hf


def _setup(workloads, name, seed, workdir):
    build = workloads.WORKLOADS[name][0]
    t0 = time.perf_counter()
    hf = _import_fresh()
    state = build(hf, seed, str(workdir))
    return time.perf_counter() - t0, state


def _measure(workloads, name, state, seconds, probes=(), tracer=None):
    """Run items until `seconds` of item-loop time have passed and the
    first round is complete (the first two with `tracer`), so that every
    key has a sample, and with `tracer` one each way, however slow the
    program is.

    Returns (untraced samples, traced samples, failed count, the count of
    each key in the first round); a sample is (key, latency in s, its
    perf_counter() start).  Latency is the time of the program call alone;
    the known-answer check runs outside it.  Each round is in seeded random
    order, so a run that stops inside a round still measures an unbiased
    sample of the workload's mix.  Each (period in s, probe) of `probes`
    runs about once a period between items; its time does not count
    against `seconds`.  With `tracer`, each key runs untraced and traced
    in turn, and the keys of each stratum (see workloads.py) start one way
    and the other in turn.  So both halves get the same mix, every key
    runs both ways from the second round on, and drift of the machine's
    speed hits both halves alike.
    """
    _, rounds, execute, check, stratum, key_of = workloads.WORKLOADS[name]
    plain, traced = [], []
    failed = 0
    per_round = None
    min_rounds = 1 if tracer is None else 2
    turns = collections.Counter()
    first_way, runs = {}, collections.Counter()
    deadline = time.perf_counter() + seconds
    next_probe = [time.perf_counter()] * len(probes)
    for round_no, items in enumerate(rounds(state)):
        if per_round is None:
            per_round = collections.Counter(key_of(item) for item in items)
        for item in items:
            for i, (period, probe) in enumerate(probes):
                if time.perf_counter() >= next_probe[i]:
                    t0 = time.perf_counter()
                    probe()
                    deadline += time.perf_counter() - t0
                    next_probe[i] = time.perf_counter() + period
            tracing_on = False
            if tracer is not None:
                key = key_of(item)
                if key not in first_way:
                    first_way[key] = turns[stratum(item)] % 2
                    turns[stratum(item)] += 1
                tracing_on = (first_way[key] + runs[key]) % 2 == 1
                runs[key] += 1
            if tracing_on:
                tracer.install()
            error = None
            t0 = time.perf_counter()
            try:
                outcome = execute(state, item)
            except Exception as err:  # an unexpected exception is a failed item
                error = err
            elapsed = time.perf_counter() - t0
            if tracing_on:
                tracer.uninstall()
            (traced if tracing_on else plain).append((key_of(item), elapsed, t0))
            if error is not None:
                failed += 1
                print(f"item raised {type(error).__name__}: {error}", file=sys.stderr)
            elif not check(state, item, outcome):
                failed += 1
                print(f"known-answer mismatch: {_describe(item)}", file=sys.stderr)
            if round_no >= min_rounds and time.perf_counter() >= deadline:
                return plain, traced, failed, per_round
        if round_no >= min_rounds - 1 and time.perf_counter() >= deadline:
            break
    return plain, traced, failed, per_round


def _describe(item):
    if isinstance(item, tuple):
        item = item[1]
    return {k: v for k, v in item.items() if k in ("family", "crossings", "kind", "cls", "argv")}


class ColdStart:
    """Spawns a CLI command as a fresh interpreter and records its wall time."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.starts = []
        self.times = []
        self.ok = True

    def __call__(self):
        t0 = time.perf_counter()
        self.starts.append(t0)
        # stdin must be DEVNULL: cli.main() reads stdin to EOF whenever it is
        # not a tty, so a child that inherits an open pipe blocks forever.
        proc = subprocess.run(
            [sys.executable, *COLD_START_ARGV], stdin=subprocess.DEVNULL,
            capture_output=True, text=True, env=self.env, cwd=str(ROOT), timeout=60,
        )
        self.times.append(time.perf_counter() - t0)
        self.ok = self.ok and proc.returncode == 0 and proc.stdout == COLD_START_WANT


def _key_medians(samples):
    """The median latency of each key over `samples`."""
    by_key = collections.defaultdict(list)
    for key, elapsed, _ in samples:
        by_key[key].append(elapsed)
    return {key: statistics.median(times) for key, times in by_key.items()}


def _typical(samples, per_round):
    """Throughput, p50 and p90 of a typical round, from per-key medians.

    Each key's latency is the median of its samples over the run, and a
    typical round holds each key as often as the first round did.  The
    host's speed drifts in spells of a few seconds; a median over samples
    spread across the run ignores the spells that a sum or a mean would
    carry, so two runs agree much more closely.
    """
    median_of = _key_medians(samples)
    round_latencies = []
    for key, count in per_round.items():
        round_latencies += [median_of[key]] * count
    cuts = statistics.quantiles(round_latencies, n=10)
    return len(round_latencies) / sum(round_latencies), cuts[4], cuts[8]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _per_layer_unit(name):
    if name.endswith(".calls"):
        return "calls/item"
    if name.endswith(".self_ms"):
        return "ms/item"
    if name.endswith(".slope"):
        return "log-log"
    if name == "trace.overhead_pct":
        return "%"
    return "ratio"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "hyperforge" / "__init__.py").is_file():
        print(f"error: no hyperforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    import known_answers as ka

    if args.workload == "all":
        return _run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from all, {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workloads, ka, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_all(args, names):
    """Run every workload in its own process (peak RSS is per workload) and
    print one JSON line whose metrics are named <workload>.<metric>."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, check=True,
        )
        *text, last = proc.stdout.splitlines()
        print("\n".join(text))
        result = json.loads(last)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    print(json.dumps(total))
    return 0


def _run(args, workloads, ka, workdir):
    name, seed = args.workload, args.seed
    correct = True
    metrics = {}
    lines = [f"workload {name}  seed {seed}  run {args.seconds:g} s  trace {args.trace}"]
    if args.trace == 0:
        speed = Speed()
        setup_times, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            state = None  # free the previous inputs before building new ones
            first = len(speed.times)
            for _ in range(SPEED_AROUND_SETUP):
                speed()
            elapsed, state = _setup(workloads, name, seed, workdir)
            for _ in range(SPEED_AROUND_SETUP):
                speed()
            setup_times.append(elapsed)
            setup_scaled.append(elapsed * NOMINAL_S / statistics.median(speed.times[first:]))
        cold = ColdStart()
        samples, _, failed, per_round = _measure(
            workloads, name, state, args.seconds,
            probes=((SPEED_EVERY_S, speed), (COLD_START_EVERY_S, cold)))
        latencies = [elapsed for _, elapsed, _ in samples]
        correct = cold.ok
        # Each time is scaled to the host speed of speed.NOMINAL_S by the
        # task runs nearest to it; the unscaled figures are printed too.
        scaled = [(key, elapsed * speed.factor_at(t0), t0) for key, elapsed, t0 in samples]
        figures = {}
        for label, rows, cold_times, setup in (
                ("unscaled", samples, cold.times, setup_times),
                ("scaled", scaled, [t * speed.factor_at(t0)
                                    for t, t0 in zip(cold.times, cold.starts)], setup_scaled)):
            throughput, p50, p90 = _typical(rows, per_round)
            figures[label] = {
                "setup_s": (statistics.median(setup), "s"),
                "throughput_items_per_s": (throughput, "1/s"),
                "latency_p50_ms": (p50 * 1e3, "ms"),
                "latency_p90_ms": (p90 * 1e3, "ms"),
                "cold_start_ms": (statistics.median(cold_times) * 1e3, "ms"),
            }
        metrics = {key: _metric(value, unit) for key, (value, unit) in figures["scaled"].items()}
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        p90 = figures["unscaled"]["latency_p90_ms"][0] / 1e3
        lines.append(f"set-up runs: {', '.join(f'{t:.3f}' for t in setup_times)} s")
        above = sum(1 for t in latencies if t > p90)
        lines.append(f"items {len(latencies)}  keys {len(per_round)}  above p90 {above}  "
                     f"failed_share {failed / len(latencies):.4f}  "
                     f"cold-start spawns {len(cold.times)}, output ok {cold.ok}")
        lines.append(f"host speed: task median {statistics.median(speed.times) * 1e3:.3f} ms "
                     f"over {len(speed.times)} runs, nominal {NOMINAL_S * 1e3:.3f} ms "
                     f"(whole-run scale {speed.factor():.4f}); each time below is scaled "
                     f"by the median of the {NEAR} task runs nearest to it, setup_s by "
                     "those around its set-up run")
        lines.append("unscaled: " + "  ".join(f"{k} {v:.4f} {u}"
                                             for k, (v, u) in figures["unscaled"].items()))
    else:
        import tracing

        # The repeat counter sees every menasco_certify call from set-up on,
        # traced and untraced items alike.
        hf = _import_fresh()
        counter = tracing.RepeatCounter()
        counter.install()
        state = workloads.WORKLOADS[name][0](hf, seed, str(workdir))
        tracer = tracing.Tracer()
        try:
            plain, traced, failed, _ = _measure(workloads, name, state, args.seconds,
                                                tracer=tracer)
        finally:
            counter.uninstall()
        latencies = plain + traced
        layer = tracing.layer_metrics(tracer.spans, len(traced), counter.share)
        # Compare each key's median untraced and traced latency, over the
        # keys run both ways: the two halves then hold the same work, and
        # which costly items fall in which half does not move the figure.
        plain_at, traced_at = _key_medians(plain), _key_medians(traced)
        both = plain_at.keys() & traced_at.keys()
        layer["trace.overhead_pct"] = (
            1 - sum(plain_at[k] for k in both) / sum(traced_at[k] for k in both)) * 100
        metrics = {k: _metric(v, _per_layer_unit(k)) for k, v in layer.items()}
        spans_path = OUT / f"spans-{name}-{seed}.jsonl.gz"
        tracer.write(spans_path)
        lines.append(f"items untraced {len(plain)}  traced {len(traced)}  "
                     f"keys run both ways {len(both)}  "
                     f"menasco_certify calls {counter.calls}  "
                     f"spans {len(tracer.spans)} -> {spans_path.relative_to(ROOT)}")
        lines.append(f"failed_share {failed / len(latencies):.4f}")
        lines.append(LAZY_ANALYSIS_NOTE)
        lines.append("note: a slope of 0 means the workload gave fewer than two sizes")

    if name == "cli_pipeline":
        ref_dir = workdir / "reference"
        ref_dir.mkdir()
        digest = workloads.session_digest(state["hf"], 0, str(ref_dir))
        guard = digest == ka.RECORDED_CLI_DIGEST
        lines.append(f"reference session stdout sha256 {digest} "
                     f"(recorded regression guard: {'match' if guard else 'MISMATCH'})")
        correct = correct and guard

    correct = correct and failed == 0
    for line in lines:
        print(line)
    for key, m in metrics.items():
        print(f"  {key:52s} {m['value']:14.4f} {m['unit']}")

    print(json.dumps({"correct": correct, "attempted": len(latencies), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
