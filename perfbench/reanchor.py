"""Reproduce the ROADMAP re-anchor figures with the benchmark's tracer.

Usage (from the root of a checkout):

    python3 perfbench/reanchor.py

Prints one JSON object:
  - two_edge_cuts and menasco_certify on chain_link(n) at 8/16/32/48/64
    crossings (median span duration over REPS calls);
  - extend and verify of a 12-step chain-move derivation (44 crossings),
    with the find_chain_sites calls, diagram analyses built and
    ValidityReport objects made during the verify;
  - `verify --jobs 2` against `--jobs 1` over 8 certificate files.
The numbers are recorded in perfbench/baseline.json.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Every figure is the median of this many runs.
REPS = 5


def _span_ms(tracer, name):
    return [(s.end - s.start) * 1e3 for s in tracer.spans if s.name == name]


def _count_calls(owner, attr, counter, key):
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        counter[key] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, counted)


def chain_derivation(hf, steps=12):
    """Acceptance-3a style: chain moves from the 4-chain, k = +-1, declared
    evidence; 8 + 12 * 3 = 44 crossings."""
    rng = random.Random(2024)
    cert = hf.menasco_certify(hf.chain_link(hf.ChainSpec(4)))
    evidence = hf.classifier.DeclaredNonRational("declared for the re-anchor figure")
    for i in range(steps):
        site = rng.choice(hf.find_chain_sites(cert.subject))
        k = 1 if i % 2 else -1
        cert = hf.extend(cert, hf.ChainStep(
            site.trivial_component, (site.strand1, site.strand2), k, evidence))
    return cert


def main():
    if not (SRC / "hyperforge" / "__init__.py").is_file():
        print(f"error: no hyperforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hyperforge as hf
    import hyperforge.cli as cli
    import tracing

    out = {"sizes": {}}
    diagrams = {2 * n: hf.chain_link(hf.ChainSpec(n)) for n in (4, 8, 16, 24, 32)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for crossings, d in diagrams.items():
            # chain_link() validates its output, so d's analysis is built
            # before timing, as in the ROADMAP measurement
            for _ in range(REPS):
                hf.diagram.two_edge_cuts(d)
            for _ in range(REPS):
                hf.menasco_certify(d)
            cuts = _span_ms(tracer, "diagram.two_edge_cuts")
            out["sizes"][crossings] = {
                "two_edge_cuts_ms": statistics.median(cuts[-2 * REPS:-REPS]),
                "menasco_certify_ms": statistics.median(
                    _span_ms(tracer, "classifier.menasco_certify")[-REPS:]),
            }
    finally:
        tracer.uninstall()

    counts = {"analyses": 0, "validity_reports": 0}
    _count_calls(hf.diagram._Analysis, "__init__", counts, "analyses")
    _count_calls(hf.diagram._Analysis, "report", counts, "validity_reports")
    extend_ms, verify_ms = [], []
    for _ in range(REPS):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            cert = chain_derivation(hf)
            extend_ms.append((time.perf_counter() - t0) * 1e3)
            fresh = hf.deserialize(hf.serialize(cert))
            counts.update(analyses=0, validity_reports=0)
            scans_before = len(_span_ms(tracer, "moves.find_chain_sites"))
            verdict = hf.verify(fresh)
            verify_ms.append(_span_ms(tracer, "certificate.verify")[-1])
            scans = len(_span_ms(tracer, "moves.find_chain_sites")) - scans_before
        finally:
            tracer.uninstall()
        assert verdict.valid
    out["chain_derivation_12"] = {
        "crossings": len(cert.subject.crossings),
        "extend_total_ms": statistics.median(extend_ms),
        "verify_ms": statistics.median(verify_ms),
        "verify_find_chain_sites_calls": scans,
        "verify_analyses_built": counts["analyses"],
        "verify_validity_reports": counts["validity_reports"],
    }

    workdir = ROOT / ".bench_out" / "reanchor"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rng = random.Random(7)
        import workloads

        bases = workloads._replay_bases(hf)
        files = []
        for i in range(8):
            cert = None
            while cert is None:  # None: the seeded derivation got stuck
                cert = workloads.derive(hf, rng, bases[i % 4], 8)
            path = workdir / f"cert-{i}.json"
            path.write_text(hf.serialize(cert), encoding="utf-8")
            files.append(str(path))
        jobs = {}
        for n in (1, 2):
            times = []
            for _ in range(REPS):
                t0 = time.perf_counter()
                code, text = cli.run(["verify", "--jobs", str(n), *files])
                times.append(time.perf_counter() - t0)
                assert code == 0 and text.count(": VALID") == 8
            jobs[f"jobs_{n}_s"] = statistics.median(times)
        out["verify_8_certificates"] = jobs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
