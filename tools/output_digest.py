"""Print SHA-256 digests over what the moves, the verifier and the
certifier give on the benchmark's seed 1-3 pools, with outcome counts.

Usage: python tools/output_digest.py [SRC]

SRC is the source directory whose hyperforge is digested (default: the
``src`` directory of this checkout), so the same tool digests another
checkout's code.  The pools are built by ``perfbench/workloads.py`` of
this checkout, which the tool only reads.  The digest covers, in order:

- the verdict of every document of the seed 1-3 replay_verify pools:
  ``valid``, ``failed_step``, ``reason``, ``step_reports`` and
  ``trusted_premises``, and for an honest one the subject after each of
  its steps, re-derived from its base by ``extend``: its PD text and loop
  count;
- the outcome of every subject of the seed 1-3 certify_bases pools;
- the stdout of one pass of each seed 1-3 cli_pipeline session
  (``workloads.session_digest``), which runs the CLI's ``verify`` too.

The ``chain steps`` line counts how the gate ruled on the chain steps of
the seed 1-3 replay_verify verdicts: rational admissible, machine-checked,
inherited, trusted, and refused (unchecked or excluded evidence).  It is
read off each verdict's ``step_reports`` and refusal ``reason``, so it
reads the same for any version of the code whose verdicts are the same.

A second digest line, ``distinct-subjects sha256``, digests the same records
but each distinct step subject only at its first occurrence: the documents
of one derivation after 2, 4 and 6 steps share their first subjects.

Every record is read at the public boundary (`deserialize`, `extend`,
`verify`, `format_pd`, the CLI), so two versions of the code that build
their diagrams differently digest alike, and two that print the same
digests gave byte-identical outputs on these pools.  The pools are the
benchmark's, so a change to the benchmark changes the digests too;
nothing is gated on them.
"""

import collections
import dataclasses
import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
# each chain-step outcome, and the text its step report holds
STEP_REPORTS = (
    ("rational admissible", ": rational exterior admissible (k="),
    ("machine-checked", ": non-rational exterior machine-checked "),
    ("inherited", ": admissibility inherited from an earlier chain step"),
    ("trusted", ": non-rational exterior (trusted)"),
)
# the refusals of the gate: unchecked evidence and an excluded exterior
GATE_REFUSALS = ("unchecked exterior evidence never validates", "excluded exterior: ")


def chain_step_outcomes(verdict):
    """The outcome of each chain step the gate ruled on in ``verdict``."""
    for line in verdict.step_reports:
        yield from (name for name, text in STEP_REPORTS if text in line)
    if verdict.reason.startswith(GATE_REFUSALS):
        yield "refused"


def digest(hf, workloads):
    """(outcome counts, chain-step outcome counts, hex digest, hex digest
    of distinct step subjects) of the pools of every seed."""
    h, distinct = hashlib.sha256(), hashlib.sha256()
    counts, steps = collections.Counter(), collections.Counter()
    subjects_seen = set()

    def record(kind, text):
        counts[kind] += 1
        line = f"{kind}\t{text}\n".encode()
        h.update(line)
        if kind == "step":
            if line in subjects_seen:
                return
            subjects_seen.add(line)
        distinct.update(line)

    with tempfile.TemporaryDirectory() as workdir:
        for seed in SEEDS:
            pool = workloads.replay_verify_build(hf, seed, workdir)
            for item in pool["items"]:
                cert = hf.deserialize(item["doc"])
                v = hf.verify(cert)
                steps.update(chain_step_outcomes(v))
                record("valid" if v.valid else "invalid",
                       repr((v.valid, v.failed_step, v.reason, v.step_reports,
                             v.trusted_premises)))
                if item["kind"] == "honest":
                    derived = dataclasses.replace(cert, subject=cert.base_diagram, steps=())
                    for step in cert.steps:
                        derived = hf.extend(derived, step)
                        record("step", f"{hf.format_pd(derived.subject)}loops "
                                       f"{derived.subject.loops}")
            pool = workloads.certify_bases_build(hf, seed, workdir)
            for item in itertools.chain.from_iterable(pool["rounds"]):
                verdict, doc = workloads.certify_bases_execute(pool, item)
                record(f"certify {verdict}", f"{item['pd']}{doc}")
            session = Path(workdir) / f"cli-{seed}"
            session.mkdir()
            record("cli session", workloads.session_digest(hf, seed, str(session)))
    return counts, steps, h.hexdigest(), distinct.hexdigest()


def main(argv):
    if len(argv) > 2:
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve() if len(argv) == 2 else ROOT / "src"
    if not (src / "hyperforge" / "__init__.py").is_file():
        print(f"error: no hyperforge sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import hyperforge as hf
    import hyperforge.cli  # noqa: F401  (the sessions run hf.cli.run)
    import workloads

    counts, steps, hexdigest, distinct = digest(hf, workloads)
    print(", ".join(f"{kind} {n}" for kind, n in sorted(counts.items())))
    outcomes = [name for name, _ in STEP_REPORTS] + ["refused"]
    print("chain steps: " + ", ".join(f"{name} {steps[name]}" for name in outcomes))
    print(f"sha256 {hexdigest}")
    print(f"distinct-subjects sha256 {distinct}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
