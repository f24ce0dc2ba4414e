"""Print SHA-256 digests over what the builder, the verifier and the
certifier give on the benchmark's seed 1-3 pools, with a count of each outcome.

Usage: python tools/output_digest.py [SRC]

SRC is the source directory whose hyperforge is digested (default: the
``src`` directory of this checkout), so the same tool digests another
checkout's code.  The pools are built by ``perfbench/workloads.py`` of
this checkout, which the tool only reads.  The digest covers, in order:

- every ``DiagramBuilder.build`` output made while the pools are built
  and run: its PD text and loop count, or the error's type and text;
- the verdict of every document of the seed 1-3 replay_verify pools:
  ``valid``, ``failed_step``, ``reason``, ``step_reports`` and
  ``trusted_premises``;
- the outcome of every subject of the seed 1-3 certify_bases pools;
- the stdout of one pass of each seed 1-3 cli_pipeline session
  (``workloads.session_digest``), which runs the CLI's ``verify`` too.

A second line, ``distinct-builds sha256``, digests the same records but
each distinct build record only at its first occurrence.  A change that
only skips repeated work, such as a memo that certifies a repeated base
once, builds some outputs fewer times: the first line changes, and the
second does not as long as every output, verdict and session is the same.

Two versions of the code that print the same digests gave byte-identical
outputs on these pools.  The pools are the benchmark's, so a change to
the benchmark changes the digests too; nothing is gated on them.
"""

import collections
import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def digest(hf, workloads):
    """(outcome counts, hex digest, hex digest of distinct builds) of the
    pools of every seed."""
    h, distinct = hashlib.sha256(), hashlib.sha256()
    counts = collections.Counter()
    builds_seen = set()

    def record(kind, text):
        counts[kind] += 1
        line = f"{kind}\t{text}\n".encode()
        h.update(line)
        if kind.startswith("build"):
            if line in builds_seen:
                return
            builds_seen.add(line)
        distinct.update(line)

    cls = hf.diagram.DiagramBuilder
    build = cls.build

    def recorded(self, *args, **kwargs):
        try:
            out = build(self, *args, **kwargs)
        except Exception as err:
            record("build error", f"{type(err).__name__}: {err}")
            raise
        record("build", f"{hf.format_pd(out)}loops {out.loops}")
        return out

    cls.build = recorded
    try:
        with tempfile.TemporaryDirectory() as workdir:
            for seed in SEEDS:
                pool = workloads.replay_verify_build(hf, seed, workdir)
                for item in pool["items"]:
                    v = hf.verify(hf.deserialize(item["doc"]))
                    record("valid" if v.valid else "invalid",
                           repr((v.valid, v.failed_step, v.reason, v.step_reports,
                                 v.trusted_premises)))
                pool = workloads.certify_bases_build(hf, seed, workdir)
                for item in itertools.chain.from_iterable(pool["rounds"]):
                    verdict, doc = workloads.certify_bases_execute(pool, item)
                    record(f"certify {verdict}", f"{item['pd']}{doc}")
                session = Path(workdir) / f"cli-{seed}"
                session.mkdir()
                record("cli session", workloads.session_digest(hf, seed, str(session)))
    finally:
        cls.build = build
    return counts, h.hexdigest(), distinct.hexdigest()


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

    counts, hexdigest, distinct = digest(hf, workloads)
    print(", ".join(f"{kind} {n}" for kind, n in sorted(counts.items())))
    print(f"sha256 {hexdigest}")
    print(f"distinct-builds sha256 {distinct}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
