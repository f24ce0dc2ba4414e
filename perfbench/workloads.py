"""The three benchmark workloads: inputs from a seed, one timed operation per
item, and the check of each result against the known-answer table.

Each workload is a closed loop with one client: the next item starts only
when the previous one has returned.  Inputs are built in set-up from the
seed alone; the program only ever sees the generated inputs.

A workload exposes
  build(hf, seed, workdir) -> state      set-up (timed as part of setup_s)
  rounds(state) -> iterator of rounds    each round a list of items
  execute(state, item) -> outcome        the timed operation
  check(state, item, outcome) -> bool    known-answer check (not timed)
  stratum(item) -> key                   the item's class of size or kind;
                                         a traced run alternates traced and
                                         untraced items within each class
  key(item) -> key                       what recurs from round to round:
                                         the item itself, or for
                                         certify_bases (whose subjects are
                                         all distinct) its crossing count;
                                         run.py takes the median latency of
                                         each key over the run
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import known_answers as ka

# -- certify_bases -------------------------------------------------------------

# Crossing counts of one round.  p50 and p90 each fall inside a run of equal
# sizes (four 16s, three 64s) rather than on the edge between two sizes, so
# they do not jump when a run ends a few items earlier or later.
CERTIFY_ROUND_SIZES = (8, 9, 10, 11, 12, 13, 14, 16, 16, 16, 16, 20, 24, 28,
                       32, 40, 48, 64, 64, 64)
# Rounds made in set-up.  Every subject of a run is distinct, so a run can use
# at most this many rounds (about twice what 25 s takes at the seed commit).
CERTIFY_ROUNDS = 16
CERTIFY_FAMILIES = tuple(ka.CERTIFY_FAMILIES)


def _negative_twists(rng, n, total):
    """A twist vector of n entries <= 0 whose magnitudes sum to total."""
    twists = [0] * n
    for _ in range(total):
        twists[rng.randrange(n)] -= 1
    return tuple(twists)


def _alt_chain(hf, rng, c):
    """An alternating chain with c crossings: n >= 4 rings, twists <= 0."""
    n_max = c // 2
    if n_max < 4:
        return None
    n = rng.randint(max(4, n_max - 6), n_max)
    return hf.chain_link(hf.ChainSpec(n, _negative_twists(rng, n, c - 2 * n)))


def _rational_multi(rng, c):
    """2..5 entries of one sign, each |a| >= 2, summing to c, not a torus link."""
    for _ in range(50):
        length = rng.randint(2, min(5, c // 2))
        entries = [2] * length
        for _ in range(c - 2 * length):
            entries[rng.randrange(length)] += 1
        sign = rng.choice((1, -1))
        entries = [sign * a for a in entries]
        value = ka.continued_fraction(entries)
        if value is not None and not ka.is_torus_fraction(value):
            return entries
    return None


def _tk_exceptional(hf, rng, c):
    """tk_closure(s, k) whose shifted exterior fraction is excluded."""
    options = []
    if c - 6 >= 1:
        options.append(([0, 0], c - 6))                      # inf
    if (c - 6) % 2 == 0 and c >= 8:
        k = (c - 6) // 2
        options.append(([-k], k))                           # -k
    if (c - 7) % 2 == 0 and c >= 9:
        k = (c - 7) // 2
        options.append(([-(k + 1)], k))                     # -(k+1)
    if (c - 8) % 2 == 0 and c >= 10:
        k = (c - 8) // 2
        options.append(([-2, -k], k))                       # -k - 1/2
    s, k = rng.choice(options)
    return hf.tk_closure(s, k)


def _make_certify_subject(hf, rng, family, c):
    """A diagram of `family` with c crossings, or None if the family cannot."""
    if family == "alternating_chain":
        return _alt_chain(hf, rng, c)
    if family == "nonalternating_chain":
        if c % 2:
            return None
        return hf.chain_link(hf.ChainSpec(c // 2, alternating=False))
    if family == "gap_twisted_chain":
        n = rng.randint(max(3, c // 2 - 6), c // 2 - 1)
        twists = [0] * n
        for _ in range(c - 2 * n):
            twists[rng.randrange(n)] += 1
        return hf.chain_link(hf.ChainSpec(n, tuple(twists)))
    if family == "rational_one_entry":
        return hf.rational_link([rng.choice((1, -1)) * c])
    if family == "rational_multi_entry":
        entries = _rational_multi(rng, c)
        return hf.rational_link(entries) if entries else None
    if family == "tk_exceptional":
        return _tk_exceptional(hf, rng, c)
    if family == "kinked_chain":
        base = _alt_chain(hf, rng, c - 1) if c - 1 >= 8 else hf.chain_link(hf.ChainSpec(3))
        if len(base.crossings) != c - 1:
            return None
        arc = rng.choice(base.arcs)
        return hf.reidemeister1(base, arc, rng.choice((1, -1)))
    if family == "r2_pushed_chain":
        base = _alt_chain(hf, rng, c - 2) if c - 2 >= 8 else hf.chain_link(hf.ChainSpec(3))
        if len(base.crossings) != c - 2:
            return None
        face = rng.choice([f for f in base.face_arcs() if len(set(f)) >= 2])
        a, b = rng.sample(sorted(set(face)), 2)
        return hf.reidemeister2(base, (a, b), rng.choice(("first_over", "second_over")))
    raise ValueError(family)


def certify_bases_build(hf, seed, workdir):
    rng = random.Random(seed)
    seen: set[str] = set()
    rounds = []
    for r in range(CERTIFY_ROUNDS):
        items = []
        for i, c in enumerate(CERTIFY_ROUND_SIZES):
            # The family of each slot depends on the round and the slot, not
            # on the seed, so every seed gets the same mix of families and
            # sizes; the seed draws the twists, rings and sites.  A family
            # that has no new subject of this size yields to the next one.
            start = (3 * i + r) % len(CERTIFY_FAMILIES)
            families = CERTIFY_FAMILIES[start:] + CERTIFY_FAMILIES[:start]
            for family in families:
                d = None
                for _attempt in range(4):
                    d = _make_certify_subject(hf, rng, family, c)
                    if d is not None and hf.format_pd(d) not in seen:
                        break
                    d = None
                if d is not None:
                    break
            text = hf.format_pd(d)
            seen.add(text)
            items.append({"family": family, "crossings": c, "pd": text})
        rng.shuffle(items)
        rounds.append(items)
    return {"hf": hf, "rounds": rounds}


def certify_bases_rounds(state):
    yield from state["rounds"]


def certify_bases_execute(state, item):
    hf = state["hf"]
    d = hf.parse_pd(item["pd"])
    result = hf.menasco_certify(d)
    if isinstance(result, hf.classifier.Refusal):
        return result.reason.value, None
    return ka.ACCEPT, hf.serialize(result)


def certify_bases_stratum(item):
    return item["crossings"]


def certify_bases_check(state, item, outcome):
    verdict, doc = outcome
    expected = ka.CERTIFY_FAMILIES[item["family"]][0]
    if expected == ka.ACCEPT:
        if verdict != ka.ACCEPT:
            return False
        parsed = json.loads(doc)
        return parsed["base"] == "MenascoAlternating" and parsed["subject"]["pd"] == item["pd"]
    if expected == ka.REFUSED:
        return verdict != ka.ACCEPT
    return verdict == expected


# -- derivations (replay_verify, and the certificate files of cli_pipeline) ----

# Share of each step kind in a derivation; the kinds are shuffled per
# derivation, so the plan changes their order but not the mix.
STEP_SHARES = (("aug", 0.2), ("half", 0.2), ("switch", 0.2))
EVIDENCE_TEXT = "exterior declared non-rational"


def _kind_bag(rng, length):
    bag = []
    for kind, share in STEP_SHARES:
        bag += [kind] * round(share * length)
    bag += ["chain"] * (length - len(bag))
    rng.shuffle(bag)
    return bag


def _pick_step(hf, rng, d, kind, k):
    cert_mod = hf.certificate
    if kind in ("chain", "aug", "half"):
        sites = hf.find_chain_sites(d)
        if not sites:
            return None
        site = rng.choice(sites)
        if kind == "half":
            return cert_mod.HalfTwistStep(site.trivial_component, rng.choice((1, -1)))
        if rng.random() < 0.5:
            evidence = hf.classifier.DeclaredNonRational(EVIDENCE_TEXT)
        else:
            # |k| + 2 is never -k, -(k+1), -k-1/2 or inf: admissible
            evidence = hf.classifier.Rational((abs(k) + 2,))
        cls = cert_mod.ChainStep if kind == "chain" else cert_mod.AugChainStep
        return cls(site.trivial_component, (site.strand1, site.strand2), k, evidence)
    part = hf.components(d)
    pairs = set()
    for arcs in d.face_arcs():
        uniq = sorted(set(arcs))
        for i, a in enumerate(uniq):
            for b in uniq[i + 1:]:
                if part.component_of(a) != part.component_of(b):
                    pairs.add((a, b))
    if not pairs:
        return None
    g, g2 = rng.choice(sorted(pairs))
    return cert_mod.SwitchStep(
        g, g2, rng.choice(list(hf.Handedness)),
        cert_mod.Premise("GeodesicArc", "assumed: the arc is a geodesic"),
    )


def derive(hf, rng, base, length, emit_at=(), plan=None):
    """Certificates of a `length`-step mixed derivation from base: the final
    one, and one after each step count in `emit_at`; None if stuck.

    `plan` (by default `rng`) orders the step kinds and the twist counts k;
    `rng` draws the sites, the evidence and the switch arcs."""
    plan = plan or rng
    cert = hf.menasco_certify(base)
    bag = _kind_bag(plan, length)
    ks = [(-2, -1, 0, 1, 2)[i % 5] for i in range(length)]
    plan.shuffle(ks)
    emitted = []
    while bag:
        for i, kind in enumerate(bag):
            step = _pick_step(hf, rng, cert.subject, kind, ks[len(cert.steps)])
            if step is None:
                continue
            try:
                cert = hf.extend(cert, step)
            except hf.HyperforgeError:
                continue
            del bag[i]
            break
        else:
            return None
        if len(cert.steps) in emit_at:
            emitted.append(cert)
    return emitted if emit_at else cert


def _replay_bases(hf):
    """Accepted bases of at most 12 crossings: chains of 3..6 rings and
    two-component rational links that are not torus links."""
    bases = [hf.chain_link(hf.ChainSpec(n)) for n in (3, 4, 5, 6)]
    for entries in ([2, 2, 2], [3, 3], [2, 3, 2], [3, 2, 3], [4, 4, 2], [2, 2, 2, 2, 2]):
        value = ka.continued_fraction(entries)
        assert value.numerator % 2 == 0 and not ka.is_torus_fraction(value)
        bases.append(hf.rational_link(entries))
    return bases


def make_documents(hf, rng, paths, tampered):
    """Honest derivation documents, plus `tampered` tampered copies of
    4..8-step ones: a list of (doc text, kind, expected failed step).

    `paths` lists (steps, prefixes): one derivation of that many steps per
    entry, with a document for each prefix length in `prefixes`.  The base
    and the plan (see derive) of the n-th derivation, and the kinds and step
    counts of the tampered copies, do not depend on the seed, so every seed
    gets the same mix; the seed draws the sites and which documents are
    tampered.  Move costs vary a lot with the sites, and a mix left to the
    seed as well made the pool's median time differ by a fifth between seeds.
    """
    # A base without a chain site ([3, 3], [3, 2, 3], [4, 4, 2], [2, 2, 2, 2, 2])
    # gets stuck unless a switch happens to come first, and retrying those
    # took about half of the set-up time; derivations start from the others.
    bases = [b for b in _replay_bases(hf) if hf.find_chain_sites(b)]
    honest = []
    for n, (length, prefixes) in enumerate(paths):
        plan = random.Random(n)
        certs = None
        while certs is None:
            certs = derive(hf, rng, bases[n % len(bases)], length, frozenset(prefixes), plan)
        honest += [(hf.serialize(c), "honest", None) for c in certs]
    docs = list(honest)
    # tamper copies of mid-length documents, so the long tail stays honest;
    # the copies take turns over the step counts, two (one of each kind) at
    # a time
    by_steps = {}
    for h in honest:
        steps = json.loads(h[0])["steps"]
        if 4 <= len(steps) <= 8 and any(s["kind"] in ("ChainStep", "AugChainStep")
                                        for s in steps):
            by_steps.setdefault(len(steps), []).append(h)
    sizes = sorted(by_steps)
    for j in range(tampered):
        pool = by_steps[sizes[(j // 2) % len(sizes)]]
        text = pool.pop(rng.randrange(len(pool)))[0]
        obj = json.loads(text)
        if j % 2 == 0:
            chain_at = [i for i, s in enumerate(obj["steps"])
                        if s["kind"] in ("ChainStep", "AugChainStep")]
            i = rng.choice(chain_at)
            obj["steps"][i]["evidence"] = {"kind": "Rational",
                                           "sequence": [-obj["steps"][i]["k"]]}
            docs.append((json.dumps(obj, sort_keys=True, indent=2) + "\n",
                         "excluded_exterior", i))
        else:
            own = len(hf.parse_pd(obj["subject"]["pd"]).crossings)
            other = next(json.loads(h[0])["subject"]["pd"] for h in honest
                         if len(hf.parse_pd(json.loads(h[0])["subject"]["pd"]).crossings) != own)
            obj["subject"]["pd"] = other
            docs.append((json.dumps(obj, sort_keys=True, indent=2) + "\n",
                         "swapped_subject", len(obj["steps"])))
    return docs


# -- replay_verify -------------------------------------------------------------

# Move costs are heavy-tailed (a splice may try up to 48 wirings), so one
# derivation's replay time varies by a factor of two or more with the
# sites the seed picks.  The pool therefore holds many short independent
# derivations, so the percentiles average over many of them: eighty 6-step
# derivations give a document after steps 2, 4 and 6, and one 32-step
# derivation gives the long tail at 16, 24 and 32 steps.  A quarter of the
# pool (81 documents) are tampered copies, known to be INVALID.  With forty
# derivations, p50 differed by a fifth between seeds.
REPLAY_PATHS = ((6, (2, 4, 6)),) * 80 + ((32, (16, 24, 32)),)
REPLAY_TAMPERED = 81


def replay_verify_build(hf, seed, workdir):
    rng = random.Random(seed)
    docs = make_documents(hf, rng, REPLAY_PATHS, REPLAY_TAMPERED)
    rng.shuffle(docs)
    items = [{"index": i, "doc": text, "kind": kind, "failed_step": step,
              "steps": len(json.loads(text)["steps"])}
             for i, (text, kind, step) in enumerate(docs)]
    return {"hf": hf, "items": items}


def replay_verify_rounds(state):
    while True:
        yield state["items"]


def replay_verify_execute(state, item):
    hf = state["hf"]
    verdict = hf.verify(hf.deserialize(item["doc"]))
    return verdict.valid, verdict.failed_step


def replay_verify_stratum(item):
    return item["kind"], item["steps"]


def replay_verify_key(item):
    return item["index"]


def replay_verify_check(state, item, outcome):
    valid, failed_step = outcome
    if item["kind"] == "honest":
        return valid and failed_step is None
    return not valid and failed_step == item["failed_step"]


# -- cli_pipeline --------------------------------------------------------------

CLI_SIZES = (8, 10, 12, 14, 16, 18, 20, 24)
# Command groups of one session and how many of each; the seed shuffles
# their order and draws their inputs, so every session has the same mix.
# About 20% of the commands get malformed or refusable input.
CLI_GROUPS = (
    ("gen", 36), ("validate", 24), ("convert", 18), ("apply", 42),
    ("certify_verify", 30), ("verify_jobs", 6), ("pipeline", 9), ("fraction", 15),
    ("malformed_doc", 15), ("mixed_sign_seq", 6), ("excluded_classify", 9),
    ("excluded_apply", 6), ("refused_certify", 12),
)
CLI_JOB_FILES = 4


def _pd_crossings(text):
    return text.count("X(")


def _fraction_text(value):
    if value is None:
        return "inf"
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _cli_item(cls, argv, stdin="", *, check):
    """A command of class `cls`; its exit code comes from the known answers."""
    return {"cls": cls, "argv": argv, "stdin": stdin, "code": ka.CLI_CLASSES[cls][0],
            "check": check}


def _valid_summary(n):
    # a connected 4-valent plane graph has E = 2V and, by Euler, F = V + 2
    return lambda out: out == f"valid (V={n} E={2 * n} F={n + 2} c=1)\n"


def _has_crossings(n):
    return lambda out: _pd_crossings(out) == n and out.endswith(")\n")


class _Session:
    """Builds one seeded command session and the files it refers to."""

    def __init__(self, hf, rng, workdir):
        self.hf, self.rng, self.workdir = hf, rng, workdir
        self.items = []
        self._turns = {}
        # (family, diagram) pools, one bucket per size of CLI_SIZES
        self.accept_pool, self.refuse_pool, self.any_pool = [], [], []
        for c in CLI_SIZES:
            accept, refuse = [], []
            for family in CERTIFY_FAMILIES:
                d = _make_certify_subject(hf, rng, family, c)
                if d is None:
                    continue
                verdict = ka.CERTIFY_FAMILIES[family][0]
                (accept if verdict == ka.ACCEPT else refuse).append((family, d))
            self.accept_pool.append(accept)
            self.refuse_pool.append(refuse)
            self.any_pool.append(accept + refuse)
        # plain chains: every ring is a chain site (a ring carrying gap
        # twists crosses itself and is not)
        self.chain_pool = [[hf.chain_link(hf.ChainSpec(n))] for n in range(4, 13)]
        self._job_sets = self._write_job_files()
        self._scripts = self._write_scripts()

    def _write_job_files(self):
        hf, rng = self.hf, self.rng
        # one 4-step document per derivation, and no document in two sets: a
        # move's cost varies a lot with the site the seed picks, and 24
        # independent derivations keep the session's verify --jobs time from
        # hanging on one or two of them
        docs = make_documents(hf, rng, ((4, (4,)),) * (6 * CLI_JOB_FILES), 3)
        honest = [d for d in docs if d[1] == "honest"]
        bad = [d for d in docs if d[1] != "honest"]
        sets = []
        for j in range(6):
            chosen = honest[j * CLI_JOB_FILES:(j + 1) * CLI_JOB_FILES]
            expect_bad = None
            if j % 2:
                slot = rng.randrange(CLI_JOB_FILES)
                chosen[slot] = bad[j // 2]
                expect_bad = (slot, bad[j // 2][2])
            paths = []
            for i, (text, _, _) in enumerate(chosen):
                path = os.path.join(self.workdir, f"cert-{j}-{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                paths.append(path)
            sets.append((paths, expect_bad))
        return sets

    def _write_scripts(self):
        scripts = []
        for j in range(3):
            n = self.rng.randint(4, 8)
            lines = [f"a = gen chain --n {n}"]
            if j == 0:
                lines += ["c = certify --base menasco @a", "verify @c"]
            elif j == 1:
                lines += ["validate @a", "g = convert --to gauss @a", "convert --to pd @g"]
            else:
                lines += ["fraction --seq 3", "classify-exterior --fraction 2 --k 1",
                          "c = certify --base menasco @a", "verify @c"]
            path = os.path.join(self.workdir, f"script-{j}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            scripts.append((path, len(lines)))
        return scripts

    def pick(self, name, buckets):
        """Cycle through `buckets` per group name and take an entry of one
        by a draw that depends on the name and the turn, not on the seed,
        so each session has the same mix of sizes and families whatever
        the seed; the seed only makes the diagrams in the buckets."""
        turn = self._turns.get(name, 0)
        self._turns[name] = turn + 1
        bucket = buckets[turn % len(buckets)]
        return bucket[random.Random(f"{name}/{turn}").randrange(len(bucket))]

    def add(self, item):
        self.items.append(item)
        return len(self.items) - 1

    def group(self, name):
        hf, rng = self.hf, self.rng
        if name == "gen":
            kind = self.pick("gen_kind", [["chain"], ["rational"], ["tk"]])
            if kind == "chain":
                n = rng.randint(4, 10)
                tw = _negative_twists(rng, n, rng.randint(0, 4))
                argv = ["gen", "chain", "--n", str(n), "--twists", ",".join(map(str, tw))]
                expect = 2 * n + sum(abs(t) for t in tw)
            elif kind == "rational":
                entries = [rng.randint(2, 5) for _ in range(rng.randint(1, 5))]
                argv = ["gen", "rational", "--seq", " ".join(map(str, entries))]
                expect = sum(entries)
            else:
                s = [-rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
                k = rng.randint(-3, 3)
                argv = ["gen", "tk", "--seq", " ".join(map(str, s)), "--k", str(k)]
                expect = 6 + abs(k) + sum(abs(a) for a in s)
            self.add(_cli_item("gen", argv, check=_has_crossings(expect)))
        elif name == "validate":
            _, d = self.pick(name, self.any_pool)
            n = len(d.crossings)
            self.add(_cli_item("validate", ["validate"], hf.format_pd(d), check=_valid_summary(n)))
        elif name == "convert":
            _, d = self.pick(name, self.any_pool)
            n = len(d.crossings)
            first = self.add(_cli_item(
                "convert", ["convert", "--to", "gauss"], hf.format_pd(d),
                check=lambda out: out.count("\n") >= 1 and "X(" not in out))
            self.add(_cli_item("convert", ["convert", "--to", "pd"], ("from", first),
                               check=_has_crossings(n)))
        elif name == "apply":
            self._apply_group()
        elif name == "certify_verify":
            family, d = self.pick(name, self.accept_pool)
            first = self.add(_cli_item(
                "certify", ["certify", "--base", "menasco"], hf.format_pd(d),
                check=lambda out: json.loads(out)["base"] == "MenascoAlternating"))
            self.add(_cli_item("verify", ["verify"], ("from", first),
                               check=lambda out: out == "certificate 0: VALID\n"))
        elif name == "verify_jobs":
            paths, bad = self.pick(name, [[s] for s in self._job_sets])
            argv = ["verify", "--jobs", "2", *paths]
            if bad is None:
                want = "".join(f"certificate {i}: VALID\n" for i in range(len(paths)))
                self.add(_cli_item("verify_jobs", argv,
                                   check=lambda out, want=want: _strip_trusted(out) == want))
            else:
                slot, step = bad
                line = f"certificate {slot}: INVALID at step {step}:"
                self.add(_cli_item(
                    "verify_jobs_tampered", argv,
                    check=lambda out, line=line: line in out
                    and out.endswith("REFUSED: certificate-invalid\n")
                    and out.count(": VALID") == CLI_JOB_FILES - 1))
        elif name == "pipeline":
            path, n_lines = self.pick(name, [[s] for s in self._scripts])
            self.add(_cli_item("pipeline", ["pipeline", path],
                               check=lambda out, n=n_lines: out.count("[exit 0]") == n))
        elif name == "fraction":
            entries = [rng.randint(0, 6) for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.5:
                entries = [-a for a in entries]
            want = _fraction_text(ka.continued_fraction(entries)) + "\n"
            self.add(_cli_item("fraction", ["fraction", "--seq", " ".join(map(str, entries))],
                               check=lambda out, want=want: out == want))
        elif name == "malformed_doc":
            _, d = self.pick(name, self.any_pool)
            text = hf.format_pd(d)
            style = rng.randrange(3)
            if style == 0:   # one arc label made unique: it occurs once
                text = text.replace("X(", "X(9", 1)
            elif style == 1:  # cut off inside a crossing token
                text = text[: text.index(",", len(text) // 2)]
            else:             # junk with a letter outside any token
                text = "".join(rng.choice("XO(),0123456789abc \n") for _ in range(30)) + " a"
            cmd = rng.choice((["validate"], ["certify", "--base", "menasco"]))
            self.add(_cli_item("malformed_doc", cmd, text,
                               check=lambda out: out.startswith("ERROR:") or "valid (" not in out))
        elif name == "mixed_sign_seq":
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            self.add(_cli_item("mixed_sign_seq", ["gen", "rational", "--seq", f"{a} -{b}"],
                               check=lambda out: out.startswith("ERROR:")))
        elif name == "excluded_classify":
            k = rng.randint(0, 5)
            frac, kind = rng.choice(((f"{-k}", "MinusK"), (f"{-(k + 1)}", "MinusKPlus1"),
                                     (f"{-(2 * k + 1)}/2", "MinusTwoMinusK"),
                                     ("1/0", "Infinity")))
            self.add(_cli_item("excluded_classify",
                               ["classify-exterior", "--fraction", frac, "--k", str(k)],
                               check=lambda out, kind=kind: out == f"EXCLUDED: {kind}\n"))
        elif name == "excluded_apply":
            d = self.pick(name, self.chain_pool)
            site = rng.choice(hf.find_chain_sites(d))
            k = rng.randint(0, 3)
            argv = ["apply", "--move", "chain", "--component", str(site.trivial_component),
                    "--strands", f"{site.strand1},{site.strand2}", "--k", str(k),
                    "--evidence", f"rational:{-k}"]
            self.add(_cli_item("excluded_apply", argv, hf.format_pd(d),
                               check=lambda out: out == "REFUSED: excluded-exterior MinusK\n"))
        elif name == "refused_certify":
            family, d = self.pick(name, self.refuse_pool)
            want = ka.CERTIFY_FAMILIES[family][0]
            self.add(_cli_item(
                "refused_certify", ["certify", "--base", "menasco"], hf.format_pd(d),
                check=lambda out, want=want: out.startswith("REFUSED: ")
                and (want == ka.REFUSED or out.split()[1] == want)))
        else:
            raise ValueError(name)

    def _apply_group(self):
        hf, rng = self.hf, self.rng
        d = self.pick("apply", self.chain_pool)
        n = len(d.crossings)
        text = hf.format_pd(d)
        move = self.pick("apply_move", [["chain"], ["halftwist"], ["switch"], ["r1"], ["r2"]])
        if move in ("chain", "halftwist"):
            site = rng.choice(hf.find_chain_sites(d))
            if move == "chain":
                k = rng.randint(-2, 2)
                evidence = rng.choice(("nonrational:declared", f"rational:{abs(k) + 2}"))
                argv = ["apply", "--move", "chain", "--component", str(site.trivial_component),
                        "--strands", f"{site.strand1},{site.strand2}", "--k", str(k),
                        "--evidence", evidence]
                expect = n + 2 + abs(k)
            else:
                argv = ["apply", "--move", "halftwist", "--component",
                        str(site.trivial_component), "--direction", str(rng.choice((1, -1)))]
                expect = n + 1
        elif move == "switch":
            part = hf.components(d)
            pairs = sorted({(a, b) for face in d.face_arcs() for a in face for b in face
                            if a < b and part.component_of(a) != part.component_of(b)})
            a, b = rng.choice(pairs)
            skew = rng.choice(("pos", "neg"))
            argv = ["apply", "--move", "switch", "--arcs", f"{a},{b}", "--skew", skew]
            expect = n + (5 if skew == "pos" else 4)
        elif move == "r1":
            argv = ["apply", "--move", "r1", "--arc", str(rng.choice(d.arcs)),
                    "--handedness", str(rng.choice((1, -1)))]
            expect = n + 1
        else:
            face = rng.choice(d.face_arcs())
            a, b = rng.sample(sorted(set(face)), 2)
            argv = ["apply", "--move", "r2", "--arcs", f"{a},{b}"]
            expect = n + 2
        self.add(_cli_item("apply", argv, text, check=_has_crossings(expect)))


def _strip_trusted(out):
    return "".join(line + "\n" for line in out.splitlines() if not line.startswith("  trusted:"))


def build_session(hf, seed, workdir):
    rng = random.Random(seed)
    session = _Session(hf, rng, workdir)
    groups = [name for name, count in CLI_GROUPS for _ in range(count)]
    rng.shuffle(groups)
    for name in groups:
        session.group(name)
    return session.items


def cli_pipeline_build(hf, seed, workdir):
    os.makedirs(workdir, exist_ok=True)
    return {"hf": hf, "items": build_session(hf, seed, workdir), "digests": {}}


def cli_pipeline_rounds(state):
    while True:
        state["outputs"] = {}
        yield list(enumerate(state["items"]))


def cli_pipeline_execute(state, item):
    index, spec = item
    stdin = spec["stdin"]
    if isinstance(stdin, tuple):
        stdin = state["outputs"][stdin[1]]
    code, out = state["hf"].cli.run(spec["argv"], stdin)
    state["outputs"][index] = out
    return code, out


def cli_pipeline_stratum(item):
    return item[1]["cls"]


def cli_pipeline_key(item):
    return item[0]


def cli_pipeline_check(state, item, outcome):
    index, spec = item
    code, out = outcome
    digest = hashlib.sha256(out.encode()).hexdigest()
    if state["digests"].setdefault(index, digest) != digest:
        return False  # the same command line printed other bytes than before
    if code != spec["code"]:
        return False
    try:
        return bool(spec["check"](out))
    except (ValueError, KeyError, IndexError):
        return False


def session_digest(hf, seed, workdir):
    """SHA-256 over the stdout of one pass of the session of `seed`."""
    state = cli_pipeline_build(hf, seed, workdir)
    h = hashlib.sha256()
    for item in next(cli_pipeline_rounds(state)):
        code, out = cli_pipeline_execute(state, item)
        h.update(f"{code}\n{out}".encode())
    return h.hexdigest()


WORKLOADS = {
    "certify_bases": (certify_bases_build, certify_bases_rounds, certify_bases_execute,
                      certify_bases_check, certify_bases_stratum, certify_bases_stratum),
    "replay_verify": (replay_verify_build, replay_verify_rounds, replay_verify_execute,
                      replay_verify_check, replay_verify_stratum, replay_verify_key),
    "cli_pipeline": (cli_pipeline_build, cli_pipeline_rounds, cli_pipeline_execute,
                     cli_pipeline_check, cli_pipeline_stratum, cli_pipeline_key),
}
