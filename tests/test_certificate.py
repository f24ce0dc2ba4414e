"""Certificates: extend, verify (replay), glue, and serialization."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import hyperforge
from hyperforge.certificate import (
    AbstractManifold,
    AugChainStep,
    Certificate,
    ChainStep,
    GlueStep,
    HalfTwistStep,
    Premise,
    SwitchStep,
    Verdict,
    canonical_json,
    deserialize,
    extend,
    glue,
    serialize,
    verify,
)
from hyperforge.classifier import (
    DeclaredNonRational,
    ExceptionKind,
    Rational,
    Unchecked,
    menasco_certify,
)
from hyperforge.diagram import Crossing, LinkDiagram, components, diagram_isomorphic
from hyperforge.errors import (
    CertificateError,
    ExcludedExteriorError,
    FormatError,
    GlueError,
    HyperforgeError,
    InvalidDiagramError,
    PremiseError,
    SiteError,
)
from hyperforge.generators import ChainSpec, chain_link, rational_link
from hyperforge.moves import Handedness, admit, chain_move, chain_site, find_chain_sites
from hyperforge.tangle import ConwaySequence

from memos import forget_memos
from oracles import replay_oracle, verify_oracle


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def chain_cert():
    d4 = chain_link(ChainSpec(4))
    return menasco_certify(d4), d4


def first_chain_step(d, k=0, evidence=None):
    site = find_chain_sites(d)[0]
    return ChainStep(
        site.trivial_component,
        (site.strand1, site.strand2),
        k,
        evidence if evidence is not None else DeclaredNonRational("chain exterior"),
    )


def test_extend_chain_step():
    cert, d4 = chain_cert()
    c5 = extend(cert, first_chain_step(d4))
    assert components(c5.subject).count == 5
    assert len(c5.steps) == 1
    v = verify(c5)
    assert v.valid and not v.trusted_premises  # machine-checked non-rationality


def test_extend_then_verify_agree_over_pipeline():
    cert, d4 = chain_cert()
    cur = cert
    for k in (0, 2, -1):
        cur = extend(cur, first_chain_step(cur.subject, k))
    assert components(cur.subject).count == 7
    assert verify(cur).valid


def test_verify_looks_each_chain_site_up_once():
    """verify looks the site of a chain step up once, with declared or
    rational evidence and for a plain or an augmented chain move: the move
    uses the site it is handed."""
    import hyperforge.certificate as certificate
    import hyperforge.moves as moves

    cert, _ = chain_cert()
    plan = [
        (ChainStep, 0, DeclaredNonRational("declared")),
        (ChainStep, 0, Rational(ConwaySequence((2,)))),
        (AugChainStep, 1, DeclaredNonRational("declared")),
        (ChainStep, -1, DeclaredNonRational("declared")),
    ]
    for kind, k, evidence in plan:
        site = find_chain_sites(cert.subject)[0]
        cert = extend(cert, kind(site.trivial_component, (site.strand1, site.strand2), k,
                                 evidence))
    calls = []
    real = moves.chain_site

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    with mock.patch.object(moves, "chain_site", counted), \
            mock.patch.object(certificate, "chain_site", counted):
        assert verify(cert).valid
    assert calls == [(s.trivial_component, s.strands) for s in cert.steps]


def test_verify_gates_each_chain_step_once():
    """verify rules on each chain step through `moves.admit` and replays it
    past the move's gate: a 3-chain-step certificate on the 4-chain asks
    the gate 3 times, where asking the move's gate again made 6, and the
    verdict is the one `verify_oracle` gives.  `extend` still gates."""
    import hyperforge.moves as moves

    cert, _ = chain_cert()
    for kind, k, evidence in ((ChainStep, 0, DeclaredNonRational("declared")),
                              (AugChainStep, 1, Rational(ConwaySequence((2,)))),
                              (ChainStep, -1, DeclaredNonRational("declared"))):
        site = find_chain_sites(cert.subject)[0]
        cert = extend(cert, kind(site.trivial_component, (site.strand1, site.strand2), k,
                                 evidence))
    calls = []
    real = moves.admit

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    with mock.patch.object(moves, "admit", counted):
        verdict = verify(cert)
        assert calls == [0, 1, -1]
        assert verdict.valid and verdict == verify_oracle(cert)
        del calls[:]
        extend(cert, first_chain_step(cert.subject))
    assert calls == [0]


@pytest.mark.parametrize("kind", [ChainStep, AugChainStep])
def test_extend_scans_a_chain_site_once(kind):
    """`extend` looks a chain step's site up once: the move's gate hands
    the site it found to the splice, where looking it up again before the
    move scanned the component twice."""
    import hyperforge.moves as moves

    cert, d4 = chain_cert()
    step = first_chain_step(d4)
    calls = []
    real = moves._sites_at

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    with mock.patch.object(moves, "_sites_at", counted):
        extend(cert, kind(step.trivial_component, step.strands, step.k, step.evidence))
    assert calls == [step.trivial_component]


def test_extend_excluded_evidence():
    cert, d4 = chain_cert()
    with pytest.raises(ExcludedExteriorError) as err:
        extend(cert, first_chain_step(d4, 2, Rational(ConwaySequence((-2, -2)))))
    assert err.value.kind.name == "MinusTwoMinusK"


def test_extend_admissible_rational_evidence():
    cert, d4 = chain_cert()
    # the declared exterior is rational and admissible; the move runs and
    # the verifier records the admissibility check
    c5 = extend(cert, first_chain_step(d4, 0, Rational(ConwaySequence((1,)))))
    v = verify(c5)
    assert v.valid


def test_switch_step_needs_premise():
    cert, d4 = chain_cert()
    with pytest.raises(PremiseError):
        extend(cert, SwitchStep(1, 2, Handedness.NegativeSkew, None))


_BASE_REPORT = "base: MenascoAlternating accepted"
_MATCHED = "final diagram matches the subject"


def _first_site_step(subject, k, evidence, **changes):
    """A chain step at ``subject``'s first chain site, with ``changes``."""
    return replace(first_chain_step(subject, k, evidence), **changes)


def _gate_case(base, *steps, extended=True):
    """A certificate over ``base`` whose steps are made by ``steps``, each a
    function of the subject so far; the steps are extended onto the
    subject, or only recorded when ``extended`` is false."""
    cert = menasco_certify(base)
    for make in steps:
        step = make(cert.subject)
        cert = extend(cert, step) if extended else replace(cert, steps=cert.steps + (step,))
    return cert


_EXCLUDED = [  # (k, declared sequence, the exception kind it falls in)
    (0, (0, 0), ExceptionKind.Infinity),
    (1, (-1,), ExceptionKind.MinusK),
    (1, (-2,), ExceptionKind.MinusKPlus1),
    (2, (-2, -2), ExceptionKind.MinusTwoMinusK),
]
_GATE_CASES = {
    "rational-admissible": (
        lambda: _gate_case(chain_link(ChainSpec(4)),
                           lambda d: _first_site_step(d, 0, Rational((1,)))),
        Verdict(True, None, "", (_BASE_REPORT, "step 0: rational exterior admissible (k=0)",
                                 _MATCHED), ()),
    ),
    **{
        f"excluded-{kind.value}": (
            lambda k=k, seq=seq: _gate_case(
                chain_link(ChainSpec(4)), lambda d: _first_site_step(d, k, Rational(seq)),
                extended=False),
            Verdict(False, 0, f"excluded exterior: {kind.value}", (_BASE_REPORT,), ()),
        )
        for k, seq, kind in _EXCLUDED
    },
    "unchecked": (
        lambda: _gate_case(chain_link(ChainSpec(4)),
                           lambda d: _first_site_step(d, 0, Unchecked())),
        Verdict(False, 0, "unchecked exterior evidence never validates", (_BASE_REPORT,), ()),
    ),
    "declared-machine-checked": (
        lambda: _gate_case(chain_link(ChainSpec(4)),
                           lambda d: _first_site_step(d, 0, DeclaredNonRational("declared"))),
        Verdict(True, None, "", (
            _BASE_REPORT,
            "step 0: non-rational exterior machine-checked (closed component outside the ball)",
            _MATCHED), ()),
    ),
    # the two-component rational link's site involves every component; after
    # a chain step, the next one on a three-component subject still does
    "declared-inherited": (
        lambda: _gate_case(rational_link([2, 2, 2]),
                           lambda d: _first_site_step(d, 0, Rational((2,))),
                           lambda d: _first_site_step(d, -2, DeclaredNonRational("rest"))),
        Verdict(True, None, "", (
            _BASE_REPORT, "step 0: rational exterior admissible (k=0)",
            "step 1: admissibility inherited from an earlier chain step (repeated application)",
            _MATCHED), ("step 1: rest",)),
    ),
    "declared-trusted": (
        lambda: _gate_case(rational_link([2, 2, 2]),
                           lambda d: _first_site_step(d, 0, DeclaredNonRational("rest"))),
        Verdict(True, None, "", (_BASE_REPORT, "step 0: non-rational exterior (trusted)",
                                 _MATCHED), ("step 0: rest",)),
    ),
    "declared-missing-site": (
        lambda: _gate_case(chain_link(ChainSpec(4)),
                           lambda d: _first_site_step(d, 0, DeclaredNonRational(""),
                                                      strands=(997, 998)),
                           extended=False),
        Verdict(False, 0, "replay failed: no chain site at component 0 strands (997, 998)",
                (_BASE_REPORT, "step 0: non-rational exterior (trusted)"),
                ("step 0: declared non-rational",)),
    ),
    "switch-without-premise": (
        lambda: _gate_case(chain_link(ChainSpec(4)),
                           lambda d: SwitchStep(1, 2, Handedness.NegativeSkew, None),
                           extended=False),
        Verdict(False, 0, "switch step lacks its GeodesicArc premise", (_BASE_REPORT,), ()),
    ),
}


@pytest.mark.parametrize("case", list(_GATE_CASES))
def test_every_gate_outcome_gives_its_whole_verdict(case):
    """verify's `Verdict`, all five fields, for each outcome of the chain
    step's gate and for a switch step without its premise; the verify
    oracle, whose gate is its own, gives the same."""
    make, expected = _GATE_CASES[case]
    cert = make()
    assert verify(cert) == expected
    assert verify_oracle(cert) == expected


@pytest.mark.parametrize("k, sequence, kind", _EXCLUDED)
def test_the_moves_raise_from_the_gate(k, sequence, kind):
    """`admit` refuses an excluded declared fraction with the error that
    `chain_move` raises, and admits the same site on other evidence, so
    the moves and `verify` share one gate."""
    d4 = chain_link(ChainSpec(4))
    site = find_chain_sites(d4)[0]
    ruling = admit(d4, site, k, Rational(sequence))
    assert (ruling.admitted, ruling.kind, ruling.verdict, ruling.trusted) == (
        False, "excluded", f"excluded exterior: {kind.value}", None)
    assert ruling.excluded.kind is kind
    with pytest.raises(ExcludedExteriorError) as err:
        chain_move(d4, site, k, Rational(sequence))
    assert (err.value.kind, str(err.value)) == (kind, str(ruling.excluded))
    assert [admit(d4, site, k, ev).kind for ev in (Unchecked(), DeclaredNonRational())] == [
        "unchecked", "machine-checked"]
    assert admit(d4, None, k, DeclaredNonRational(), inherited=True).kind == "inherited"
    chain_move(d4, site, k, Unchecked())  # the move runs; the certificate never verifies


def test_a_chain_step_names_exactly_two_strands():
    """A chain step's strands are a pair: a document whose step repeats an
    arc, or names one or none, is malformed, and `chain_site` finds no site
    for anything but a pair."""
    cert, d4 = chain_cert()
    step = first_chain_step(d4)
    doc = json.loads(serialize(extend(cert, step)))
    a, b = step.strands
    for strands in ([a, b, b], [b, a, a, b], [a], []):
        doc["steps"][0]["strands"] = strands
        with pytest.raises(CertificateError, match="two strands"):
            deserialize(json.dumps(doc))
        with pytest.raises(SiteError):
            chain_site(d4, step.trivial_component, strands)
    assert chain_site(d4, step.trivial_component, (b, a)).key() == find_chain_sites(d4)[0].key()
    tampered = replace(cert, subject=extend(cert, step).subject,
                       steps=(replace(step, strands=(a, b, b)),))
    assert verify(tampered).reason.startswith("replay failed: no chain site")


def test_switch_step_with_premise():
    cert, d4 = chain_cert()
    part_arcs = d4.face_arcs()
    from hyperforge.diagram import components as comp

    part = comp(d4)
    pair = None
    for arcs in part_arcs:
        uniq = sorted(set(arcs))
        for i in range(len(uniq)):
            for j in range(i + 1, len(uniq)):
                if part.component_of(uniq[i]) != part.component_of(uniq[j]):
                    pair = (uniq[i], uniq[j])
                    break
            if pair:
                break
        if pair:
            break
    step = SwitchStep(pair[0], pair[1], Handedness.NegativeSkew,
                      Premise("GeodesicArc", "minimal-length arc"))
    c = extend(cert, step)
    v = verify(c)
    assert v.valid
    assert any("geodesic" in t.lower() or "arc" in t for t in v.trusted_premises)


def test_unchecked_evidence_never_valid():
    cert, d4 = chain_cert()
    c = extend(cert, first_chain_step(d4, 0, Unchecked()))
    v = verify(c)
    assert not v.valid and v.failed_step == 0
    assert bool(v) is False


def test_aug_chain_step_counts():
    cert, d4 = chain_cert()
    c = extend(cert, AugChainStep(0, first_chain_step(d4).strands, 0,
                                  DeclaredNonRational("x")))
    assert components(c.subject).count == 6
    assert verify(c).valid


def test_wrong_subject_invalid():
    cert, d4 = chain_cert()
    c5 = extend(cert, first_chain_step(d4))
    bad = replace(c5, subject=chain_link(ChainSpec(4)))
    v = verify(bad)
    assert not v.valid and "match" in v.reason


def test_base_refusal_invalid():
    tre_cert = Certificate(
        base="MenascoAlternating",
        base_diagram=chain_link(ChainSpec(3, alternating=False)),
        subject=chain_link(ChainSpec(3, alternating=False)),
    )
    v = verify(tre_cert)
    assert not v.valid and v.failed_step == -1


def test_serialize_round_trip():
    cert, d4 = chain_cert()
    c5 = extend(cert, first_chain_step(d4))
    doc = serialize(c5)
    body = json.loads(doc)
    claimed = body.pop("sha256")
    assert claimed == hashlib.sha256(canonical_json(body).encode()).hexdigest()
    c5b = deserialize(doc)
    assert verify(c5b).valid
    assert diagram_isomorphic(c5b.subject, c5.subject)
    assert serialize(c5b) == doc  # canonical form is stable


def test_documents_over_one_base_share_its_diagram():
    """Two documents over one base text read one base diagram object; each
    subject is its own."""
    cert, d4 = chain_cert()
    one = deserialize(serialize(cert))
    two = deserialize(serialize(extend(cert, first_chain_step(d4))))
    assert one.base_diagram is two.base_diagram
    assert one.subject is not one.base_diagram
    assert verify(one).valid and verify(two).valid


def test_a_malformed_base_raises_the_same_error_twice():
    doc = json.loads(serialize(chain_cert()[0]))
    doc["base_diagram"] = "X(1,2,3"
    errors = []
    for _ in range(2):
        with pytest.raises(HyperforgeError) as err:
            deserialize(json.dumps(doc))
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]


def test_warm_memos_give_the_cold_verdicts(monkeypatch, tmp_path):
    """Every document of the benchmark's seed-1 replay pool, tampered ones
    included, gets the same verdict with the process memos (bases,
    certifier decisions, fragment sides, judged wirings) emptied before it
    and with them warm from the documents before it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    items = workloads.replay_verify_build(hyperforge, 1, str(tmp_path))["items"]
    cold = []
    for item in items:
        forget_memos()
        cold.append(verify(deserialize(item["doc"])))
    warm = [verify(deserialize(item["doc"])) for item in items]
    assert warm == cold
    assert len({v.valid for v in warm}) == 2


def test_verifying_an_honest_derivation_makes_no_crossing(monkeypatch):
    """The replay keeps each corner's label once, in the builder's arc per
    corner, and an honest derivation replays to its subject's own
    crossings, which need no build: a warm `verify` of the re-anchor's
    8-step chain-move derivation makes no `Crossing` object, counted at
    `diagram._crossing`, through which the library makes the crossings it
    labels itself."""
    import hyperforge.diagram as dg

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import reanchor

    cert = deserialize(serialize(reanchor.chain_derivation(hyperforge, 8)))
    assert verify(cert).valid  # the certifier's and the splice judge's memos warm
    made = []
    real = dg._crossing

    def counted(slots):
        made.append(slots)
        return real(slots)

    with mock.patch.object(dg, "_crossing", counted):
        assert verify(cert).valid
    assert made == []


def test_tampered_evidence_caught_at_step():
    cert, d4 = chain_cert()
    c5 = extend(cert, first_chain_step(d4))
    doc = json.loads(serialize(c5))
    doc["steps"][0]["evidence"] = {"kind": "Rational", "sequence": [0]}
    tampered = deserialize(json.dumps(doc))
    v = verify(tampered)
    assert not v.valid and v.failed_step == 0 and "MinusK" in v.reason


def test_a_chain_step_past_the_subject_size_is_refused_unbuilt():
    """No step removes crossings and a chain step adds 2 + |k|, so a step
    whose |k| exceeds the subject's crossing count can never replay to the
    subject: verify refuses it at its own index, with no Tk template
    made, however large k is.  One |k| short of that it replays, and
    the subject check refuses it as before."""
    import hyperforge.moves as moves

    cert, d4 = chain_cert()
    c5 = extend(cert, first_chain_step(d4))
    n = len(c5.subject.crossings)
    parts, emitted = moves.TkTemplate.parts, []

    def counted(template):
        emitted.append(template.k)
        return parts(template)

    for k, failed, reason in ((10**9, 0, f"k={10**9} adds more crossings than the subject has"),
                              (-n - 1, 0, f"k={-n - 1} adds more crossings than the subject has"),
                              (n, 1, "final diagram does not match the subject")):
        doc = json.loads(serialize(c5))
        doc["steps"][0]["k"] = k
        del emitted[:]
        with mock.patch.object(moves.TkTemplate, "parts", counted):
            v = verify(deserialize(json.dumps(doc)))
        assert (v.valid, v.failed_step, v.reason) == (False, failed, reason)
        assert set(emitted) == (set() if failed == 0 else {k})


@pytest.mark.parametrize("kind, splice, reason", [
    (ChainStep, "_chain_splice", "chain step must add exactly one component"),
    (AugChainStep, "_augmented_chain_splice",
     "augmented chain step must add exactly two components"),
])
def test_a_chain_step_that_adds_the_wrong_count_is_refused(monkeypatch, kind, splice, reason):
    """verify looks each splice half up by name at every call, so a
    splice that returns its diagram unchanged adds no component: the
    admitted step is refused at its own index with its variant's text."""
    import hyperforge.moves as moves

    cert, d4 = chain_cert()
    step = first_chain_step(d4)
    c = extend(cert, kind(step.trivial_component, step.strands, step.k, step.evidence))
    monkeypatch.setattr(moves, splice, lambda d, site, k: d)
    assert _verdict(c) == (False, 0, reason)


_SWITCH_WITH_PREMISE = {"kind": "SwitchStep", "arc_g": 1, "arc_g2": 2, "handedness": "neg",
                        "premise": {"kind": "NoSuchPremise"}}


@pytest.mark.parametrize("path, value, text", [
    (("steps", 0, "evidence"), {"kind": "Rational", "sequence": []},
     "Conway sequence must be nonempty"),
    (("steps", 0, "evidence"), {"kind": "Rational", "sequence": [2, -3]},
     "mixed-sign Conway sequence (2, -3)"),
    (("base_diagram",), "X(1,2,3", "bad crossing token: 'X'"),
    (("subject", "pd"), "X(1,2,3", "bad crossing token: 'X'"),
    (("steps", 0), _SWITCH_WITH_PREMISE, "unknown premise kind 'NoSuchPremise'"),
], ids=["empty-sequence", "mixed-sequence", "base-pd", "subject-pd", "premise-kind"])
def test_every_structural_fault_is_a_certificate_error(path, value, text):
    """A field whose value makes no Conway sequence, PD diagram or premise
    is a malformed document: `deserialize` raises a CertificateError with
    the text of the fault, chained from it."""
    cert, d4 = chain_cert()
    doc = json.loads(serialize(extend(cert, first_chain_step(d4))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(CertificateError) as err:
        deserialize(json.dumps(doc))
    assert str(err.value) == text
    assert isinstance(err.value.__cause__, (FormatError, PremiseError))
    assert str(err.value.__cause__) == text


def test_truncated_document_rejected():
    cert, d4 = chain_cert()
    doc = serialize(extend(cert, first_chain_step(d4)))
    with pytest.raises(CertificateError):
        deserialize(doc[: len(doc) // 2])
    with pytest.raises(CertificateError):
        deserialize(json.dumps({"version": 99}))


@pytest.mark.parametrize("version,shown", [
    (True, "True"), (1.0, "1.0"), ("1", "'1'"), (None, "None"), (99, "99")])
def test_a_version_that_is_not_the_integer_1_is_refused(version, shown):
    """An honest document whose version is true, 1.0, "1", missing or 99 is
    refused with its version shown (true == 1 == 1.0 in Python, but not in
    JSON's types), in process and by the CLI's `verify`, which exits 2."""
    from hyperforge.cli import MALFORMED, run

    cert, d4 = chain_cert()
    doc = json.loads(serialize(extend(cert, first_chain_step(d4))))
    if version is None:
        del doc["version"]
    else:
        doc["version"] = version
    text = f"unsupported certificate version {shown}"
    with pytest.raises(CertificateError) as err:
        deserialize(json.dumps(doc))
    assert str(err.value) == text
    assert run(["verify"], stdin_text=json.dumps(doc)) == (MALFORMED, f"ERROR: {text}\n")


def test_a_document_that_is_no_object_is_refused():
    """A JSON document that is not an object is a malformed certificate:
    `deserialize` says so, and the CLI's `verify` exits 2 with that text."""
    from hyperforge.cli import MALFORMED, run

    with pytest.raises(CertificateError) as err:
        deserialize("[]")
    assert str(err.value) == "certificate document must be a JSON object"
    assert run(["verify"], stdin_text="[]") == (
        MALFORMED, "ERROR: certificate document must be a JSON object\n")


def test_unchecked_evidence_round_trips_and_never_verifies():
    """A chain step with `Unchecked` evidence is extended (the move's gate
    passes it), written as ``{"kind": "Unchecked"}``, read back as
    `Unchecked()` with the same document again, and refused by `verify` at
    its own step."""
    cert, d4 = chain_cert()
    c = extend(cert, first_chain_step(d4, evidence=Unchecked()))
    doc = serialize(c)
    assert json.loads(doc)["steps"][0]["evidence"] == {"kind": "Unchecked"}
    back = deserialize(doc)
    assert back.steps[0].evidence == Unchecked()
    assert serialize(back) == doc
    assert _verdict(back) == (False, 0, "unchecked exterior evidence never validates")


def test_half_twist_step_replay():
    cert, d4 = chain_cert()
    c = extend(cert, HalfTwistStep(0, +1))
    assert verify(c).valid
    assert bool(verify(c)) is True


# gluing -------------------------------------------------------------------------


def census(name, boundaries):
    m = AbstractManifold(name, boundaries, (name + "-J",), True)
    return Certificate(base="ExternallyAsserted", subject=m, base_manifold=m,
                       description="externally certified census manifold")


GEO = (Premise("GeodesicArc", "alpha1"), Premise("GeodesicArc", "alpha2"))


def test_glue_tori():
    c1 = census("M1", (("T1", "torus"), ("T2", "torus")))
    c2 = census("M2", (("S1", "torus"),))
    g = glue(c1, c2, "T1", "S1", GEO)
    assert verify(g).valid
    assert g.subject.boundaries == (("T2", "torus"),)
    assert "C" in g.subject.link_components


def test_glue_klein_pair():
    c1 = census("K1", (("B1", "klein"),))
    c2 = census("K2", (("B2", "klein"),))
    assert verify(glue(c1, c2, "B1", "B2", GEO)).valid


def test_glue_type_mismatch():
    c1 = census("M1", (("T1", "torus"),))
    c2 = census("K2", (("B2", "klein"),))
    with pytest.raises(GlueError):
        glue(c1, c2, "T1", "B2", GEO)


def test_glue_missing_premises():
    c1 = census("M1", (("T1", "torus"),))
    c2 = census("M2", (("S1", "torus"),))
    with pytest.raises(PremiseError):
        glue(c1, c2, "T1", "S1", (Premise("GeodesicArc", "only one"),))


def test_glue_uncertified_input():
    c1 = census("M1", (("T1", "torus"),))
    m = AbstractManifold("N", (("S1", "torus"),), (), False)
    c2 = Certificate(base="ExternallyAsserted", subject=m, base_manifold=m)
    with pytest.raises(GlueError):
        glue(c1, c2, "T1", "S1", GEO)


def test_glue_round_trip():
    c1 = census("M1", (("T1", "torus"), ("T2", "torus")))
    c2 = census("M2", (("S1", "torus"),))
    g = glue(c1, c2, "T1", "S1", GEO)
    doc = serialize(g)
    assert verify(deserialize(doc)).valid


def _verdict(cert):
    v = verify(cert)
    return v.valid, v.failed_step, v.reason


def test_an_augmented_base_whose_ring_bounds_no_disk_is_refused():
    """An AugmentedAlternating base whose augmenting component bounds no
    twice-punctured disk (the trefoil's one component crosses six times)
    is refused at the base, with the certifier's refusal."""
    d = rational_link([3])
    cert = Certificate(base="AugmentedAlternating", subject=d, base_diagram=d, augmenting=(0,))
    assert _verdict(cert) == (
        False, -1, "base refused: BadAugmenting (0,) component 0 crosses 6 times; "
        "the pattern needs 4")


def test_an_externally_asserted_diagram_base_is_a_trusted_premise():
    """An ExternallyAsserted base over a diagram is not checked: the
    certificate verifies, and the assertion is recorded as a trusted
    premise."""
    d4 = chain_link(ChainSpec(4))
    cert = Certificate(base="ExternallyAsserted", subject=d4, base_diagram=d4,
                       description="census manifold")
    v = verify(cert)
    assert (v.valid, v.failed_step, v.reason) == (True, None, "")
    assert v.trusted_premises == ("base asserted externally: census manifold",)
    assert v.step_reports[0] == "base: ExternallyAsserted (trusted)"


def test_a_step_refused_before_any_edit_never_reads_the_base_diagram():
    """The replay state is made at the first step that edits the diagram:
    a switch step without its premise is refused at step 0 over an
    ExternallyAsserted base that is no valid diagram, and a step that
    edits that base raises the diagram's InvalidDiagramError."""
    bad = LinkDiagram((Crossing((1, 2, 3, 4)),))
    cert = Certificate(base="ExternallyAsserted", subject=chain_link(ChainSpec(4)),
                       base_diagram=bad,
                       steps=(SwitchStep(1, 2, Handedness.NegativeSkew, None),))
    assert _verdict(cert) == (False, 0, "switch step lacks its GeodesicArc premise")
    with pytest.raises(InvalidDiagramError):
        verify(replace(cert, steps=(HalfTwistStep(0, +1),)))


def _glued(step):
    """A census certificate of M1 (tori T1, T2), its subject M1 itself,
    with ``step`` as its one step."""
    c1 = census("M1", (("T1", "torus"), ("T2", "torus")))
    return replace(c1, steps=(step,))


@pytest.mark.parametrize("step, failed, reason", [
    (HalfTwistStep(0, 1), 0, "abstract certificates admit only glue steps"),
    (GlueStep(Certificate(base="ExternallyAsserted",
                          subject=AbstractManifold("N", (("S1", "torus"),)),
                          base_manifold=AbstractManifold("N", (("S1", "torus"),))),
              "T1", "S1", GEO),
     0, "glued certificate invalid: base manifold is not asserted hyperbolic"),
    (GlueStep(menasco_certify(chain_link(ChainSpec(4))), "T1", "S1", GEO),
     0, "glue step needs an abstract-manifold certificate"),
    (GlueStep(census("M2", (("S1", "torus"),)), "T9", "S1", GEO),
     0, "manifold M1 has no boundary 'T9'"),
    (GlueStep(census("K2", (("B2", "klein"),)), "T1", "B2", GEO),
     0, "boundary mismatch: torus glued to klein"),
    (GlueStep(census("M2", (("S1", "torus"),)), "T1", "S1", GEO),
     1, "glued manifold does not match the subject"),
], ids=["non-glue-step", "invalid-glued", "diagram-glued", "no-boundary", "kind-mismatch",
        "wrong-subject"])
def test_abstract_refusals(step, failed, reason):
    """Each refusal of an abstract-manifold certificate's replay: a step
    that is no glue step, a glued certificate that does not verify, one
    about a diagram, a boundary the manifold does not have, a torus glued
    to a Klein bottle, and a glue whose result is not the subject (the
    subject here is the base manifold itself)."""
    assert _verdict(_glued(step)) == (False, failed, reason)


_M1 = AbstractManifold("M1", (("T1", "torus"),), (), True)


@pytest.mark.parametrize("cert, failed, reason", [
    (Certificate(base="MenascoAlternating", subject=_M1, base_manifold=_M1),
     -1, "abstract certificates need an externally asserted base manifold"),
    (Certificate(base="ExternallyAsserted", subject=_M1),
     -1, "abstract certificates need an externally asserted base manifold"),
    (deserialize(serialize(replace(menasco_certify(chain_link(ChainSpec(4))), steps=(
        GlueStep(census("M2", (("S1", "torus"),)), "T1", "S1", GEO),)))),
     0, "replay failed: cannot apply GlueStep to a diagram"),
], ids=["manifold-over-menasco", "manifold-without-base", "glue-in-diagram-document"])
def test_diagrams_and_manifolds_do_not_mix(cert, failed, reason):
    """A manifold subject replays only from an externally asserted base
    manifold, and a diagram replays no glue step, though its document
    holds one."""
    assert _verdict(cert) == (False, failed, reason)


class _Foreign:
    """A step the certificate layer does not know."""


def _with_boundaries(boundaries):
    """The document of a census certificate, its base manifold's
    boundaries replaced by ``boundaries``."""
    doc = json.loads(serialize(census("M1", (("T1", "torus"),))))
    doc["base_manifold"]["boundaries"] = boundaries
    return json.dumps(doc)


@pytest.mark.parametrize("call, error, text", [
    (lambda: extend(chain_cert()[0], GlueStep(census("M2", (("S1", "torus"),)), "T1", "S1", GEO)),
     CertificateError, "use glue() for gluing steps"),
    (lambda: extend(census("M1", (("T1", "torus"),)), HalfTwistStep(0, 1)),
     CertificateError, "cannot extend an abstract-manifold certificate"),
    (lambda: glue(chain_cert()[0], census("M2", (("S1", "torus"),)), "T1", "S1", GEO),
     GlueError, "glue operates on abstract-manifold certificates"),
    (lambda: deserialize(_with_boundaries([[1, "torus"]])),
     CertificateError, "manifold boundaries must be [label, kind] string pairs"),
    (lambda: deserialize(_with_boundaries([["T1"]])),
     CertificateError, "manifold boundaries must be [label, kind] string pairs"),
    (lambda: serialize(replace(census("M1", (("T1", "torus"),)), steps=(_Foreign(),))),
     CertificateError, "unknown step _Foreign"),
], ids=["extend-glue-step", "extend-manifold", "glue-diagram", "boundary-not-strings",
        "boundary-not-a-pair", "serialize-foreign-step"])
def test_certificate_input_refusals(call, error, text):
    """Each refusal of an input the certificate layer cannot take, with
    its text: a glue step given to `extend`, `extend` on an abstract
    manifold, `glue` of a diagram certificate, a manifold boundary that is
    no pair of strings, and a step `serialize` does not know."""
    with pytest.raises(error) as refusal:
        call()
    assert str(refusal.value) == text


def test_mixed_step_pipeline_verifies():
    cert, d4 = chain_cert()
    cur = extend(cert, first_chain_step(d4, 1))
    # switch two arcs of different components of the current subject
    from hyperforge.diagram import components as comp

    part = comp(cur.subject)
    pair = None
    for arcs in cur.subject.face_arcs():
        uniq = sorted(set(arcs))
        for i in range(len(uniq)):
            for j in range(i + 1, len(uniq)):
                if part.component_of(uniq[i]) != part.component_of(uniq[j]):
                    pair = (uniq[i], uniq[j])
                    break
            if pair:
                break
        if pair:
            break
    cur = extend(cur, SwitchStep(pair[0], pair[1], Handedness.NegativeSkew,
                                 Premise("GeodesicArc", "shortest arc outside the cusps")))
    new_ring = None
    from hyperforge.moves import _new_ring_component

    v = verify(cur)
    assert v.valid
    doc = serialize(cur)
    assert verify(deserialize(doc)).valid


def test_extend_augmented_base():
    from hyperforge.classifier import augmented_alternating_certify
    from hyperforge.diagram import components as comp
    from hyperforge.generators import chain_link, ChainSpec
    from hyperforge.moves import augmenting_circle, find_chain_sites, _new_ring_component

    d4 = chain_link(ChainSpec(4))
    ring0 = set(comp(d4).arcs_of(0))
    pair = next(
        tuple(sorted(set(a for a in arcs if a in ring0)))[:2]
        for arcs in d4.face_arcs()
        if len(set(a for a in arcs if a in ring0)) >= 2
    )
    aug = augmenting_circle(d4, *pair)
    ring = _new_ring_component(aug, set(range(len(d4.crossings), len(d4.crossings) + 4)))
    cert = augmented_alternating_certify(aug, {ring})
    site = next(s for s in find_chain_sites(aug) if s.trivial_component != ring)
    cur = extend(cert, ChainStep(site.trivial_component, (site.strand1, site.strand2),
                                 0, DeclaredNonRational("rest of the chain")))
    v = verify(cur)
    assert v.valid
    doc = serialize(cur)
    assert verify(deserialize(doc)).valid


# semantic tampering ----------------------------------------------------------------

_TAMPER_BASES = [chain_link(ChainSpec(n)) for n in (3, 4, 5, 6)]
_OTHER_HAND = {Handedness.PositiveSkew: Handedness.NegativeSkew,
               Handedness.NegativeSkew: Handedness.PositiveSkew}


def _drawn_step(data, d, kind, k):
    """A step of ``kind`` on ``d`` with sites, evidence and arcs drawn, or None."""
    if kind == "switch":
        part = components(d)
        pairs = sorted(
            {(a, b) for arcs in d.face_arcs() for a in set(arcs) for b in set(arcs)
             if a < b and part.component_of(a) != part.component_of(b)}
        )
        if not pairs:
            return None
        g, g2 = data.draw(st.sampled_from(pairs))
        return SwitchStep(g, g2, data.draw(st.sampled_from(list(Handedness))),
                          Premise("GeodesicArc", "assumed"))
    sites = find_chain_sites(d)
    if not sites:
        return None
    site = data.draw(st.sampled_from(sites))
    if kind == "half":
        return HalfTwistStep(site.trivial_component, data.draw(st.sampled_from((1, -1))))
    # |k| + 2 is never an excluded exterior of the k-template
    evidence = data.draw(st.sampled_from(
        (DeclaredNonRational("declared"), Rational((abs(k) + 2,)))))
    step_class = ChainStep if kind == "chain" else AugChainStep
    return step_class(site.trivial_component, (site.strand1, site.strand2), k, evidence)


def _mutants(steps):
    """Each step changed in turn: k +- 1, the half-twist direction or the
    switch handedness flipped, or the step dropped."""
    for i, step in enumerate(steps):
        yield steps[:i] + steps[i + 1:]
        if isinstance(step, ChainStep):
            changed = [replace(step, k=step.k + 1), replace(step, k=step.k - 1)]
        elif isinstance(step, HalfTwistStep):
            changed = [replace(step, direction=-step.direction)]
        else:
            changed = [replace(step, handedness=_OTHER_HAND[step.handedness])]
        for other in changed:
            yield steps[:i] + (other,) + steps[i + 1:]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_TAMPER_BASES),
       st.lists(st.tuples(st.sampled_from(("chain", "aug", "half", "switch")),
                          st.integers(-2, 2)), min_size=2, max_size=4),
       st.data())
def test_semantic_tampering_never_verifies(base, plan, data):
    """A short mixed derivation from a chain base verifies; every copy with
    one step changed or dropped verifies INVALID."""
    cert = menasco_certify(base)
    for kind, k in plan:
        step = _drawn_step(data, cert.subject, kind, k)
        if step is None:
            continue
        try:
            cert = extend(cert, step)
        except HyperforgeError:
            continue
    assume(cert.steps)
    assert verify(cert).valid
    for steps in _mutants(cert.steps):
        assert not verify(replace(cert, steps=steps)).valid, steps


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_TAMPER_BASES),
       st.lists(st.tuples(st.sampled_from(("chain", "aug", "half", "switch")),
                          st.integers(-2, 2)), min_size=2, max_size=4),
       st.data())
def test_replay_matches_the_replay_oracle(base, plan, data):
    """On the derivations the semantic-tampering test draws and on each of
    their one-step mutants, verify gives the (valid, failed step, reason)
    that replaying through the splice oracle gives, and the whole `Verdict`
    of the verify oracle, whose evidence gate is its own."""
    cert = menasco_certify(base)
    for kind, k in plan:
        step = _drawn_step(data, cert.subject, kind, k)
        if step is None:
            continue
        try:
            cert = extend(cert, step)
        except HyperforgeError:
            continue
    assume(cert.steps)
    for steps in (cert.steps, *_mutants(cert.steps)):
        tampered = replace(cert, steps=steps)
        verdict = verify(tampered)
        assert (verdict.valid, verdict.failed_step, verdict.reason) == replay_oracle(tampered)
        assert verdict == verify_oracle(tampered)
