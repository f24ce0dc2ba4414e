"""Command-line front end: exit codes, determinism, pipelines."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hyperforge.cli as cli
from hyperforge.cli import MALFORMED, OK, REFUSED, run


def test_fraction_command():
    assert run(["fraction", "--seq", "-2 0"]) == (OK, "-1/2\n")
    assert run(["fraction", "--seq", "2 3 2"]) == (OK, "16/7\n")
    assert run(["fraction", "--seq", "0 0"]) == (OK, "inf\n")


def test_fraction_malformed():
    code, out = run(["fraction", "--seq", "not numbers"])
    assert code == MALFORMED and out.startswith("ERROR:")


def test_classify_exterior():
    assert run(["classify-exterior", "--fraction", "-3/1", "--k", "3"]) == (
        REFUSED,
        "EXCLUDED: MinusK\n",
    )
    assert run(["classify-exterior", "--fraction", "1", "--k", "1"]) == (OK, "admissible\n")
    assert run(["classify-exterior", "--fraction", "inf", "--k", "0"]) == (
        REFUSED,
        "EXCLUDED: Infinity\n",
    )


def test_tangle_eq():
    assert run(["tangle-eq", "--s1", "-2 0", "--s2", "-2 0 0 0"]) == (OK, "equivalent\n")
    assert run(["tangle-eq", "--s1", "0", "--s2", "-1"]) == (OK, "not-equivalent\n")


def test_gen_validate_certify_verify_flow():
    code, pd = run(["gen", "chain", "--n", "4"])
    assert code == OK
    code, out = run(["validate"], stdin_text=pd)
    assert code == OK and out.startswith("valid")
    code, cert = run(["certify", "--base", "menasco"], stdin_text=pd)
    assert code == OK
    json.loads(cert)  # certificate is a JSON document
    code, out = run(["verify"], stdin_text=cert)
    assert code == OK and "VALID" in out


def test_certify_refusal():
    _, tre = run(["gen", "rational", "--seq", "3"])
    code, out = run(["certify", "--base", "menasco"], stdin_text=tre)
    assert code == REFUSED and out.startswith("REFUSED:") and "TwoBraid" in out


@pytest.mark.parametrize("value", ["abc", "1e4", "-3"])
def test_malformed_step_budget_is_malformed_input(monkeypatch, value):
    _, pd = run(["gen", "chain", "--n", "4"])
    monkeypatch.setenv("HYPERFORGE_STEP_BUDGET", value)
    assert run(["certify"], stdin_text=pd) == (
        MALFORMED,
        f"ERROR: HYPERFORGE_STEP_BUDGET must be a nonnegative integer, got '{value}'\n",
    )


def test_step_budget_unset_keeps_the_default(monkeypatch):
    """Unset, the budget is 1000: a kinked chain reduces, and the kink's two
    arcs are refused as a 2-edge cut.  A budget of 0 cannot reduce the kink."""
    from hyperforge.diagram import format_pd, parse_pd, reidemeister1

    _, pd = run(["gen", "chain", "--n", "4"])
    d = parse_pd(pd)
    kinked = format_pd(reidemeister1(d, d.arcs[0], 1))
    monkeypatch.delenv("HYPERFORGE_STEP_BUDGET", raising=False)
    assert run(["certify"], stdin_text=pd)[0] == OK
    code, out = run(["certify"], stdin_text=kinked)
    assert code == REFUSED and out.startswith("REFUSED: NotPrime")
    monkeypatch.setenv("HYPERFORGE_STEP_BUDGET", "0")
    code, out = run(["certify"], stdin_text=kinked)
    assert code == REFUSED and out.startswith("REFUSED: Unknown2Braid")


def test_malformed_step_budget_prints_no_traceback():
    _, pd = run(["gen", "chain", "--n", "4"])
    proc = _cli_process(["certify"], input=pd,
                        env_extra={"HYPERFORGE_STEP_BUDGET": "abc"})
    assert proc.returncode == MALFORMED and proc.stderr == ""
    assert proc.stdout == (
        "ERROR: HYPERFORGE_STEP_BUDGET must be a nonnegative integer, got 'abc'\n")


def test_certify_and_verify_past_a_thousand_crossings():
    """The 2-braid test and the replayed-subject check run in constant
    stack depth: a 1001-crossing (2, n) torus link is refused and a
    1002-crossing chain certified and verified, without a traceback."""
    _, braid = run(["gen", "rational", "--seq", "1001"])
    assert run(["certify"], stdin_text=braid) == (REFUSED, "REFUSED: TwoBraid\n")
    _, chain = run(["gen", "chain", "--n", "501"])
    code, cert = run(["certify"], stdin_text=chain)
    assert code == OK
    assert run(["verify"], stdin_text=cert) == (OK, "certificate 0: VALID\n")


def test_convert_round_trip():
    _, pd = run(["gen", "chain", "--n", "3"])
    code, gauss = run(["convert", "--to", "gauss"], stdin_text=pd)
    assert code == OK
    code, back = run(["convert", "--to", "pd"], stdin_text=gauss)
    assert code == OK
    code, out = run(["validate"], stdin_text=back)
    assert code == OK


def test_parse_normalizes():
    code, out = run(["parse"], stdin_text="# hi\n X( 1,4,2,5)  X(3,6,4,1)\nX(5,2,6,3)")
    assert code == OK and out.count("X(") == 3


def test_apply_chain_move():
    _, pd = run(["gen", "chain", "--n", "4"])
    code, out = run(
        ["apply", "--move", "chain", "--component", "0", "--strands", "4,8",
         "--k", "1", "--evidence", "nonrational:rest of the chain"],
        stdin_text=pd,
    )
    assert code == OK and out.count("X(") == 11


def test_apply_excluded_is_refusal():
    _, pd = run(["gen", "chain", "--n", "4"])
    code, out = run(
        ["apply", "--move", "chain", "--component", "0", "--strands", "4,8",
         "--k", "3", "--evidence", "rational:-3"],
        stdin_text=pd,
    )
    assert code == REFUSED and out.startswith("REFUSED:") and "MinusK" in out


def test_apply_r1():
    _, pd = run(["gen", "rational", "--seq", "3"])
    code, out = run(["apply", "--move", "r1", "--arc", "1", "--handedness", "1"], stdin_text=pd)
    assert code == OK and out.count("X(") == 4


@pytest.mark.parametrize("move, given, message", [
    ("chain", ["--strands", "4,8"], "chain moves need --component N --strands a1,a2"),
    ("augchain", ["--component", "0"], "chain moves need --component N --strands a1,a2"),
    ("switch", ["--arcs", "1,4"], "switch needs --arcs g,g2 --skew pos|neg"),
    ("halftwist", ["--component", "0"], "halftwist needs --component N --direction +1|-1"),
    ("r1-undo", [], "r1-undo needs --crossing N"),
    ("r2", [], "r2 needs --arcs a,b"),
    ("r2-undo", [], "r2-undo needs --crossings i,j"),
])
def test_apply_refuses_a_move_missing_its_options(move, given, message):
    """Each move `apply` runs names the options it needs when one is
    missing: exit 2 and that text, in process."""
    _, pd = run(["gen", "chain", "--n", "4"])
    assert run(["apply", "--move", move, *given], stdin_text=pd) == (MALFORMED,
                                                                     f"ERROR: {message}\n")


def test_apply_undoes_a_kink_and_a_bigon():
    """`apply` undoes an R1 kink and an R2 bigon as the library does: the
    removals edit a replay state of the parsed diagram and build it."""
    from hyperforge.diagram import (find_kinks, find_r2_bigons, format_pd, parse_pd,
                                    reidemeister1_undo, reidemeister2_undo)

    _, pd = run(["gen", "chain", "--n", "4"])
    _, kinked = run(["apply", "--move", "r1", "--arc", "1", "--handedness", "-1"], stdin_text=pd)
    d = parse_pd(kinked)
    (ci,) = find_kinks(d)
    code, out = run(["apply", "--move", "r1-undo", "--crossing", str(ci)], stdin_text=kinked)
    assert (code, out) == (OK, format_pd(reidemeister1_undo(d, ci)))
    assert out.count("X(") == 8
    _, pushed = run(["apply", "--move", "r2", "--arcs", "1,4"], stdin_text=pd)
    d = parse_pd(pushed)
    pair = find_r2_bigons(d)[-1]
    code, out = run(["apply", "--move", "r2-undo", "--crossings", "%d,%d" % pair],
                    stdin_text=pushed)
    assert (code, out) == (OK, format_pd(reidemeister2_undo(d, pair)))
    assert out.count("X(") == 8


def test_apply_reads_an_input_file_and_takes_unchecked_evidence(tmp_path):
    """A command given an input file reads it as it reads stdin, and
    `apply --evidence unchecked` gives the chain move the library makes with
    `Unchecked` evidence, in process."""
    from hyperforge.classifier import Unchecked
    from hyperforge.diagram import format_pd, parse_pd
    from hyperforge.moves import chain_move, chain_site

    _, pd = run(["gen", "chain", "--n", "4"])
    path = tmp_path / "chain4.pd"
    path.write_text(pd)
    argv = ["apply", "--move", "chain", "--component", "0", "--strands", "4,8", "--k", "1",
            "--evidence", "unchecked"]
    d = parse_pd(pd)
    want = format_pd(chain_move(d, chain_site(d, 0, (4, 8)), 1, Unchecked()))
    assert run([*argv, str(path)]) == run(argv, stdin_text=pd) == (OK, want)
    assert want.count("X(") == 11


def test_gen_tk_prints_the_library_closure():
    """`gen tk` prints `tk_closure`'s diagram, built by `closed`."""
    from hyperforge.diagram import format_pd
    from hyperforge.generators import tk_closure
    from hyperforge.tangle import ConwaySequence

    for seq, k, extra, n in (("3 2", 1, 0, 12), ("2 2", 0, 1, 11)):
        out = run(["gen", "tk", "--seq", seq, "--k", str(k), "--extra-twists", str(extra)])
        assert out == (OK, format_pd(tk_closure(ConwaySequence.parse(seq), k, extra)))
        assert out[1].count("X(") == n


def test_malformed_inputs_exit_2():
    for text in ("X(1,2,3)", "garbage", "X(1,1,2,3)"):
        code, _ = run(["validate"], stdin_text=text)
        assert code == MALFORMED
    code, _ = run(["verify"], stdin_text="{not json")
    assert code == MALFORMED
    code, _ = run(["no-such-command"])
    assert code == MALFORMED


def test_determinism():
    a = run(["gen", "chain", "--n", "5", "--twists", "1,0,2,0,1"])
    b = run(["gen", "chain", "--n", "5", "--twists", "1,0,2,0,1"])
    assert a == b
    _, pd = run(["gen", "chain", "--n", "4"])
    assert run(["certify", "--base", "menasco"], stdin_text=pd) == run(
        ["certify", "--base", "menasco"], stdin_text=pd
    )


def test_pipeline(tmp_path):
    script = tmp_path / "p.hf"
    script.write_text(
        "# a comment-only line runs nothing\n"
        "A = gen chain --n 4\n"
        "B = certify --base menasco @A  # certify it\n"
        "verify @B\n"
    )
    code, out = run(["pipeline", str(script)])
    assert code == OK
    assert "VALID" in out and out.count("$ ") == 3 and "#" not in out
    # byte-deterministic
    assert run(["pipeline", str(script)]) == (code, out)


def test_parser_is_built_once(tmp_path):
    """The argparse tree is built on first use, then every run and every
    pipeline line reuses it."""
    script = tmp_path / "p.hf"
    script.write_text("A = fraction --seq 2\nfraction --seq 3\ngen chain --n 2\n")
    cli._parser.cache_clear()
    with mock.patch.object(cli, "_build_parser", wraps=cli._build_parser) as built:
        assert run(["fraction", "--seq", "2 3"]) == (OK, "7/2\n")
        assert run(["pipeline", str(script)])[0] == OK
        assert run(["bogus"]) == (MALFORMED, "")
        assert run(["fraction", "--seq", "2"]) == (OK, "2\n")
    assert built.call_count == 1


def test_reused_parser_keeps_no_state():
    """A flag or a failed parse leaves nothing behind for the next parse."""
    alternating = run(["gen", "chain", "--n", "3"])
    non_alternating = run(["gen", "chain", "--n", "3", "--non-alternating"])
    assert non_alternating[0] == OK and non_alternating != alternating
    assert cli._parse_args(["gen", "chain", "--n", "3"])[0].alternating is True
    assert run(["gen", "chain", "--n", "3"]) == alternating
    for argv in ([], ["gen"], ["fraction"], ["fraction", "--seq"], ["apply", "--move", "bogus"],
                 ["gen", "chain", "--n", "x"], ["verify", "--jobs", "many"]):
        assert run(argv) == (MALFORMED, ""), argv
    assert run(["fraction", "--seq", "2 3"]) == (OK, "7/2\n")


def test_a_bad_evidence_flag_exits_2():
    _, pd = run(["gen", "chain", "--n", "4"])
    assert run(["apply", "--move", "chain", "--component", "0", "--strands", "4,8",
                "--k", "1", "--evidence", "proof:none"], stdin_text=pd) == (
        MALFORMED,
        "ERROR: evidence must be rational:SEQ, nonrational:TEXT, or unchecked, got 'proof:none'\n")


def test_a_pipeline_naming_an_unknown_slot_exits_2(tmp_path):
    script = tmp_path / "p.hf"
    script.write_text("A = gen chain --n 4\nverify @B\n")
    assert run(["pipeline", str(script)]) == (
        MALFORMED, "ERROR: pipeline references unknown slot @B\n")


def test_pipeline_aborts_on_refusal(tmp_path):
    script = tmp_path / "p.hf"
    script.write_text(
        "A = gen rational --seq 3\n"
        "certify --base menasco @A\n"
        "fraction --seq 1\n"
    )
    code, out = run(["pipeline", str(script)])
    assert code == REFUSED
    assert "REFUSED" in out and "$ fraction" not in out


def test_pipeline_that_runs_itself_exits_2(tmp_path):
    """A script started again while it runs, directly or through another
    script, is malformed input; nesting without a cycle still runs."""
    scripts = {
        "self": "gen chain --n 2\npipeline {self}\n",
        "a": "pipeline {b}\n",
        "b": "fraction --seq 1\npipeline {a}\n",
        "outer": "pipeline {inner}\npipeline {inner}\n",
        "inner": "gen chain --n 2\n",
    }
    paths = {name: str(tmp_path / f"{name}.hf") for name in scripts}
    for name, text in scripts.items():
        Path(paths[name]).write_text(text.format_map(paths))
    for name in ("self", "a"):
        code, out = run(["pipeline", paths[name]])
        assert code == MALFORMED, out
        assert "ERROR: pipeline script" in out and "is already running" in out
    code, out = run(["pipeline", paths["outer"]])
    assert code == OK and out.count("[exit 0]") == 4


def test_verify_multiple_jobs(tmp_path):
    _, pd = run(["gen", "chain", "--n", "4"])
    _, cert = run(["certify", "--base", "menasco"], stdin_text=pd)
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    f1.write_text(cert)
    f2.write_text(cert)
    code, out = run(["verify", str(f1), str(f2), "--jobs", "2"])
    assert code == OK and out.count("VALID") == 2


def _cli_process(argv, env_extra=(), **kwargs):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "hyperforge.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30, **kwargs)


def test_main_ignores_open_stdin_when_given_files(tmp_path):
    _, pd = run(["gen", "chain", "--n", "4"])
    _, cert = run(["certify", "--base", "menasco"], stdin_text=pd)
    f = tmp_path / "c.json"
    f.write_text(cert)
    r, w = os.pipe()  # the write end stays open: reading stdin would block
    try:
        proc = _cli_process(["verify", str(f)], stdin=r)
    finally:
        os.close(r)
        os.close(w)
    assert proc.returncode == OK and proc.stdout == "certificate 0: VALID\n"


def test_main_reads_stdin_without_files():
    _, pd = run(["gen", "chain", "--n", "3"])
    proc = _cli_process(["validate"], input=pd)
    assert (proc.returncode, proc.stdout) == run(["validate"], stdin_text=pd)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="XO(),0123456789 \n#abc-", max_size=80))
def test_cli_never_raises_on_junk(text):
    code, out = run(["validate"], stdin_text=text)
    assert code in (OK, MALFORMED)
    if code == MALFORMED:
        assert out.startswith("ERROR:") or "fails" in out or "used" in out


def test_timestamps_opt_in():
    code, out = run(["--timestamps", "fraction", "--seq", "0"])
    assert code == OK and out.startswith("# ") and out.endswith("0\n")
    # and absent by default
    assert run(["fraction", "--seq", "0"]) == (OK, "0\n")


def test_parse_gauss_flag():
    _, pd = run(["gen", "chain", "--n", "3"])
    _, gauss = run(["convert", "--to", "gauss"], stdin_text=pd)
    code, out = run(["parse", "--gauss"], stdin_text=gauss)
    assert code == OK and out == gauss


def test_certify_augmented_via_cli():
    from hyperforge.diagram import components, format_pd
    from hyperforge.generators import ChainSpec, chain_link
    from hyperforge.moves import augmenting_circle, _new_ring_component

    d4 = chain_link(ChainSpec(4))
    ring0 = set(components(d4).arcs_of(0))
    pair = next(
        tuple(sorted(set(a for a in arcs if a in ring0)))[:2]
        for arcs in d4.face_arcs()
        if len(set(a for a in arcs if a in ring0)) >= 2
    )
    aug = augmenting_circle(d4, *pair)
    ring = _new_ring_component(aug, set(range(len(d4.crossings), len(d4.crossings) + 4)))
    code, out = run(
        ["certify", "--base", "augmented", "--augmenting", str(ring)],
        stdin_text=format_pd(aug),
    )
    assert code == OK and '"AugmentedAlternating"' in out


def test_apply_switch_and_halftwist():
    _, pd = run(["gen", "chain", "--n", "4"])
    from hyperforge.diagram import components as comp, parse_pd

    d = parse_pd(pd)
    part = comp(d)
    pair = None
    for arcs in d.face_arcs():
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
    code, out = run(
        ["apply", "--move", "switch", "--arcs", f"{pair[0]},{pair[1]}", "--skew", "neg"],
        stdin_text=pd,
    )
    assert code == OK and out.count("X(") == 12
    code, out2 = run(
        ["apply", "--move", "halftwist", "--component", "0", "--direction", "1"],
        stdin_text=pd,
    )
    assert code == OK and out2.count("X(") == 9


def test_negative_component_indices_exit_cleanly():
    """A negative component is a missing one, never the last one counted
    backwards, and one past the count is missing, never a crossing-free one."""
    _, pd = run(["gen", "chain", "--n", "4"])
    probes = [
        (["apply", "--move", "halftwist", "--component", "-5", "--direction", "1"],
         MALFORMED, "ERROR: no component -5\n"),
        (["apply", "--move", "halftwist", "--component", "-1", "--direction", "1"],
         MALFORMED, "ERROR: no component -1\n"),
        (["certify", "--base", "augmented", "--augmenting=-7"],
         REFUSED, "REFUSED: BadAugmenting (-7,) no component -7\n"),
        (["apply", "--move", "halftwist", "--component", "99", "--direction", "1"],
         MALFORMED, "ERROR: no component 99\n"),
        (["certify", "--base", "augmented", "--augmenting", "99"],
         REFUSED, "REFUSED: BadAugmenting (99,) no component 99\n"),
    ]
    for argv, code, out in probes:
        proc = _cli_process(argv, input=pd)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert "Traceback" not in proc.stderr


def test_malformed_integer_options_exit_cleanly():
    """--arcs, --crossings, --strands, --twists and --augmenting that are not
    the integers they name: exit 2, a message naming the flag and the raw
    value, no traceback."""
    _, pd = run(["gen", "chain", "--n", "4"])
    apply = ["apply", "--move"]
    probes = [
        (apply + ["r2", "--arcs", "1,2,3"], "--arcs wants two integers, got '1,2,3'"),
        (apply + ["r2", "--arcs", "1"], "--arcs wants two integers, got '1'"),
        (apply + ["r2", "--arcs", "1,"], "--arcs wants two integers, got '1,'"),
        (apply + ["switch", "--arcs", "1,x", "--skew", "pos"],
         "--arcs wants two integers, got '1,x'"),
        (apply + ["r2-undo", "--crossings", "0,1,2"],
         "--crossings wants two integers, got '0,1,2'"),
        (apply + ["r2-undo", "--crossings", "a,b"], "--crossings wants two integers, got 'a,b'"),
        (apply + ["chain", "--component", "0", "--strands", "1,x"],
         "--strands wants two integers, got '1,x'"),
        (apply + ["augchain", "--component", "0", "--strands", "4,8,9"],
         "--strands wants two integers, got '4,8,9'"),
        (["gen", "chain", "--n", "4", "--twists", "1,a"],
         "--twists wants comma-separated integers, got '1,a'"),
        (["certify", "--base", "augmented", "--augmenting", "1,x"],
         "--augmenting wants comma-separated integers, got '1,x'"),
    ]
    for argv, message in probes:
        assert run(argv, stdin_text=pd) == (MALFORMED, f"ERROR: {message}\n"), argv
    proc = _cli_process(probes[0][0], input=pd)
    assert (proc.returncode, proc.stdout) == (MALFORMED, f"ERROR: {probes[0][1]}\n")
    assert "Traceback" not in proc.stderr


def test_well_formed_integer_lists_keep_their_reading():
    """Blank items of --twists and --augmenting are skipped, and spaces
    around an integer are allowed, as before the options shared a parser."""
    twisted = run(["gen", "chain", "--n", "4", "--twists", "1,0,2,0"])
    assert twisted[0] == OK
    assert run(["gen", "chain", "--n", "4", "--twists", "1,,0, 2,0,"]) == twisted
    _, pd = run(["gen", "chain", "--n", "4"])
    moved = run(["apply", "--move", "r2", "--arcs", "1,4"], stdin_text=pd)
    assert moved[0] == OK
    assert run(["apply", "--move", "r2", "--arcs", " 1, 4"], stdin_text=pd) == moved


def test_a_dash_value_after_augmenting_is_its_value():
    _, pd = run(["gen", "chain", "--n", "4"])
    joined = run(["certify", "--base", "augmented", "--augmenting=-1,2"], stdin_text=pd)
    split = run(["certify", "--base", "augmented", "--augmenting", "-1,2"], stdin_text=pd)
    assert joined == split == (REFUSED, "REFUSED: BadAugmenting (-1,) no component -1\n")


def test_fraction_starts_without_the_diagram_modules():
    # `python -m hyperforge.cli fraction` imports only what the command uses
    script = (
        "import runpy, sys\n"
        "sys.argv = ['hyperforge', 'fraction', '--seq', '-2 0']\n"
        "try:\n"
        "    runpy.run_module('hyperforge.cli', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('hyperforge.'))))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=30, stdin=subprocess.DEVNULL)
    assert proc.stdout.splitlines() == [
        "-1/2", "hyperforge.classifier hyperforge.errors hyperforge.tangle"]


# verify on damaged certificate documents -----------------------------------------


def _derivation_document():
    """A 4-step derivation (chain, half twist, switch, augmented chain)."""
    from hyperforge.certificate import (
        AugChainStep, ChainStep, HalfTwistStep, Premise, SwitchStep, extend, serialize,
    )
    from hyperforge.classifier import DeclaredNonRational, Rational, menasco_certify
    from hyperforge.generators import ChainSpec, chain_link
    from hyperforge.moves import Handedness, find_chain_sites

    cert = menasco_certify(chain_link(ChainSpec(3)))
    s = find_chain_sites(cert.subject)[0]
    cert = extend(cert, ChainStep(s.trivial_component, (s.strand1, s.strand2), 0,
                                  Rational((2,))))
    cert = extend(cert, HalfTwistStep(find_chain_sites(cert.subject)[0].trivial_component, 1))
    g, g2 = next(sorted(set(a))[:2] for a in cert.subject.face_arcs() if len(set(a)) > 1)
    cert = extend(cert, SwitchStep(g, g2, Handedness.NegativeSkew,
                                   Premise("GeodesicArc", "assumed")))
    s = find_chain_sites(cert.subject)[0]
    cert = extend(cert, AugChainStep(s.trivial_component, (s.strand1, s.strand2), 1,
                                     DeclaredNonRational("declared")))
    return serialize(cert)


def _glue_nest(depth):
    """A manifold certificate whose glue steps nest ``depth`` deep."""
    manifold = '{"name": "M", "boundaries": [["T", "torus"]], "hyperbolic": true}'
    text = (f'{{"version": 1, "base": "ExternallyAsserted", "base_manifold": {manifold}, '
            f'"subject": {{"kind": "manifold", "manifold": {manifold}}}}}')
    for _ in range(depth):
        text = (f'{{"version": 1, "base": "ExternallyAsserted", "base_manifold": {manifold}, '
                f'"subject": {{"kind": "manifold", "manifold": {manifold}}}, '
                f'"steps": [{{"kind": "GlueStep", "boundary_self": "T", '
                f'"boundary_other": "T", "other": {text}}}]}}')
    return text


def _paths(node, path=()):
    """Every key and index path into a JSON value."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutated(doc, path, value, drop=False):
    obj = json.loads(json.dumps(doc))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(obj)


def _verify_contract(text):
    code, out = run(["verify"], stdin_text=text)
    assert code in (OK, REFUSED, MALFORMED), (code, out)
    if code == REFUSED:
        assert "REFUSED:" in out
    if code == MALFORMED:
        assert out.startswith("ERROR:")
    return code, out


def test_verify_malformed_certificates_exit_2():
    doc = json.loads(_derivation_document())
    chain = ("steps", 0)
    probes = [
        _mutated(doc, ("base",), None, drop=True),
        _mutated(doc, chain + ("component",), None, drop=True),
        _mutated(doc, chain + ("evidence",), None, drop=True),
        _mutated(doc, ("base_diagram",), None, drop=True),
        _mutated(doc, chain + ("strands",), 4),
        _mutated(doc, chain + ("strands",), "4,8"),
        _mutated(doc, ("steps",), {"kind": "ChainStep"}),
        _mutated(doc, ("steps",), 3),
        _mutated(doc, chain + ("k",), "1"),
        _mutated(doc, chain, 7),
        _mutated(doc, chain, ["ChainStep"]),
        _glue_nest(400),
        _glue_nest(150),
    ]
    manifold = json.loads(_glue_nest(0))
    probes += [_mutated(manifold, ("base_manifold", "hyperbolic"), v) for v in ("no", "false")]
    # only an AugmentedAlternating base reads "augmenting"
    probes += [_mutated(doc, ("augmenting",), [-9]), _mutated(doc, ("augmenting",), [1]),
               _mutated(manifold, ("augmenting",), [0])]
    for text in probes:
        code, out = _verify_contract(text)
        assert code == MALFORMED, out


def test_verify_reports_a_fault_of_a_field_in_its_own_words():
    """A document whose Conway sequence, PD text or premise kind is malformed
    exits 2 with the one ERROR line that names the fault itself."""
    doc = json.loads(_derivation_document())
    probes = [
        (("steps", 0, "evidence", "sequence"), [], "Conway sequence must be nonempty"),
        (("steps", 0, "evidence", "sequence"), [2, -3], "mixed-sign Conway sequence (2, -3)"),
        (("base_diagram",), "X(1,2,3", "bad crossing token: 'X'"),
        (("subject", "pd"), "X(1,2,3", "bad crossing token: 'X'"),
        (("steps", 2, "premise", "kind"), "NoSuchPremise", "unknown premise kind 'NoSuchPremise'"),
    ]
    for path, value, text in probes:
        assert run(["verify"], stdin_text=_mutated(doc, path, value)) == (
            MALFORMED, f"ERROR: {text}\n"), path


def test_verify_exits_2_on_a_chain_step_naming_other_than_two_strands(tmp_path):
    """A chain step whose strands repeat an arc of its pair, as [4, 8, 8] or
    [8, 4, 4, 8] on the 4-chain, is a malformed document: exit 2, not VALID."""
    from hyperforge.certificate import ChainStep, extend, serialize
    from hyperforge.classifier import DeclaredNonRational, menasco_certify
    from hyperforge.generators import ChainSpec, chain_link
    from hyperforge.moves import find_chain_sites

    cert = menasco_certify(chain_link(ChainSpec(4)))
    s = find_chain_sites(cert.subject)[0]
    doc = json.loads(serialize(extend(cert, ChainStep(
        s.trivial_component, (s.strand1, s.strand2), 0, DeclaredNonRational("declared")))))
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", str(path)])[0] == OK
    a, b = doc["steps"][0]["strands"]
    for strands in ([a, b, b], [b, a, a, b]):
        path.write_text(_mutated(doc, ("steps", 0, "strands"), strands))
        code, out = run(["verify", str(path)])
        assert code == MALFORMED and out.startswith("ERROR:") and "two strands" in out, out


def test_verify_refuses_an_oversized_chain_step_unbuilt():
    """A chain step whose |k| exceeds the subject's crossings exits 1 at its
    own index, before any Tk template is made."""
    import hyperforge.moves as moves

    doc = json.loads(_derivation_document())
    doc["steps"][0]["k"] = 10**9
    emitted = []
    parts = moves.TkTemplate.parts
    with mock.patch.object(moves.TkTemplate, "parts",
                           lambda template: emitted.append(template) or parts(template)):
        code, out = run(["verify"], stdin_text=json.dumps(doc))
    assert code == REFUSED
    assert out.startswith(
        f"certificate 0: INVALID at step 0: k={10**9} adds more crossings than the subject has\n")
    assert emitted == []


def test_verify_contract_on_mutated_certificates():
    """Every damaged document exits 0, 1 or 2, REFUSED: only with 1, and
    never raises: keys dropped, values retyped, step kinds swapped, arcs
    and counts tampered, glue steps nested."""
    doc = json.loads(_derivation_document())
    assert _verify_contract(json.dumps(doc))[0] == OK
    codes = set()
    for path in _paths(doc):
        if path[0] == "premises" and len(path) > 1:
            continue  # a summary that loading ignores: only the replay would run
        texts = [_mutated(doc, path, v) for v in (None, True, "x", -1, -1000, {})]
        if isinstance(path[-1], str):
            texts.append(_mutated(doc, path, None, drop=True))
        if path[-1] == "kind":
            texts += [_mutated(doc, path, k) for k in
                      ("ChainStep", "AugChainStep", "HalfTwistStep", "SwitchStep", "GlueStep")]
        for text in texts:
            codes.add(_verify_contract(text)[0])
    for depth in (1, 5, 60):
        codes.add(_verify_contract(_glue_nest(depth))[0])
    assert codes == {OK, REFUSED, MALFORMED}


def test_deeply_nested_certificate_exits_2_without_traceback(tmp_path):
    f = tmp_path / "deep.json"
    f.write_text(_glue_nest(400))
    proc = _cli_process(["verify", str(f)], stdin=subprocess.DEVNULL)
    assert proc.returncode == MALFORMED
    assert proc.stdout.startswith("ERROR:") and "Traceback" not in proc.stderr
