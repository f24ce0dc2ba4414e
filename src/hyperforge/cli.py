"""Command-line front end.

Exit codes: 0 success, 1 domain refusal (line prefixed ``REFUSED:``, or
``EXCLUDED:`` from classify-exterior), 2 malformed input.  Output is
byte-deterministic for identical inputs; timestamps are opt-in.  The
environment variable HYPERFORGE_STEP_BUDGET, when set, overrides the R1/R2
reduction budget of the `certify` command's certifier; a value that is not
a nonnegative integer is malformed input.  `verify` certifies a
certificate's base at the default budget whatever the variable says.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

# certificate, diagram, generators and moves are imported by the commands
# that use them, so that a command such as `fraction` starts without them.
from . import classifier as cls
from . import tangle as tg
from .errors import ExcludedExteriorError, FormatError, HyperforgeError

OK, REFUSED, MALFORMED = 0, 1, 2


def _budget() -> int:
    from . import diagram as dg

    raw = os.environ.get("HYPERFORGE_STEP_BUDGET")
    if raw is None:
        return dg.DEFAULT_STEP_BUDGET
    if not raw.strip().isdecimal():
        raise FormatError(f"HYPERFORGE_STEP_BUDGET must be a nonnegative integer, got {raw!r}")
    return int(raw)


def _ints(flag: str, text: str, pair: bool = False) -> tuple[int, ...]:
    """The integers of option ``flag``'s comma-separated value: exactly two
    when ``pair``, otherwise any number, blank items skipped."""
    items = text.split(",") if pair else [t for t in text.split(",") if t.strip()]
    try:
        values = tuple(int(t) for t in items)
    except ValueError:
        values = None
    if values is None or pair and len(values) != 2:
        want = "two integers" if pair else "comma-separated integers"
        raise FormatError(f"{flag} wants {want}, got {text!r}")
    return values


def _read_input(args, stdin_text: str) -> str:
    if getattr(args, "infile", None):
        with open(args.infile, "r", encoding="utf-8") as fh:
            return fh.read()
    return stdin_text


def _parse_evidence(text: str) -> cls.ExteriorEvidence:
    if text == "unchecked":
        return cls.Unchecked()
    kind, _, rest = text.partition(":")
    if kind == "rational":
        return cls.Rational(tg.ConwaySequence.parse(rest))
    if kind == "nonrational":
        return cls.DeclaredNonRational(rest or "declared by the caller")
    raise FormatError(
        f"evidence must be rational:SEQ, nonrational:TEXT, or unchecked, got {text!r}"
    )


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hyperforge", add_help=True)
    p.add_argument("--timestamps", action="store_true", help="prepend a timestamp line")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("fraction", help="continued-fraction value of a Conway sequence")
    q.add_argument("--seq", required=True)

    q = sub.add_parser("tangle-eq", help="are two Conway sequences the same tangle?")
    q.add_argument("--s1", required=True)
    q.add_argument("--s2", required=True)

    q = sub.add_parser("classify-exterior", help="exceptional-exterior check")
    q.add_argument("--fraction", required=True)
    q.add_argument("--k", type=int, required=True)

    q = sub.add_parser("parse", help="parse and reprint a PD or Gauss document")
    q.add_argument("infile", nargs="?")
    q.add_argument("--gauss", action="store_true", help="input is Gauss text")

    q = sub.add_parser("validate", help="run the diagram validator")
    q.add_argument("infile", nargs="?")

    q = sub.add_parser("convert", help="convert between PD and Gauss text")
    q.add_argument("infile", nargs="?")
    q.add_argument("--to", choices=("pd", "gauss"), required=True)

    q = sub.add_parser("gen", help="generate a named link family diagram")
    gsub = q.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("chain")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--twists", default="")
    g.add_argument("--alternating", dest="alternating", action="store_true", default=True)
    g.add_argument("--non-alternating", dest="alternating", action="store_false")
    g = gsub.add_parser("rational")
    g.add_argument("--seq", required=True)
    g = gsub.add_parser("tk")
    g.add_argument("--seq", required=True)
    g.add_argument("--k", type=int, default=0)
    g.add_argument("--extra-twists", type=int, default=0)

    q = sub.add_parser("apply", help="apply a move to a PD diagram")
    q.add_argument("infile", nargs="?")
    q.add_argument("--move", required=True,
                   choices=("chain", "augchain", "switch", "halftwist", "r1", "r1-undo", "r2", "r2-undo"))
    q.add_argument("--component", type=int)
    q.add_argument("--strands")
    q.add_argument("--k", type=int, default=0)
    q.add_argument("--evidence", default="unchecked")
    q.add_argument("--arcs")
    q.add_argument("--skew", choices=("pos", "neg"))
    q.add_argument("--direction", type=int, choices=(1, -1))
    q.add_argument("--arc", type=int)
    q.add_argument("--handedness", type=int, choices=(1, -1), default=1)
    q.add_argument("--crossing", type=int)
    q.add_argument("--crossings")
    q.add_argument("--layering", choices=("first_over", "second_over"), default="first_over")

    q = sub.add_parser("certify", help="run a base certifier on a PD diagram")
    q.add_argument("infile", nargs="?")
    q.add_argument("--base", choices=("menasco", "augmented"), default="menasco")
    q.add_argument("--augmenting", default="")

    q = sub.add_parser("verify", help="re-play certificates")
    q.add_argument("files", nargs="*")
    q.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored: certificates are "
                        "verified one at a time, in order")

    q = sub.add_parser("pipeline", help="run a command file threading named slots")
    q.add_argument("infile")
    q.set_defaults(running=frozenset())  # real paths of the enclosing scripts
    return p


def _cmd_fraction(args, _):
    return OK, str(tg.fraction(tg.ConwaySequence.parse(args.seq))) + "\n"


def _cmd_tangle_eq(args, _):
    same = tg.equivalent(tg.ConwaySequence.parse(args.s1), tg.ConwaySequence.parse(args.s2))
    return OK, ("equivalent\n" if same else "not-equivalent\n")


def _cmd_classify(args, _):
    f = tg.Fraction.parse(args.fraction)
    kind = cls.excluded_exterior(f, args.k)
    if kind is None:
        return OK, "admissible\n"
    return REFUSED, f"EXCLUDED: {kind.value}\n"


def _cmd_parse(args, stdin_text):
    from . import diagram as dg

    text = _read_input(args, stdin_text)
    if args.gauss:
        return OK, dg.format_gauss(dg.parse_gauss(text))
    return OK, dg.format_pd(dg.parse_pd(text))


def _cmd_validate(args, stdin_text):
    from . import diagram as dg

    d = dg.parse_pd(_read_input(args, stdin_text))
    rep = dg.validate(d)
    out = rep.summary() + "\n"
    return (OK, out) if rep.valid else (MALFORMED, out)


def _cmd_convert(args, stdin_text):
    from . import diagram as dg

    text = _read_input(args, stdin_text)
    if args.to == "gauss":
        d = dg.parse_pd(text)
        return OK, dg.format_gauss(dg.to_gauss(d))
    g = dg.parse_gauss(text)
    return OK, dg.format_pd(dg.from_gauss(g))


def _cmd_gen(args, _):
    from . import diagram as dg
    from . import generators as gen

    if args.family == "chain":
        twists = _ints("--twists", args.twists)
        d = gen.chain_link(gen.ChainSpec(args.n, twists, alternating=args.alternating))
    elif args.family == "rational":
        d = gen.rational_link(tg.ConwaySequence.parse(args.seq))
    else:
        d = gen.tk_closure(tg.ConwaySequence.parse(args.seq), args.k, args.extra_twists)
    return OK, dg.format_pd(d)


def _cmd_apply(args, stdin_text):
    from . import diagram as dg
    from . import moves as mv

    d = dg.parse_pd(_read_input(args, stdin_text))
    if args.move in ("chain", "augchain"):
        if args.component is None or not args.strands:
            raise FormatError("chain moves need --component N --strands a1,a2")
        site = mv.chain_site(d, args.component, _ints("--strands", args.strands, pair=True))
        ev = _parse_evidence(args.evidence)
        move = mv.chain_move if args.move == "chain" else mv.augmented_chain_move
        return OK, dg.format_pd(move(d, site, args.k, ev))
    if args.move == "switch":
        if not args.arcs or not args.skew:
            raise FormatError("switch needs --arcs g,g2 --skew pos|neg")
        g1, g2 = _ints("--arcs", args.arcs, pair=True)
        h = mv.Handedness.PositiveSkew if args.skew == "pos" else mv.Handedness.NegativeSkew
        return OK, dg.format_pd(mv.switch_move(d, mv.SwitchSite(g1, g2), h))
    if args.move == "halftwist":
        if args.component is None or args.direction is None:
            raise FormatError("halftwist needs --component N --direction +1|-1")
        return OK, dg.format_pd(mv.half_twist(d, args.component, args.direction))
    if args.move == "r1":
        return OK, dg.format_pd(dg.reidemeister1(d, args.arc, args.handedness))
    if args.move == "r1-undo":
        if args.crossing is None:
            raise FormatError("r1-undo needs --crossing N")
        return OK, dg.format_pd(dg.reidemeister1_undo(d, args.crossing))
    if args.move == "r2":
        if not args.arcs:
            raise FormatError("r2 needs --arcs a,b")
        a, b = _ints("--arcs", args.arcs, pair=True)
        return OK, dg.format_pd(dg.reidemeister2(d, (a, b), args.layering))
    if args.move == "r2-undo":
        if not args.crossings:
            raise FormatError("r2-undo needs --crossings i,j")
        i, j = _ints("--crossings", args.crossings, pair=True)
        return OK, dg.format_pd(dg.reidemeister2_undo(d, (i, j)))
    raise FormatError(f"unknown move {args.move!r}")


def _cmd_certify(args, stdin_text):
    from . import certificate as cert_mod
    from . import diagram as dg

    d = dg.parse_pd(_read_input(args, stdin_text))
    budget = _budget()
    if args.base == "menasco":
        result = cls.menasco_certify(d, budget)
    else:
        augmenting = frozenset(_ints("--augmenting", args.augmenting))
        result = cls.augmented_alternating_certify(d, augmenting, budget)
    if isinstance(result, cls.Refusal):
        return REFUSED, f"REFUSED: {result}\n"
    return OK, cert_mod.serialize(result)


def _cmd_verify(args, stdin_text):
    from . import certificate as cert_mod

    texts = []
    if args.files:
        for path in args.files:
            with open(path, "r", encoding="utf-8") as fh:
                texts.append(fh.read())
    else:
        texts.append(stdin_text)
    lines = []
    all_valid = True
    for i, text in enumerate(texts):
        v = cert_mod.verify(cert_mod.deserialize(text))
        if v.valid:
            lines.append(f"certificate {i}: VALID")
            for note in v.trusted_premises:
                lines.append(f"  trusted: {note}")
        else:
            all_valid = False
            where = "base" if v.failed_step == -1 else f"step {v.failed_step}"
            lines.append(f"certificate {i}: INVALID at {where}: {v.reason}")
    out = "\n".join(lines) + "\n"
    if not all_valid:
        out += "REFUSED: certificate-invalid\n"
        return REFUSED, out
    return OK, out


def _cmd_pipeline(args, _):
    path = os.path.realpath(args.infile)
    if path in args.running:
        raise FormatError(f"pipeline script {args.infile} is already running")
    with open(args.infile, "r", encoding="utf-8") as fh:
        script = fh.read()
    slots: dict[str, str] = {}
    transcript = []
    for raw in script.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name = None
        left, _, right = line.partition("=")
        if left.strip().isidentifier() and right.strip():
            name, line = left.strip(), right.strip()
        argv = line.split()
        stdin_text = ""
        resolved = []
        for tok in argv:
            if tok.startswith("@"):
                slot = tok[1:]
                if slot not in slots:
                    raise FormatError(f"pipeline references unknown slot @{slot}")
                stdin_text = slots[slot]
            else:
                resolved.append(tok)
        transcript.append(f"$ {line}")
        nested, code = _parse_args(resolved)
        out = ""
        if nested is not None:
            # so that a script that runs itself, even through another, is refused
            nested.running = args.running | {path}
            code, out = _execute(nested, stdin_text)
        transcript.append(out.rstrip("\n"))
        transcript.append(f"[exit {code}]")
        if code != OK:
            return code, "\n".join(transcript) + "\n"
        if name:
            slots[name] = out
    return OK, "\n".join(transcript) + "\n"


_COMMANDS = {
    "fraction": _cmd_fraction,
    "tangle-eq": _cmd_tangle_eq,
    "classify-exterior": _cmd_classify,
    "parse": _cmd_parse,
    "validate": _cmd_validate,
    "convert": _cmd_convert,
    "gen": _cmd_gen,
    "apply": _cmd_apply,
    "certify": _cmd_certify,
    "verify": _cmd_verify,
    "pipeline": _cmd_pipeline,
}


def _value_flags(parser: argparse.ArgumentParser) -> set[str]:
    """The option strings that take a value, in ``parser`` and its subcommands."""
    flags: set[str] = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _value_flags(sub)
        elif action.nargs != 0:
            flags.update(action.option_strings)
    return flags


def _join_negative_values(argv, value_flags):
    """Let value flags accept arguments starting with '-' (e.g. -3/1)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in value_flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, set[str]]:
    """The parser and its value flags, built on first use and then reused:
    parsing keeps no state in the parser, as every parse starts a fresh
    namespace from the defaults."""
    parser = _build_parser()
    return parser, _value_flags(parser)


def _parse_args(argv):
    """(namespace, None), or (None, exit code) when argparse exits."""
    parser, value_flags = _parser()
    try:
        return parser.parse_args(_join_negative_values(list(argv), value_flags)), None
    except SystemExit as exc:
        # argparse already printed to stderr; normalize the exit code
        return None, (MALFORMED if exc.code not in (0, None) else OK)


def _reads_stdin(args) -> bool:
    """Whether the parsed command takes its input from stdin."""
    if args.command == "verify":
        return not args.files
    return args.command != "pipeline" and hasattr(args, "infile") and not args.infile


def run(argv, stdin_text: str = "") -> tuple[int, str]:
    """Execute a command line; returns (exit code, output text)."""
    args, code = _parse_args(argv)
    if args is None:
        return code, ""
    return _execute(args, stdin_text)


def _execute(args, stdin_text: str) -> tuple[int, str]:
    header = ""
    if args.timestamps:
        header = f"# {time.strftime('%Y-%m-%dT%H:%M:%S')}\n"
    try:
        code, out = _COMMANDS[args.command](args, stdin_text)
        return code, header + out
    except ExcludedExteriorError as err:
        return REFUSED, header + f"REFUSED: excluded-exterior {err.kind.value}\n"
    except (HyperforgeError, OSError, ValueError) as err:
        return MALFORMED, header + f"ERROR: {err}\n"


def main() -> None:
    args, code = _parse_args(sys.argv[1:])
    if args is None:
        sys.exit(code)
    # a command given its input as files must not wait on an open stdin
    stdin_text = ""
    if _reads_stdin(args) and not sys.stdin.isatty():
        stdin_text = sys.stdin.read()
    code, out = _execute(args, stdin_text)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
