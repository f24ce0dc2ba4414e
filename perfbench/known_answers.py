"""Hand-written known answers for every generated input family.

Each row gives the verdict a correct program must return and the
mathematical reason.  The rows do not come from running hyperforge: if the
program disagrees with a row, the row stands, the item counts as failed and
the run reports `correct: false`.

Conventions used in the reasons: a Conway sequence [a1, ..., an] has the
continued fraction an + 1/(a(n-1) + 1/(... + 1/a1)) (so [-2, 0] is -1/2);
`menasco_certify` accepts exactly the reduced, prime, alternating, non-split
diagrams that are not a (2, n) torus-link diagram, because Menasco's theorem
makes the links of such diagrams hyperbolic and a diagram outside that class
carries no such guarantee.
"""

from __future__ import annotations

from fractions import Fraction

ACCEPT = "ACCEPT"
REFUSED = "REFUSED"  # any refusal reason

# certify_bases: family -> (expected verdict, reason)
CERTIFY_FAMILIES = {
    "alternating_chain": (
        ACCEPT,
        "chain_link(n), n >= 4, with gap twists of sign <= 0: each ring meets "
        "over and under crossings in turn, no crossing is nugatory, every "
        "2-edge cut of the cyclic chain separates no crossings, and with "
        ">= 3 rings it is not a (2, n) torus diagram; so it is reduced, "
        "prime and alternating, and Menasco makes the link hyperbolic.",
    ),
    "nonalternating_chain": (
        "NotAlternating",
        "chain_link(n, alternating=False) flips the first clasp: its two "
        "crossings swap over and under, so each ring through it meets two "
        "crossings of the same type in a row.  The diagram is still reduced "
        "and prime, so the first failing test is alternation.",
    ),
    "gap_twisted_chain": (
        "NotAlternating",
        "a gap twist of positive sign is drawn with the crossing type "
        "opposite to the one the clasps impose along the ring, so the ring "
        "passes two over-crossings (or two under-crossings) in a row where "
        "the twist meets a clasp.  Reduced and prime, not alternating.",
    ),
    "rational_one_entry": (
        "TwoBraid",
        "the numerator closure of one twist region of n crossings is the "
        "standard diagram of the (2, n) torus link T(2, n), which is not "
        "hyperbolic; the 2-braid test recognises the diagram itself.",
    ),
    "rational_multi_entry": (
        ACCEPT,
        "2 to 5 entries of one sign, each |a_i| >= 2: the alternating "
        "rational diagram is reduced and prime (Kauffman-Lambropoulou), and "
        "its fraction p/q has q != +-1 mod p (checked when the input is "
        "made), so the 2-bridge link is not a torus link and is hyperbolic.",
    ),
    "tk_exceptional": (
        REFUSED,
        "tk_closure(s, k) with fraction(s) + k in {inf, 0, -1, -1/2} is "
        "one of the four exceptional links (the Tk identity moves the k "
        "twists onto the tangle).  They are composite, Seifert-fibred or "
        "toroidal, never hyperbolic, so a sound certifier must refuse.",
    ),
    "kinked_chain": (
        "NotPrime",
        "an R1 kink on an alternating chain joins the kink crossing to the "
        "rest by exactly two arcs; those arcs are a 2-edge cut with "
        "crossings on both sides, and primality is tested before "
        "reducedness.",
    ),
    "r2_pushed_chain": (
        "NotAlternating",
        "an R2 push lays one strand over the other at both new crossings, "
        "so the lower strand passes under twice in a row.  The push creates "
        "no 2-edge cut and no nugatory crossing, so alternation fails first.",
    ),
}

# replay_verify: document kind -> (expected verdict, reason)
REPLAY_KINDS = {
    "honest": (
        "VALID",
        "built by extend() from an accepted base with admissible or "
        "declared evidence and GeodesicArc premises; verify() replays the "
        "same moves, so every gate passes and the final diagram is the "
        "subject itself.",
    ),
    "excluded_exterior": (
        "INVALID at step i",
        "step i's evidence is replaced by Rational([-k]); its fraction -k "
        "is the MinusK exclusion for the k-template, so the gate refuses "
        "step i before it is replayed (as acceptance test 8 does).",
    ),
    "swapped_subject": (
        "INVALID at step len(steps)",
        "the subject is replaced by the subject of a derivation with a "
        "different crossing count; every step replays, and the final "
        "diagram cannot be isomorphic to a diagram of another size.",
    ),
}

# cli_pipeline: command class -> (exit code, stdout expectation, reason)
CLI_CLASSES = {
    "gen": (0, "PD text with the family's crossing count",
            "chain: 2n + sum|t|; rational: sum|a_i|; tk: 6 + |k| + sum|s_i|."),
    "validate": (0, "a valid-diagram summary",
                 "generator output is a valid diagram."),
    "convert": (0, "Gauss text, then PD text with as many crossings",
                "PD -> Gauss -> PD keeps every crossing."),
    "apply": (0, "PD text with the move's crossing count",
              "chain: +2 + |k|; halftwist: +1; switch: +4 (neg) or +5 (pos); "
              "r1: +1; r2: +2."),
    "certify": (0, "a MenascoAlternating certificate",
                "an accept row of the certify_bases table."),
    "verify": (0, "'certificate 0: VALID'",
               "the input is the certify output of the previous command."),
    "verify_jobs": (0, "one VALID line per file",
                    "honest documents, as in replay_verify."),
    "verify_jobs_tampered": (1, "one INVALID line at the tampered step, VALID for "
                                "the others, then 'REFUSED: certificate-invalid'",
                             "one tampered document, as in replay_verify."),
    "pipeline": (0, "a transcript whose every command ends in '[exit 0]'",
                 "each script line is one of the classes above."),
    "fraction": (0, "the continued fraction of the sequence",
                 "computed independently in this benchmark."),
    "malformed_doc": (2, "'ERROR:' or an invalid-diagram summary",
                      "an arc label that occurs once, a cut-off crossing "
                      "token, or junk text is not a PD document."),
    "mixed_sign_seq": (2, "'ERROR:'",
                       "Conway entries must share one sign."),
    "excluded_classify": (1, "'EXCLUDED: <kind>'",
                          "fraction -k, -(k+1), -k-1/2 or inf is excluded at k."),
    "excluded_apply": (1, "'REFUSED: excluded-exterior MinusK'",
                       "Rational([-k]) evidence is excluded at k."),
    "refused_certify": (1, "'REFUSED: <reason>'",
                        "a refusal row of the certify_bases table."),
}

# SHA-256 of the concatenated stdout of the reference CLI session (seed 0),
# recorded at the commit that added this benchmark.  This is a recorded
# regression guard for byte-determinism, not an independent oracle: it only
# says the bytes have not changed since then.
RECORDED_CLI_DIGEST = "d543d7a3a7b53687d5b1240e61c456a7df4148c974f57562e529433640589c58"


def continued_fraction(entries) -> Fraction | None:
    """an + 1/(a(n-1) + ...), read from a1; None stands for infinity."""
    value: Fraction | None = None
    for a in entries:
        if value is None:
            value = Fraction(a)
        elif value == 0:
            value = None
        else:
            value = a + 1 / value
    return value


def is_torus_fraction(value: Fraction) -> bool:
    """A 2-bridge link p/q is a (2, p) torus link iff q = +-1 mod p."""
    p, q = abs(value.numerator), abs(value.denominator)
    return p <= 1 or q % p in (1, p - 1)
