"""hyperforge: a link-diagram rewriting toolkit.

Combinatorial moves on planar diagram (PD) codes -- chain move, augmented
chain move, switch move, half-twist -- gated by a rational-tangle exterior
classifier, with machine-checkable hyperbolicity certificates replayed from
known base cases.

All values are immutable; every operation is a pure function returning new
values, so everything here can be freely shared between threads.

The first look-up of a public name on the package imports every
submodule, and a submodule looked up by name is imported alone, so
``python -m hyperforge.cli`` loads only the modules its command needs.
"""

import importlib

# The public names, by the submodule they are taken from.
_EXPORTS = {
    "diagram": (
        "Crossing",
        "LinkDiagram",
        "GaussCode",
        "ValidityReport",
        "validate",
        "components",
        "linking_number",
        "is_alternating",
        "is_reduced",
        "is_split",
        "is_prime_diagram",
        "is_2braid",
        "two_braid_status",
        "reidemeister1",
        "reidemeister1_undo",
        "reidemeister2",
        "reidemeister2_undo",
        "reduce_diagram",
        "diagram_isomorphic",
        "to_gauss",
        "from_gauss",
        "parse_pd",
        "format_pd",
        "parse_gauss",
        "format_gauss",
    ),
    "tangle": (
        "ConwaySequence",
        "Fraction",
        "TangleDiagram",
        "fraction",
        "rotate",
        "equivalent",
        "to_alternating_diagram",
        "boundary_twists",
        "numerator_closure",
    ),
    "moves": (
        "ChainSite",
        "SwitchSite",
        "Handedness",
        "TkTemplate",
        "find_chain_sites",
        "chain_move",
        "augmented_chain_move",
        "switch_move",
        "half_twist",
    ),
    "classifier": (
        "ExceptionKind",
        "Refusal",
        "Rational",
        "DeclaredNonRational",
        "Unchecked",
        "excluded_exterior",
        "exception_base_set",
        "menasco_certify",
        "augmented_alternating_certify",
    ),
    "certificate": (
        "ExteriorEvidence",
        "Premise",
        "Certificate",
        "AbstractManifold",
        "Step",
        "ChainStep",
        "AugChainStep",
        "SwitchStep",
        "HalfTwistStep",
        "GlueStep",
        "Verdict",
        "extend",
        "verify",
        "glue",
        "serialize",
        "deserialize",
    ),
    "generators": ("ChainSpec", "chain_link", "twisted_5chain", "rational_link", "tk_closure",
                   "exceptional_links"),
    "errors": (
        "HyperforgeError",
        "FormatError",
        "InvalidDiagramError",
        "SiteError",
        "WiringError",
        "MixedSignError",
        "ExcludedExteriorError",
        "PremiseError",
        "CertificateError",
        "GlueError",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def _load():
    """Import every submodule and bind the public names on the package."""
    for module, names in _EXPORTS.items():
        mod = importlib.import_module(f".{module}", __name__)
        for name in names:
            globals()[name] = getattr(mod, name)


def __getattr__(name):
    # Called only for names not yet bound: before the first _load(), or
    # for a name the package does not have.  A submodule is imported by
    # itself, as `from . import diagram` in a sibling module expects.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in __all__:
        _load()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
