"""Exact computer algebra over small prime fields, with a verification suite.

The package provides sparse multivariate polynomial arithmetic over F_p,
formal derivations, Groebner-basis computations (with a compiled kernel
and a pure-Python fallback), elimination-based ring-map kernels, Jacobian
smoothness certificates, exact surface-invariant arithmetic, and a
fourteen-check verification suite driven by versioned fixture data.

The public names resolve lazily (PEP 562): ``import godeaux`` loads no
submodule, and ``godeaux.X`` imports the module that defines ``X`` on
first use.  The result is not cached here, so a name always reads the
defining module's current value.
"""

import sys

__version__ = "1.0.0"

#: Submodule -> the public names it defines, in ``__all__`` order.
_EXPORTS = {
    "backend": ("available_backends", "selected_name"),
    "derivations": (
        "Derivation", "apply", "chart_transform", "fixed_locus_ideal",
        "format_derivation", "graded_kernel", "iterate_power",
        "parse_derivation", "vector_reduce"),
    "errors": (
        "BudgetExceeded", "ContextError", "DivisibilityError", "EngineError",
        "GradingError", "ParseError", "TransformError"),
    "fixtures": ("FixtureSet", "load_fixtures"),
    "groebner": (
        "DEFAULT_BUDGET", "INCONCLUSIVE", "SMOOTH", "SMOOTH_ON_LOCUS",
        "CombinationWitness", "GroebnerBasis", "KernelPresentation",
        "SmoothnessCertificate", "buchberger", "eliminate", "ideal_member",
        "jacobian_minors", "jacobian_smoothness", "radical_member", "reduce",
        "ring_map_kernel", "spolynomial"),
    "numerics": (
        "InvariantRecord", "betti_consistency", "chi_of_anticanonical_power",
        "descend_invariants", "e1_degeneration_check",
        "feasible_characteristics", "hypersurface_invariants",
        "noether_check", "self_intersection_from_chis",
        "torsion_order_bound", "torsor_invariants"),
    "rings": (
        "DEGREVLEX", "LEX", "MonomialOrder", "PolyRing", "Polynomial",
        "block_order", "dehomogenize", "format_poly", "frobenius_power",
        "homogenize", "is_prime", "laurent_normalize", "monomial_basis",
        "parse_poly", "substitute"),
    "suite": (
        "CHECK_IDS", "DEFAULT_SEED", "MUTATIONS", "CheckResult", "Mutation",
        "report", "run_all", "verify_witness"),
}

#: Public name -> the full name of the module that defines it.
_MODULE_OF = {name: f"{__name__}.{module}"
              for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    if module not in sys.modules:
        __import__(module)
    return getattr(sys.modules[module], name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
