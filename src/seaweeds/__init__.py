"""Index and homotopy type of seaweed subalgebras of sl(n) via meanders.

A seaweed type is an ordered pair of compositions of n.  Its meander is a
graph on n collinear vertices whose components determine the index
(2*cycles + paths - 1); winding the meander down through five deterministic
moves yields its signature and homotopy type.  The package pairs these
computations with exhaustive censuses that verify every closed-form count,
recursion, generating function, and gcd/totient formula it ships.

The public names below load lazily (PEP 562): importing the package imports
no submodule, and a name's module is imported the first time the name is
read, so a request through seaweeds.cli compiles only the modules it runs.
"""

from importlib import import_module

# Each public name, by the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "compositions": (
            "Composition", "SeaweedType", "all_compositions", "all_pairs",
            "composition_from_bitmask", "format_composition",
            "format_seaweed_type", "parse_composition", "parse_seaweed_type",
        ),
        "enumeration": (
            "IndexTable", "build_table", "census_c21", "census_c22",
            "census_cnk", "census_cnk_exhaustive", "census_cnk_naive",
            "diff_golden", "homotopy_census", "load_golden", "table_from_csv",
        ),
        "errors": ("LimitExceeded", "ParseError", "UsageError"),
        "formulas": (
            "IdentityAuditRow", "c21", "c22", "c_diag1", "c_diag2", "c_diag3",
            "c_diag3_longform", "case_terms", "coprime_sum", "euler_phi",
            "gcd_index_2parts", "gcd_index_3parts", "identity_audit",
            "identity_k2_2k", "identity_k2_2k_fitted", "identity_k2_2k_sides",
            "identity_k2k", "identity_k2k_sides", "recursion_check",
            "recursion_lhs",
        ),
        "genfunc": (
            "RationalGF", "builtin_gfs", "denominator_power_of_1_minus_2x",
            "format_gf", "format_poly", "gf_coefficients",
            "gf_coefficients_by_division", "parse_gf", "parse_poly",
            "poly_add", "poly_mul", "poly_pow", "poly_trim",
        ),
        "meander": (
            "ComponentSummary", "Meander", "build_meander", "component_summary",
            "meander_svg", "meander_tikz", "seaweed_dimension", "seaweed_index",
            "seaweed_rank",
        ),
        "verify": ("VerifySuiteReport", "run_suite"),
        "winding": (
            "HomotopyType", "Move", "Signature", "format_signature",
            "homotopy_components", "homotopy_index", "parse_homotopy_type",
            "parse_signature", "wind_down", "wind_step",
        ),
    }.items()
    for name in names
}
_MODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module of a public name on its first read and keep the
    value here.  A module of _MODULES reads as the submodule itself, as it
    did when the package imported them all."""
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value
