"""Exact invariants of foliated projective bundles, cones and weighted
projective spaces: closed forms, constructive synthesis, and machine
verification against an enumeration oracle.

Every public name is listed once, under the module that defines it, and
that module is imported on the name's first access (PEP 562), so
`import foliadex.lattice` loads lattice and its own imports only.  Any
other name raises AttributeError, so `from foliadex import jsontext` and
hasattr still fall back to importing the submodule of that name.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("FoliadexError", "ParseError", "DomainError", "UnsupportedRequest"),
    "lattice": ("parse_rational", "render_rational", "Class2", "Cone2", "Membership", "content"),
    "bundle": (
        "BundleVariety", "Positivity", "IndexWitness", "nef_cone", "pseff_cone",
        "classify_divisor", "relative_anticanonical", "generalized_index", "fano_index",
        "seshadri_polarization",
    ),
    "rankone": (
        "GeneralizedCone", "PolarizedBase", "RankOneClass", "SingularityClass",
        "WeightedProjectiveSpace", "projective_space", "projective_space_base", "cartier_index",
        "seshadri_of_generator", "rank_one_positivity", "pushforward_to_cone",
        "rank_one_invariants",
    ),
    "foliation": (
        "ConeInduced", "CoordinateProjection", "FibrationInduced", "FoliationDescriptor",
        "PnCatalogCase1", "PnCatalogCase2", "PullbackOverBundle", "TranscendentalRankOne",
        "LeafStatus", "fibration_foliation", "pullback_over_bundle", "pn_foliation",
        "transcendental_rank1", "wps_coordinate_foliation", "cone_foliation",
    ),
    "invariants": ("ambient_is_smooth", "compute_invariants"),
    "oracle": ("oracle_generalized_index", "kernel_backend"),
    "report": ("InvariantReport", "CheckStatus", "CheckOutcome", "CheckReport", "SweepReport"),
    "synthesis": (
        "SynthKind", "SynthesisRequest", "CaseParameters", "ExampleRecord", "case1_parameters",
        "synthesize", "synth_generalized_index", "synth_fano_index", "synth_seshadri",
    ),
    "families": (
        "wps1_record", "wps2_record", "wps3_record", "wps4_record", "cone_table_record",
        "mixed_record", "rc_genus_record", "rc_flat_record",
    ),
    "verification": (
        "check_record", "verify_record", "verify_catalog", "run_sweep", "OracleGrid", "SynthGrid",
    ),
    "catalog": (
        "Catalog", "SCHEMA_VERSION", "export_catalog", "import_catalog", "record_to_json",
        "standard_catalog", "write_catalog",
    ),
    "tables": ("FAMILY_PARAMS", "TableRow", "parse_range", "table_rows"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
