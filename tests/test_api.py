"""The public surface of the ``legsum`` package."""

import types

import legsum

# Every public name the package exports; a removed alias that comes back, or
# a new export, has to be listed here on purpose.
PUBLIC_NAMES = {
    # errors
    "InvalidSummand", "InvariantMismatch", "LegsumError", "LengthMismatch",
    "MisplacedValley", "MultiplicityMismatch", "NonIntegralValley", "NotAMember",
    "NotApplicable", "ParseError", "RangeInvalid", "SchemaError", "Truncated",
    "WindowEmpty", "WindowTooShallow", "WrongPeakCount",
    # ranges
    "NEG", "POS", "Membership", "MountainRange", "Peak", "SimpleClass",
    "ValidationReport", "Valley", "Violation", "make_range",
    # sums
    "SumSpec", "Summand", "TupleClass", "build_quotient", "canonicalize_tuple",
    "enumerate_fiber", "iter_canonical_tuples", "peaks_of_sum",
    # poset
    "DichotomyVerdict", "Edge", "NonsimpleReport", "PosetNode", "QuotientPoset",
    "check_nmax_dichotomy", "classify_nmax_point", "detect_peaks", "detect_valleys",
    "find_nmax", "nonsimple_points", "nonsimple_report", "structure_violations",
    # paths
    "PathLetter", "PathWord", "check_multipath", "concat", "find_connecting_path",
    "format_word", "parse_word", "realize",
    # simplicity
    "CanonicalForm", "CriterionVerdict", "WindowVerdict", "WitnessPair", "XYInvariants",
    "canonical_form", "criterion", "form_point", "form_tuple", "nonsimplicity_witness",
    "peak_count_formula", "simplicity_in_window", "xy_invariants",
    # render
    "RenderSpec", "render", "render_ascii", "render_svg",
    # documents
    "catalog", "dump_json", "parse_inline_sum", "parse_knot_document",
    "parse_sum_document", "serialize_knot", "serialize_sum", "to_jsonable",
}


def test_public_names_are_pinned():
    names = {
        name
        for name, value in vars(legsum).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES
