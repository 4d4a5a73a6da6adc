"""Stabilization calculus for Legendrian knots and their connected sums.

The package models Legendrian-simple knot types as mountain ranges over the
(tb, r) lattice, builds connected sums as quotients of factor tuples by
stabilization transfer and permutation moves, searches for connecting path
words, and evaluates a closed-form simplicity criterion against an exact
window check, which reads generator components at boxed points and walks
tuples only at points of several classes.
"""

from .errors import (
    InvalidSummand,
    InvariantMismatch,
    LegsumError,
    LengthMismatch,
    MisplacedValley,
    MultiplicityMismatch,
    NonIntegralValley,
    NotAMember,
    NotApplicable,
    ParseError,
    RangeInvalid,
    SchemaError,
    Truncated,
    WindowEmpty,
    WindowTooShallow,
    WrongPeakCount,
)
from .ranges import (
    NEG,
    POS,
    Membership,
    MountainRange,
    Peak,
    SimpleClass,
    ValidationReport,
    Valley,
    Violation,
    make_range,
)
from .sums import (
    SumSpec,
    Summand,
    TupleClass,
    build_quotient,
    canonicalize_tuple,
    enumerate_fiber,
    iter_canonical_tuples,
    peaks_of_sum,
)
from .poset import (
    DichotomyVerdict,
    Edge,
    NonsimpleReport,
    PosetNode,
    QuotientPoset,
    check_nmax_dichotomy,
    classify_nmax_point,
    detect_peaks,
    detect_valleys,
    find_nmax,
    nonsimple_points,
    nonsimple_report,
    structure_violations,
)
from .paths import (
    PathLetter,
    PathWord,
    check_multipath,
    concat,
    find_connecting_path,
    format_word,
    parse_word,
    realize,
)
from .simplicity import (
    CanonicalForm,
    CriterionVerdict,
    WindowVerdict,
    WitnessPair,
    XYInvariants,
    canonical_form,
    criterion,
    form_point,
    form_tuple,
    nonsimplicity_witness,
    peak_count_formula,
    simplicity_in_window,
    xy_invariants,
)
from .render import RenderSpec, render, render_ascii, render_svg
from .documents import (
    catalog,
    dump_json,
    parse_inline_sum,
    parse_knot_document,
    parse_sum_document,
    serialize_knot,
    serialize_sum,
    to_jsonable,
)

__version__ = "0.1.0"
