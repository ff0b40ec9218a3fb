"""spherecp: exact K-theoretic invariants of bundle algebras over spheres.

Given a rank-d vector bundle over S^n by its K-class data, this package
computes the K-groups of the associated isometry-bundle algebra in exact
integer arithmetic, decides graded stable isomorphism within a fixed
(sphere, rank) family, and provides a decidable word calculus for the
algebra on d isometries.  See the README for the CLI.
"""

from .bundles import (
    BundleSpecError,
    NonpositiveDimension,
    OddSphereNonzeroClass,
    RankTooSmall,
    SphereBundleSpec,
    k_class,
    load_spec,
    parse_spec,
    validate,
)
from .classify import (
    ClassificationReport,
    ComparisonError,
    DimensionMismatch,
    RankMismatch,
    classify_report,
    delta1_equal,
    graded_stably_isomorphic,
    k_distinguishable,
    report_to_dict,
)
from .cuntz_words import (
    BaseMismatchError,
    CuntzElement,
    ExpressionParseError,
    generator,
    parse_expression,
)
from .fgab import (
    FgAbGroup,
    IntMatrix,
    MatrixParseError,
    SnfDecomposition,
    cokernel,
    group_order,
    groups_isomorphic,
    invariant_factors,
    kernel,
    parse_matrix,
    smith_normal_form,
)
from .ktheory import (
    Delta1Class,
    TruncPoly,
    delta1_class,
)
from .pimsner import (
    EvenSphereRequired,
    KGroupPair,
    k_groups,
    k_groups_trivial,
    pimsner_matrix,
)

__version__ = "0.1.0"

__all__ = [
    # fgab
    "IntMatrix", "SnfDecomposition", "FgAbGroup", "MatrixParseError",
    "smith_normal_form", "invariant_factors", "cokernel", "kernel", "group_order",
    "groups_isomorphic", "parse_matrix",
    # ktheory
    "TruncPoly", "Delta1Class", "delta1_class",
    # bundles
    "SphereBundleSpec", "BundleSpecError", "NonpositiveDimension",
    "RankTooSmall", "OddSphereNonzeroClass", "validate", "k_class",
    "parse_spec", "load_spec",
    # pimsner
    "KGroupPair", "EvenSphereRequired", "pimsner_matrix", "k_groups",
    "k_groups_trivial",
    # classify
    "ComparisonError", "DimensionMismatch", "RankMismatch",
    "ClassificationReport", "delta1_equal", "graded_stably_isomorphic",
    "k_distinguishable", "classify_report", "report_to_dict",
    # cuntz_words
    "CuntzElement", "BaseMismatchError", "ExpressionParseError",
    "generator", "parse_expression",
]
