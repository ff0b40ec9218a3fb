"""Decision procedures for graded stable isomorphism of bundle algebras.

Two rank-d bundles over the same sphere give graded stably isomorphic
algebras exactly when their grade-one invariants agree, which over an
even sphere is the same as their K-classes agreeing, i.e. the same
euler parameter.  Over an odd sphere every rank-d bundle collapses to
the trivial one.  Comparisons across different sphere dimensions or
different ranks are refused rather than answered: the invariant calculus
is only calibrated within a fixed (sphere, rank) family.

K-group comparison (:func:`k_distinguishable`) is strictly weaker: a
difference in K0 certifies non-isomorphism, but equal K0 decides
nothing.  At rank 2 the K0 group is trivial for *every* euler parameter,
so K-theory alone is blind there while the grade-one invariant still
separates the classes.
"""

from __future__ import annotations

from collections import namedtuple

from .bundles import SphereBundleSpec, spec_to_dict
from .fgab import SpherecpInputError, _int_text, _trusted
from .ktheory import _class_rows, delta1_class, k_class
from .pimsner import _k0, k_groups, k_groups_trivial

__all__ = [
    "ComparisonError",
    "DimensionMismatch",
    "RankMismatch",
    "ClassificationReport",
    "delta1_equal",
    "graded_stably_isomorphic",
    "k_distinguishable",
    "classify_report",
    "report_to_dict",
    "CAVEAT_DELTA0",
    "CAVEAT_REALIZABILITY",
    "CAVEAT_TRIVIAL_CLASS",
    "CAVEAT_ODD_COLLAPSE",
    "CAVEAT_INCONCLUSIVE",
]


class ComparisonError(SpherecpInputError):
    """The two specs are not comparable by this calculus."""


class DimensionMismatch(ComparisonError):
    pass


class RankMismatch(ComparisonError):
    pass


def _check_comparable(a: SphereBundleSpec, b: SphereBundleSpec) -> None:
    if a.sphere_dim != b.sphere_dim:
        raise DimensionMismatch(
            f"cannot compare bundles over different spheres: "
            f"S^{_int_text(a.sphere_dim)} vs S^{_int_text(b.sphere_dim)}"
        )
    if a.rank != b.rank:
        raise RankMismatch(
            f"cannot compare bundles of different rank: {_int_text(a.rank)} vs {_int_text(b.rank)} "
            "(the grade-one invariant is only calibrated within a fixed rank)"
        )


def delta1_equal(a: SphereBundleSpec, b: SphereBundleSpec) -> bool:
    """Do the grade-one invariants agree?  Requires same sphere and rank.

    It compares the rows of the two invariant matrices (multiplication
    by each K-class, laid out by :func:`~spherecp.ktheory._class_rows`),
    which are the matrices :func:`~spherecp.ktheory.delta1_class` would
    build, and builds no value.
    """
    _check_comparable(a, b)
    rows = _class_rows(a.sphere_dim, a.rank, a.euler_param)
    return rows == _class_rows(b.sphere_dim, b.rank, b.euler_param)


def graded_stably_isomorphic(a: SphereBundleSpec, b: SphereBundleSpec) -> bool:
    """Graded stable isomorphism of the two bundle algebras.

    Even sphere: equivalent to equality of the K-classes.  Odd sphere:
    always true once the preconditions (same sphere, same rank) hold,
    since the K-class degenerates to the rank.  The K-classes are
    compared as their (rank, euler) coordinates, so no value is built.
    """
    _check_comparable(a, b)
    return (a.rank, a.euler_param) == (b.rank, b.euler_param)


def k_distinguishable(a: SphereBundleSpec, b: SphereBundleSpec) -> bool:
    """Does K0 alone already separate the two algebras?

    True is conclusive (the algebras cannot be stably isomorphic, graded
    or not).  False is *inconclusive*: equal K-groups do not imply
    isomorphism -- the grade-one invariant is strictly finer.  Each K0
    is compared as its (free rank, torsion) pair, so no group is built.
    """
    return _k0(a) != _k0(b)


CAVEAT_DELTA0 = (
    "the grade-zero invariant delta0 vanishes for every bundle algebra over a "
    "sphere, so the grade-one invariant carries all the grading data"
)
CAVEAT_REALIZABILITY = (
    "euler parameter is a K-class parameter; whether a geometric rank-d bundle "
    "realizes this class over this sphere is not decided here"
)
CAVEAT_TRIVIAL_CLASS = "spec is the trivial class"
CAVEAT_ODD_COLLAPSE = (
    "odd sphere: the reduced K-group of the base vanishes, so all bundles of "
    "this rank give graded stably isomorphic algebras"
)
CAVEAT_INCONCLUSIVE = (
    "K0 matches the trivial comparison; this is inconclusive -- equal K-groups "
    "do not imply graded stable isomorphism"
)


class ClassificationReport(namedtuple("ClassificationReport", "spec k_class k_groups delta1 trivial_comparison "
                                                              "k_distinguishable_from_trivial caveats")):
    """Everything the calculus can say about one bundle spec.

    The fields: the :class:`~spherecp.bundles.SphereBundleSpec` ``spec``;
    its :class:`~spherecp.ktheory.TruncPoly` ``k_class``; its
    :class:`~spherecp.pimsner.KGroupPair` ``k_groups``; the
    :class:`~spherecp.fgab.IntMatrix` ``delta1``, its grade-one
    invariant; the trivial bundle's ``KGroupPair``
    ``trivial_comparison``; the bool ``k_distinguishable_from_trivial``;
    and ``caveats``, a tuple of strings.
    """

    __slots__ = ()


def classify_report(spec: SphereBundleSpec) -> ClassificationReport:
    """Full report for one spec, always comparing against the trivial bundle.

    Over an even sphere the trivial comparison uses the independent
    closed-form route.  Over an odd sphere the euler parameter is always 0,
    so the spec is its own trivial comparison and its K-groups are reused.
    """
    kc = k_class(spec)
    kg = k_groups(spec)
    inv = delta1_class(spec)
    if spec.sphere_dim % 2 == 0:
        trivial = k_groups_trivial(spec)
        parity_caveat = CAVEAT_REALIZABILITY if spec.euler_param else CAVEAT_TRIVIAL_CLASS
    else:
        trivial = kg
        parity_caveat = CAVEAT_ODD_COLLAPSE
    distinguishable = kg.k0 != trivial.k0
    caveats = (CAVEAT_DELTA0, parity_caveat) + (() if distinguishable else (CAVEAT_INCONCLUSIVE,))
    return _trusted(ClassificationReport, (spec, kc, kg, inv, trivial, distinguishable, caveats))


def report_to_dict(report: ClassificationReport) -> dict:
    """Structured form of a report with stable field names."""
    return {
        "spec": spec_to_dict(report.spec),
        "k_class": str(report.k_class),
        "K0": str(report.k_groups.k0),
        "K1": str(report.k_groups.k1),
        "delta1_matrix": report.delta1.to_text(),
        "distinguishable_from_trivial": report.k_distinguishable_from_trivial,
        "caveats": list(report.caveats),
    }
