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

from dataclasses import dataclass

from .bundles import SphereBundleSpec, k_class, spec_to_dict
from .ktheory import Delta1Class, TruncPoly, delta1_class
from .pimsner import KGroupPair, k_groups, k_groups_trivial

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


class ComparisonError(ValueError):
    """The two specs are not comparable by this calculus."""


class DimensionMismatch(ComparisonError):
    pass


class RankMismatch(ComparisonError):
    pass


def _check_comparable(a: SphereBundleSpec, b: SphereBundleSpec) -> None:
    if a.sphere_dim != b.sphere_dim:
        raise DimensionMismatch(
            f"cannot compare bundles over different spheres: S^{a.sphere_dim} vs S^{b.sphere_dim}"
        )
    if a.rank != b.rank:
        raise RankMismatch(
            f"cannot compare bundles of different rank: {a.rank} vs {b.rank} "
            "(the grade-one invariant is only calibrated within a fixed rank)"
        )


def delta1_equal(a: SphereBundleSpec, b: SphereBundleSpec) -> bool:
    """Do the grade-one invariants agree?  Requires same sphere and rank."""
    _check_comparable(a, b)
    return delta1_class(a).matrix == delta1_class(b).matrix


def graded_stably_isomorphic(a: SphereBundleSpec, b: SphereBundleSpec) -> bool:
    """Graded stable isomorphism of the two bundle algebras.

    Even sphere: equivalent to equality of the K-classes.  Odd sphere:
    always true once the preconditions (same sphere, same rank) hold,
    since the K-class degenerates to the rank.
    """
    _check_comparable(a, b)
    return k_class(a) == k_class(b)


def k_distinguishable(a: SphereBundleSpec, b: SphereBundleSpec) -> bool:
    """Does K0 alone already separate the two algebras?

    True is conclusive (the algebras cannot be stably isomorphic, graded
    or not).  False is *inconclusive*: equal K-groups do not imply
    isomorphism -- the grade-one invariant is strictly finer.
    """
    return k_groups(a).k0 != k_groups(b).k0


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


@dataclass(frozen=True)
class ClassificationReport:
    """Everything the calculus can say about one bundle spec."""

    spec: SphereBundleSpec
    k_class: TruncPoly
    k_groups: KGroupPair
    delta1: Delta1Class
    trivial_comparison: KGroupPair
    k_distinguishable_from_trivial: bool
    caveats: tuple[str, ...]


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
        trivial = k_groups_trivial(spec.sphere_dim, spec.rank)
    else:
        trivial = kg
    distinguishable = kg.k0 != trivial.k0
    caveats: list[str] = [CAVEAT_DELTA0]
    if spec.sphere_dim % 2 == 1:
        caveats.append(CAVEAT_ODD_COLLAPSE)
    elif spec.euler_param == 0:
        caveats.append(CAVEAT_TRIVIAL_CLASS)
    else:
        caveats.append(CAVEAT_REALIZABILITY)
    if not distinguishable:
        caveats.append(CAVEAT_INCONCLUSIVE)
    return ClassificationReport(
        spec=spec,
        k_class=kc,
        k_groups=kg,
        delta1=inv,
        trivial_comparison=trivial,
        k_distinguishable_from_trivial=distinguishable,
        caveats=tuple(caveats),
    )


def report_to_dict(report: ClassificationReport) -> dict:
    """Structured form of a report with stable field names."""
    return {
        "spec": spec_to_dict(report.spec),
        "k_class": str(report.k_class),
        "K0": str(report.k_groups.k0),
        "K1": str(report.k_groups.k1),
        "delta1_matrix": report.delta1.matrix.to_text(),
        "distinguishable_from_trivial": report.k_distinguishable_from_trivial,
        "caveats": list(report.caveats),
    }
