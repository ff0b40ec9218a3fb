"""K-groups of the bundle algebra, computed two independent ways.

The main route presents K0 of the algebra of sections by one integer
matrix: multiplication by 1 - [E] on the K-group of the base sphere,
laid out by :func:`spherecp.ktheory._class_rows`.  By Pimsner's exact
sequence K0 is its cokernel and K1 its kernel.  K0 is read by
:func:`spherecp.fgab._factors` straight from the rows, so no matrix is
built; :func:`pimsner_matrix` gives the same presentation as an
:class:`~spherecp.fgab.IntMatrix`.  The presentation has determinant
(1 - d)**k, k = 1 or 2, which is nonzero for every admissible rank
d >= 2, so the map is injective and K1 is the trivial group, one frozen
value shared by every result.

For the trivial bundle over an even sphere there is a second, closed-form
route (a Künneth-style product formula) exposed as
:func:`k_groups_trivial`; the test-suite insists the two routes agree.
Both routes take a validated :class:`~spherecp.bundles.SphereBundleSpec`
and read its fields without checking them again.
"""

from __future__ import annotations

from collections import namedtuple

from .bundles import BundleSpecError, SphereBundleSpec
from .fgab import FgAbGroup, IntMatrix, _factors, _trusted
from .ktheory import _class_matrix, _class_rows

__all__ = [
    "KGroupPair",
    "EvenSphereRequired",
    "pimsner_matrix",
    "k_groups",
    "k_groups_trivial",
]


class EvenSphereRequired(BundleSpecError):
    """The closed-form trivial-bundle formula only covers even spheres."""


_TRIVIAL = FgAbGroup()  # K1 of every result: a frozen constant, not a cache


class KGroupPair(namedtuple("KGroupPair", "k0 k1")):
    """K0 and K1 of a bundle algebra, the :class:`~spherecp.fgab.FgAbGroup` fields ``k0`` and ``k1``."""

    __slots__ = ()


def pimsner_matrix(spec: SphereBundleSpec) -> IntMatrix:
    """Presentation matrix of the K-groups: multiplication by 1 - [E].

    Even sphere S^2n: [E] = d + c·λ, so the presentation is
    [[1-d, 0], [-c, 1-d]].  Odd sphere: [E] is the rank, presentation [1-d].
    """
    return _class_matrix(spec.sphere_dim, 1 - spec.rank, -spec.euler_param)


def _k0(spec: SphereBundleSpec) -> tuple[int, tuple[int, ...]]:
    """K0 as (free rank, torsion): the cokernel of :func:`pimsner_matrix`, read from its rows."""
    rows = _class_rows(spec.sphere_dim, 1 - spec.rank, -spec.euler_param)
    torsion, rank = _factors(rows, len(rows))
    return len(rows) - rank, torsion


def k_groups(spec: SphereBundleSpec) -> KGroupPair:
    """Both K-groups of the bundle algebra, from the presentation's rows.

    K0 is the cokernel of the presentation, read from its determinantal
    divisors with no Smith transforms and no elimination: the
    presentation is at most 2 x 2, so the gcd of its entries and its
    determinant decide the factors.  K1, the kernel, is the shared
    trivial group: the presentation is nonsingular for every admissible
    rank, so the map is injective.
    """
    free_rank, torsion = _k0(spec)
    return _trusted(KGroupPair, _trusted(FgAbGroup, free_rank, torsion), _TRIVIAL)


def k_groups_trivial(spec: SphereBundleSpec) -> KGroupPair:
    """Closed form for the trivial bundle of the spec's sphere and rank.

    Over an even sphere the algebra is then a product of the sphere with
    a fixed fiber algebra, and a Künneth-style formula gives
    K0 = Z/(d-1) + Z/(d-1), K1 = 0 directly -- no normal form involved.
    This is the cross-check route for ``k_groups`` at euler 0.  The
    spec's euler parameter is not read, and the spec was validated when
    it was built, so only the sphere's parity is checked here.
    """
    if spec.sphere_dim % 2 == 1:
        raise EvenSphereRequired(
            f"closed-form trivial-bundle K-groups need an even sphere, got S^{spec.sphere_dim}"
        )
    t = spec.rank - 1
    k0 = _trusted(FgAbGroup, 0, (t, t) if t > 1 else ())
    return _trusted(KGroupPair, k0, _TRIVIAL)
