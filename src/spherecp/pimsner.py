"""K-groups of the bundle algebra, computed two independent ways.

The main route presents both K-groups of the algebra of sections from a
single integer matrix: multiplication by 1 - [E] on the K-group of the
base sphere, built by :func:`spherecp.ktheory._class_matrix`.  By
Pimsner's exact sequence K0 is its cokernel and K1 its kernel.  One
:func:`~spherecp.fgab.cokernel` call gives both: the kernel of a map
between free groups is free, of rank cols - rank, which is the
cokernel's free rank.  K1 is read from that rank, never assumed
trivial, though injectivity makes it vanish for every admissible rank.

For the trivial bundle over an even sphere there is a second, closed-form
route (a Künneth-style product formula) exposed as
:func:`k_groups_trivial`; the test-suite insists the two routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundles import BundleSpecError, SphereBundleSpec
from .fgab import FgAbGroup, IntMatrix, _trusted, cokernel
from .ktheory import _class_matrix

__all__ = [
    "KGroupPair",
    "EvenSphereRequired",
    "pimsner_matrix",
    "k_groups",
    "k_groups_trivial",
]


class EvenSphereRequired(BundleSpecError):
    """The closed-form trivial-bundle formula only covers even spheres."""


@dataclass(frozen=True)
class KGroupPair:
    """K0 and K1 of a bundle algebra."""

    k0: FgAbGroup
    k1: FgAbGroup


def pimsner_matrix(spec: SphereBundleSpec) -> IntMatrix:
    """Presentation matrix of the K-groups: multiplication by 1 - [E].

    Even sphere S^2n: [E] = d + c·λ, so the presentation is
    [[1-d, 0], [-c, 1-d]].  Odd sphere: [E] is the rank, presentation [1-d].
    """
    return _class_matrix(spec.sphere_dim, 1 - spec.rank, -spec.euler_param)


def k_groups(spec: SphereBundleSpec) -> KGroupPair:
    """Both K-groups of the bundle algebra, from the presentation matrix.

    K0 = cokernel, K1 = kernel, both read from one call to
    :func:`~spherecp.fgab.cokernel` (determinantal divisors, no Smith
    transforms: the presentation is nonsingular and at most 2 x 2, so the
    gcd of its entries and its determinant decide the factors):
    K1 is free of rank cols - rank, K0's free rank.
    Since the rank is at least 2 the matrix is injective and K1 comes out
    trivial, but that is an output of the computation, not an input.
    """
    k0 = cokernel(pimsner_matrix(spec))
    return KGroupPair(k0=k0, k1=_trusted(FgAbGroup, free_rank=k0.free_rank, torsion=()))


def k_groups_trivial(sphere_dim: int, rank: int) -> KGroupPair:
    """Closed form for the trivial rank-d bundle over an even sphere.

    The algebra is then a product of the sphere with a fixed fiber
    algebra, and a Künneth-style formula gives
    K0 = Z/(d-1) + Z/(d-1), K1 = 0 directly -- no normal form involved.
    This is the cross-check route for ``k_groups`` at euler 0.
    """
    SphereBundleSpec(sphere_dim, rank)  # refuses what a spec would refuse
    if sphere_dim % 2 == 1:
        raise EvenSphereRequired(
            f"closed-form trivial-bundle K-groups need an even sphere, got S^{sphere_dim}"
        )
    t = rank - 1
    k0 = _trusted(FgAbGroup, free_rank=0, torsion=(t, t) if t > 1 else ())
    return KGroupPair(k0=k0, k1=_trusted(FgAbGroup, free_rank=0, torsion=()))
