"""Coefficient objects for the K-theory of even spheres.

Two small exact types live here:

* :class:`TruncPoly` -- a K-class ``z + z1*λ`` in Z[λ]/(λ²), the K-ring
  of an even sphere: two integer coordinates, compared with ``==``;
* :class:`Delta1Class` -- the grade-one invariant of the algebra of a
  bundle E: the integer matrix of multiplication by [E] on the sphere
  K-group.  :func:`_class_matrix` builds it, and also the K-group
  presentation of :mod:`spherecp.pimsner`, multiplication by 1 - [E].
  The invariant acts on the base-d scalar tensor factor as the identity,
  so only the integer matrix and the base are stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .fgab import IntMatrix, _require_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotation only
    from .bundles import SphereBundleSpec

__all__ = [
    "TruncPoly",
    "Delta1Class",
    "delta1_class",
]


@dataclass(frozen=True)
class TruncPoly:
    """K-class ``z + z1*λ`` in Z[λ]/(λ²), the K-ring of an even sphere.

    ``z`` is the rank part (the image in K-theory of a point) and ``z1``
    the reduced part supported on the top cell; ``str`` writes it in λ.

    >>> str(TruncPoly(3, -1))
    '3 - λ'
    """

    z: int = 0
    z1: int = 0

    def __post_init__(self):
        _require_int("z and z1", self.z, self.z1)

    def __str__(self) -> str:
        if self.z == 0 and self.z1 == 0:
            return "0"
        parts: list[str] = []
        if self.z:
            parts.append(str(self.z))
        if self.z1:
            mag = abs(self.z1)
            term = "λ" if mag == 1 else f"{mag}·λ"
            if not parts:
                parts.append(term if self.z1 > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if self.z1 > 0 else f"- {term}")
        return " ".join(parts)


def _class_matrix(sphere_dim: int, z: int, z1: int) -> IntMatrix:
    """Matrix of multiplication by the K-class ``z + z1·λ`` on K^0(S^n).

    The basis is (1, λ) on an even sphere; on an odd sphere λ is absent.

    >>> _class_matrix(4, 3, 1).to_text()
    '3,0;1,3'
    >>> _class_matrix(5, -2, 0).to_text()
    '-2'
    """
    if sphere_dim % 2 == 0:
        return IntMatrix(2, 2, ((z, 0), (z1, z)))
    return IntMatrix(1, 1, ((z,),))


@dataclass(frozen=True)
class Delta1Class:
    """Grade-one invariant of a bundle algebra over a sphere.

    Over an even sphere this is the 2x2 matrix of multiplication by the
    K-class on the sphere K-ring; over an odd sphere the K-ring is Z and
    the matrix collapses to the 1x1 matrix [rank].  The base-d scalar
    tensor factor is implicit (the invariant acts on it as the identity),
    which keeps every comparison inside integer matrices.
    """

    sphere_dim: int
    base: int
    matrix: IntMatrix

    def __post_init__(self):
        if not isinstance(self.matrix, IntMatrix):
            raise TypeError(f"matrix must be an IntMatrix, got {type(self.matrix).__name__}")
        _require_int("sphere dimension and base", self.sphere_dim, self.base)
        if self.sphere_dim < 1:
            raise ValueError(f"sphere dimension must be >= 1, got {self.sphere_dim}")
        if self.base < 2:
            raise ValueError(f"base must be at least 2, got {self.base}")
        m = self.matrix
        if self.sphere_dim % 2 == 0:
            ok = (
                (m.rows, m.cols) == (2, 2)
                and m[0, 0] == self.base
                and m[1, 1] == self.base
                and m[0, 1] == 0
            )
            if not ok:
                raise ValueError("even-sphere invariant must be [[d, 0], [c, d]] with d = base")
        else:
            if (m.rows, m.cols) != (1, 1) or m[0, 0] != self.base:
                raise ValueError("odd-sphere invariant must be the 1x1 matrix [base]")

    def __str__(self) -> str:
        return f"{self.matrix.to_text()} base={self.base}"


def delta1_class(spec: "SphereBundleSpec") -> Delta1Class:
    """Grade-one invariant of the algebra attached to a validated bundle spec.

    Multiplication by [E] = ``rank + euler·λ``; the trivial class gives
    ``rank`` times the identity.  Odd sphere: the 1x1 matrix [rank].
    """
    matrix = _class_matrix(spec.sphere_dim, spec.rank, spec.euler_param)
    return Delta1Class(sphere_dim=spec.sphere_dim, base=spec.rank, matrix=matrix)
