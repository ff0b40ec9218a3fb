"""Coefficient objects for the K-theory of even spheres.

* :class:`TruncPoly` -- a K-class ``z + z1*λ`` in Z[λ]/(λ²), the K-ring
  of an even sphere: two integer coordinates, compared with ``==``;
* :func:`k_class` -- the K-class ``rank + euler·λ`` of a validated
  bundle spec, built from its fields with no second check;
* :func:`delta1_class` -- the grade-one invariant of the algebra of a
  bundle E: the :class:`~spherecp.fgab.IntMatrix` of multiplication by
  [E] on the sphere K-group.  :func:`_class_rows` lays it out, and also
  the K-group presentation of :mod:`spherecp.pimsner`, multiplication by
  1 - [E].  The invariant acts on the base-d scalar tensor factor as the
  identity, so only the integer matrix is kept; the base is the spec's rank.
"""

from __future__ import annotations

from collections import namedtuple

from .bundles import SphereBundleSpec
from .fgab import IntMatrix, _Checked, _int_text, _require_int, _signed_sum, _trusted

__all__ = [
    "TruncPoly",
    "k_class",
    "delta1_class",
]


class TruncPoly(_Checked, namedtuple("TruncPoly", "z z1")):
    """K-class ``z + z1*λ`` in Z[λ]/(λ²), the K-ring of an even sphere.

    ``z`` is the rank part (the image in K-theory of a point) and ``z1``
    the reduced part supported on the top cell, both ints; ``str`` writes
    it in λ.

    >>> str(TruncPoly(3, -1))
    '3 - λ'
    """

    __slots__ = ()

    def __new__(cls, z: int = 0, z1: int = 0):
        _require_int("z and z1", z, z1)
        return tuple.__new__(cls, (z, z1))

    def __str__(self) -> str:
        terms = [(self.z < 0, _int_text(abs(self.z)))] if self.z else []
        if self.z1:
            mag = abs(self.z1)
            terms.append((self.z1 < 0, "λ" if mag == 1 else f"{_int_text(mag)}·λ"))
        return _signed_sum(terms)


def _class_rows(sphere_dim: int, z: int, z1: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the matrix of multiplication by ``z + z1·λ`` on K^0(S^n).

    The basis is (1, λ) on an even sphere; on an odd sphere λ is absent.
    This is the one place that lays the matrix out.

    >>> _class_rows(4, 3, 1)
    ((3, 0), (1, 3))
    >>> _class_rows(5, -2, 0)
    ((-2,),)
    """
    return ((z, 0), (z1, z)) if sphere_dim % 2 == 0 else ((z,),)


def _class_matrix(sphere_dim: int, z: int, z1: int) -> IntMatrix:
    """:func:`_class_rows` as an :class:`~spherecp.fgab.IntMatrix`.

    The callers pass ints from a validated spec, so the matrix is built
    unchecked.

    >>> _class_matrix(4, 3, 1).to_text()
    '3,0;1,3'
    >>> _class_matrix(5, -2, 0).to_text()
    '-2'
    """
    entries = _class_rows(sphere_dim, z, z1)
    return _trusted(IntMatrix, len(entries), len(entries), entries)


def k_class(spec: SphereBundleSpec) -> TruncPoly:
    """K-class ``rank + euler_param·λ`` of a validated bundle spec.

    For odd spheres the λ coefficient is forced to 0 by validation, so the
    class degenerates to the bare rank.  The spec's fields were checked
    when it was built, so the class is built unchecked.

    >>> str(k_class(SphereBundleSpec(4, 3, -1)))
    '3 - λ'
    """
    return _trusted(TruncPoly, spec.rank, spec.euler_param)


def delta1_class(spec: SphereBundleSpec) -> IntMatrix:
    """Grade-one invariant of the algebra attached to a validated bundle spec.

    The matrix of multiplication by [E] = ``rank + euler·λ``: over an even
    sphere the 2x2 matrix on the K-ring, and over an odd sphere, whose
    K-ring is Z, the 1x1 matrix [rank].  The trivial class gives ``rank``
    times the identity.  The spec was validated once, when it was built,
    so nothing is checked again here.

    >>> delta1_class(SphereBundleSpec(4, 3, 1)).to_text()
    '3,0;1,3'
    >>> delta1_class(SphereBundleSpec(5, 4)).to_text()
    '4'
    """
    return _class_matrix(spec.sphere_dim, spec.rank, spec.euler_param)
