"""spherecp: exact K-theoretic invariants of bundle algebras over spheres.

Given a rank-d vector bundle over S^n by its K-class data, this package
computes the K-groups of the associated isometry-bundle algebra in exact
integer arithmetic, decides graded stable isomorphism within a fixed
(sphere, rank) family, and provides a decidable word calculus for the
algebra on d isometries.  See the README for the CLI.

The package re-exports the ``__all__`` of each library module, so every
public name is declared once, in the module that defines it.
"""

from .bundles import *
from .classify import *
from .cuntz_words import *
from .fgab import *
from .ktheory import *
from .pimsner import *

__version__ = "0.1.0"

__all__ = (
    bundles.__all__ + classify.__all__ + cuntz_words.__all__
    + fgab.__all__ + ktheory.__all__ + pimsner.__all__
)
