"""A decidable word calculus for the algebra on d isometries.

The algebra O_d is generated by isometries s1, ..., sd subject to
si* sj = δij·1 and s1 s1* + ... + sd sd* = 1.  Every word in the
generators and their adjoints reduces to 0 or to a monomial
``S_mu S_nu*`` indexed by a pair of paths (tuples of generator indices),
and finite rational combinations of such monomials are closed under
+, *, and adjoint.  :class:`CuntzElement` stores exactly that reduced
form.

Structural equality of reduced forms is NOT equality in the algebra:
the unit relation identifies, say, ``1`` with ``s1 s1* + s2 s2*``.  The
calculus still decides equality through a basis of the algebra these
monomials span, the Leavitt algebra L(1, d): the monomials ``S_mu S_nu*``
whose ``mu`` and ``nu`` do not both end in the last letter d (Alahmadi,
Alsulami, Jain, Zelmanov, J. Algebra Appl. 11 (2012); see also Cuntz,
Comm. Math. Phys. 57 (1977)).
A monomial outside the basis ends in k >= 1 shared letters d, and the
unit relation rewrites it in one step:

    S_{mu d^k} S_{nu d^k}*  =  S_mu S_nu*  -  sum over j < k, i < d of
                                              S_{mu d^j i} S_{nu d^j i}*

:meth:`CuntzElement.normal_form` applies this to every term, at most
1 + k·(d-1) output terms per input term, and :meth:`CuntzElement.equals`
compares normal forms.  :meth:`CuntzElement.expand`, which refines every
term to one common adjoint length at a cost of d^depth terms, stays as
an independent cross-check.

Coefficients are exact rationals (``fractions.Fraction``); nothing here
is approximate.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

__all__ = [
    "Word",
    "CuntzElement",
    "BaseMismatchError",
    "ExpressionParseError",
    "generator",
]

#: A path: finite sequence of generator indices, each in 1..d.
Word = tuple[int, ...]

Scalar = Union[int, Fraction]


class BaseMismatchError(ValueError):
    """Two elements from algebras with different numbers of isometries."""


class ExpressionParseError(ValueError):
    """Bad expression text; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def _check_base(base: object) -> None:
    if not isinstance(base, int) or isinstance(base, bool) or base < 2:
        raise ValueError(f"number of isometries must be an int >= 2, got {base!r}")


def _check_word(word: Iterable[int], base: int) -> Word:
    w = tuple(word)
    for i in w:
        if not isinstance(i, int) or isinstance(i, bool):
            raise TypeError(f"generator indices must be int, got {type(i).__name__}")
        if not 1 <= i <= base:
            raise ValueError(f"generator index {i} out of range 1..{base}")
    return w


def _check_scalar(c: object) -> Fraction:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")
    return Fraction(c)


def _mul_keys(mu: Word, nu: Word, alpha: Word, beta: Word) -> tuple[Word, Word] | None:
    """Reduced form of (S_mu S_nu*)(S_alpha S_beta*), or None when it is 0.

    S_nu* S_alpha collapses by prefix comparison: if alpha = nu·rho it is
    S_rho, if nu = alpha·rho it is S_rho*, otherwise the isometry
    relations kill the product.
    """
    if len(alpha) >= len(nu):
        if alpha[: len(nu)] == nu:
            return mu + alpha[len(nu):], beta
        return None
    if nu[: len(alpha)] == alpha:
        return mu, beta + nu[len(alpha):]
    return None


def _add_term(out: dict[tuple[Word, Word], Fraction], key: tuple[Word, Word], c: Fraction) -> None:
    """Add ``c`` at ``key``, keeping ``out`` free of zero coefficients."""
    if key in out:
        total = out[key] + c
        if total:
            out[key] = total
        else:
            del out[key]
    else:
        out[key] = c


class CuntzElement:
    """Finite rational combination of reduced monomials S_mu S_nu*.

    Immutable.  ``==`` is *structural* (same reduced coefficient map);
    use :meth:`equals` for equality in the algebra, which also sees the
    unit relation.
    """

    __slots__ = ("_base", "_coeffs")

    def __init__(self, base: int, coeffs: Mapping[tuple[Word, Word], Scalar] | None = None):
        _check_base(base)
        clean: dict[tuple[Word, Word], Fraction] = {}
        for (mu, nu), c in (coeffs or {}).items():
            frac = _check_scalar(c)
            key = (_check_word(mu, base), _check_word(nu, base))
            if frac:
                _add_term(clean, key, frac)
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def _trusted(cls, base: int, coeffs: dict[tuple[Word, Word], Fraction]) -> "CuntzElement":
        """Wrap a coefficient map built from already checked words.

        ``coeffs`` must map pairs of valid words to nonzero Fractions; the
        new element takes ownership of the dict.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_coeffs", coeffs)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CuntzElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, base: int) -> "CuntzElement":
        return cls(base)

    @classmethod
    def unit(cls, base: int) -> "CuntzElement":
        return cls(base, {((), ()): 1})

    @classmethod
    def monomial(cls, base: int, mu: Iterable[int], nu: Iterable[int] = (), coeff: Scalar = 1) -> "CuntzElement":
        return cls(base, {(tuple(mu), tuple(nu)): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def base(self) -> int:
        return self._base

    def terms(self) -> dict[tuple[Word, Word], Fraction]:
        """Copy of the reduced coefficient map."""
        return dict(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def sorted_terms(self) -> list[tuple[tuple[Word, Word], Fraction]]:
        """Terms in the canonical order: by (|mu|, mu, |nu|, nu)."""
        return sorted(
            self._coeffs.items(),
            key=lambda kv: (len(kv[0][0]), kv[0][0], len(kv[0][1]), kv[0][1]),
        )

    # -- algebra -----------------------------------------------------------

    def _require_same_base(self, other: "CuntzElement") -> None:
        if self._base != other._base:
            raise BaseMismatchError(
                f"cannot combine elements over {self._base} and {other._base} isometries"
            )

    def __add__(self, other: "CuntzElement") -> "CuntzElement":
        if not isinstance(other, CuntzElement):
            return NotImplemented
        self._require_same_base(other)
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            _add_term(out, key, c)
        return CuntzElement._trusted(self._base, out)

    def __sub__(self, other: "CuntzElement") -> "CuntzElement":
        return self + (-other)

    def __neg__(self) -> "CuntzElement":
        return CuntzElement._trusted(self._base, {k: -c for k, c in self._coeffs.items()})

    def __mul__(self, other: "CuntzElement | Scalar") -> "CuntzElement":
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            if not other:
                return CuntzElement._trusted(self._base, {})
            return CuntzElement._trusted(self._base, {k: c * other for k, c in self._coeffs.items()})
        if not isinstance(other, CuntzElement):
            return NotImplemented
        self._require_same_base(other)
        out: dict[tuple[Word, Word], Fraction] = {}
        for (mu, nu), c1 in self._coeffs.items():
            for (alpha, beta), c2 in other._coeffs.items():
                key = _mul_keys(mu, nu, alpha, beta)
                if key is not None:
                    _add_term(out, key, c1 * c2)
        return CuntzElement._trusted(self._base, out)

    def __rmul__(self, other: Scalar) -> "CuntzElement":
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self * other
        return NotImplemented

    def star(self) -> "CuntzElement":
        """Adjoint: swaps each mu and nu (rational coefficients are self-conjugate)."""
        return CuntzElement._trusted(self._base, {(nu, mu): c for (mu, nu), c in self._coeffs.items()})

    # -- grading -----------------------------------------------------------

    def degree(self) -> int | None:
        """Gauge degree |mu| - |nu| when all terms share it; None if mixed.

        The zero element is homogeneous of every degree; by convention it
        reports 0.
        """
        degrees = {len(mu) - len(nu) for mu, nu in self._coeffs}
        if not degrees:
            return 0
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def spectral_component(self, k: int) -> "CuntzElement":
        """Projection onto the degree-k part of the gauge grading."""
        return CuntzElement._trusted(
            self._base,
            {key: c for key, c in self._coeffs.items() if len(key[0]) - len(key[1]) == k},
        )

    # -- decidable equality -------------------------------------------------

    def normal_form(self) -> "CuntzElement":
        """The same element written in the Leavitt basis.

        The basis is the monomials S_mu S_nu* whose mu and nu do not both
        end in the letter d (the module docstring cites it).  A term that
        shares k >= 1 trailing letters d, S_{mu d^k} S_{nu d^k}*, becomes
        S_mu S_nu* minus the sum of S_{mu d^j i} S_{nu d^j i}* over j < k
        and i < d: one pass, at most 1 + k·(d-1) terms per input term.
        Two elements are equal in the algebra exactly when their normal
        forms are structurally equal.
        """
        d = self._base
        out: dict[tuple[Word, Word], Fraction] = {}
        for (mu, nu), c in self._coeffs.items():
            m, n = len(mu), len(nu)
            k = 0
            while k < m and k < n and mu[m - 1 - k] == d and nu[n - 1 - k] == d:
                k += 1
            if k:
                mu, nu = mu[: m - k], nu[: n - k]
                for j in range(k):
                    a, b = mu + (d,) * j, nu + (d,) * j
                    for i in range(1, d):
                        _add_term(out, (a + (i,), b + (i,)), -c)
            _add_term(out, (mu, nu), c)
        return CuntzElement._trusted(d, out)

    def expand(self, depth: int) -> "CuntzElement":
        """Rewrite so every adjoint part has length exactly ``depth``.

        Uses S_mu S_nu* = sum of S_{mu w} S_{nu w}* over all |w| =
        depth - |nu|; requires depth >= every current |nu|.  The result
        has d^(depth - |nu|) terms per input term.  It is equal to
        ``self`` in the algebra, and at a common depth the refined
        monomials are linearly independent, so comparing expansions is a
        slow, independent check of :meth:`equals`.
        """
        out: dict[tuple[Word, Word], Fraction] = {}
        for (mu, nu), c in self._coeffs.items():
            gap = depth - len(nu)
            if gap < 0:
                raise ValueError(
                    f"cannot expand to depth {depth}: a term already has adjoint length {len(nu)}"
                )
            for w in itertools.product(range(1, self._base + 1), repeat=gap):
                key = (mu + w, nu + w)
                out[key] = out.get(key, Fraction(0)) + c
        return CuntzElement(self._base, out)

    def equals(self, other: "CuntzElement") -> bool:
        """Equality in the algebra (decides the unit relation, not just form).

        Compares :meth:`normal_form` coefficient maps, which costs time
        linear in the total word length rather than d^depth.
        """
        if not isinstance(other, CuntzElement):
            raise TypeError(f"cannot compare CuntzElement with {type(other).__name__}")
        self._require_same_base(other)
        if self._coeffs == other._coeffs:
            return True
        return self.normal_form()._coeffs == other.normal_form()._coeffs

    # -- structural equality / hashing --------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CuntzElement):
            return NotImplemented
        return self._base == other._base and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._base, frozenset(self._coeffs.items())))

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        chunks: list[str] = []
        for (mu, nu), c in self.sorted_terms():
            word = " ".join(
                [f"s{i}" for i in mu] + [f"s{i}*" for i in reversed(nu)]
            )
            mag = abs(c)
            if not word:
                body = str(mag)
            elif mag == 1:
                body = word
            else:
                body = f"{mag} {word}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"CuntzElement({self._base}, {self._coeffs!r})"


def generator(base: int, index: int) -> CuntzElement:
    """The isometry s_index as an element."""
    return CuntzElement.monomial(base, (index,), ())


_EXPR_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<gen>s(?P<idx>\d+)(?P<star>\*)?)|(?P<num>(?P<numer>\d+)(?:/(?P<den>\d+))?)|(?P<op>[+-])"
)


def parse_expression(base: int, text: str) -> CuntzElement:
    """Parse expressions like ``s1 s2* + 2 s1 s1 s2* s1*`` or ``1/2 s1 s1*``.

    A term is a whitespace-separated product of atoms: generators ``sK``,
    adjoints ``sK*``, and rational scalars (``3``, ``1/2``); terms are
    joined by ``+`` or ``-``.  Products reduce immediately, so arbitrary
    words in generators and adjoints are accepted, not only normal forms.
    The text is read in one pass; on bad text :class:`ExpressionParseError`
    reports the leftmost error.
    """
    _check_base(base)
    out: dict[tuple[Word, Word], Fraction] = {}
    coeff: Fraction | None = None  # the open term's coefficient; None between terms
    key: tuple[Word, Word] | None = None  # its reduced monomial; None once the term is 0
    sign = 1
    op_pos: int | None = None  # position of the last operator
    pos = 0
    while pos < len(text):
        m = _EXPR_TOKEN.match(text, pos)
        if m is None:
            raise ExpressionParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "op":
            if coeff is not None:
                if key is not None and coeff:
                    _add_term(out, key, coeff)
                coeff = None
            elif op_pos is not None:
                raise ExpressionParseError("empty term before operator", pos)
            # else: unary sign opening the whole expression
            sign = 1 if m.group("op") == "+" else -1
            op_pos = pos
        elif kind != "ws":
            if coeff is None:
                coeff, key = Fraction(sign), ((), ())
            if kind == "num":
                den = int(m.group("den") or 1)
                if not den:
                    raise ExpressionParseError("zero denominator", pos)
                coeff *= Fraction(int(m.group("numer")), den)
            else:
                idx = int(m.group("idx"))
                if not 1 <= idx <= base:
                    raise ExpressionParseError(f"generator index {idx} out of range 1..{base}", pos)
                if key is not None:
                    key = _mul_keys(*key, (), (idx,)) if m.group("star") else _mul_keys(*key, (idx,), ())
        pos = m.end()
    if coeff is None:
        if op_pos is not None:
            raise ExpressionParseError("expression ends with a dangling operator", op_pos)
        raise ExpressionParseError("empty expression", 0)
    if key is not None and coeff:
        _add_term(out, key, coeff)
    return CuntzElement._trusted(base, out)
