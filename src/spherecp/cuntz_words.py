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
compares normal forms.

Coefficients are exact rationals, stored as integer numerators over one
positive common denominator that shares no factor with all of them, so
the stored form is unique; nothing here is approximate.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm

from .fgab import LITERAL_DIGITS_BUDGET, SpherecpInputError, _int_text, _literal_int, _require_int, _signed_sum

__all__ = [
    "Word",
    "CuntzElement",
    "BaseMismatchError",
    "ExpressionParseError",
    "generator",
    "parse_expression",
    "EXPRESSION_TEXT_BUDGET",
    "NORMAL_FORM_TERMS_BUDGET",
    "NORMAL_FORM_LETTERS_BUDGET",
]

#: A path: finite sequence of generator indices, each in 1..d.
Word = tuple[int, ...]

Scalar = int | Fraction

#: The longest expression text, in characters, that :func:`parse_expression`
#: reads; longer text is refused before it is read.  One command-line
#: argument cannot reach it: Linux caps an argument at 128 KiB.
EXPRESSION_TEXT_BUDGET = 262_144

#: The most terms :meth:`CuntzElement.normal_form` writes for its input's
#: terms outside the Leavitt basis, k·(d-1) for a term ending in k shared
#: letters d; an element whose expansion would pass it is refused.
NORMAL_FORM_TERMS_BUDGET = 100_000

#: The most letters the words of those terms hold together: a term ending
#: in k shared letters d writes words of length about k for each of them,
#: so k·(d-1) terms can hold about k²·(d-1) letters.
NORMAL_FORM_LETTERS_BUDGET = 10_000_000


class BaseMismatchError(SpherecpInputError):
    """Two elements from algebras with different numbers of isometries."""


class ExpressionParseError(SpherecpInputError):
    """Bad expression text."""


def _check_base(base: object) -> None:
    if not isinstance(base, int) or isinstance(base, bool) or base < 2:
        got = _int_text(base) if isinstance(base, int) else repr(base)
        raise SpherecpInputError(f"number of isometries must be an int >= 2, got {got}")


def _check_word(word: Iterable[int], base: int) -> Word:
    w = tuple(word)
    _require_int("generator indices", *w)
    for i in w:
        if not 1 <= i <= base:
            raise ValueError(f"generator index {_int_text(i)} out of range 1..{_int_text(base)}")
    return w


def _check_scalar(c: object) -> Fraction:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")
    return Fraction(c)


def _add_term(out: dict[tuple[Word, Word], int], key: tuple[Word, Word], c: int) -> None:
    """Add ``c`` at ``key``, keeping ``out`` free of zero coefficients."""
    if key in out:
        total = out[key] + c
        if total:
            out[key] = total
        else:
            del out[key]
    else:
        out[key] = c


def _over_lcm(base: int, terms: list[tuple[tuple[Word, Word], int, int]]) -> "CuntzElement":
    """The sum of the terms ``(key, num, q)``, each ``num/q`` times the
    monomial ``key``, over the lcm of the denominators ``q``.

    Terms are added in order, so a key keeps the place its partial sums
    would give it with rational coefficients.
    """
    den = 1
    for _, _, q in terms:
        den = lcm(den, q)
    out: dict[tuple[Word, Word], int] = {}
    for key, num, q in terms:
        if num:
            _add_term(out, key, num * (den // q))
    return _reduced(base, out, den)


def _reduced(base: int, coeffs: dict[tuple[Word, Word], int], den: int) -> "CuntzElement":
    """The element ``coeffs / den`` (``den > 0``) with the common factor of
    ``den`` and every numerator divided out, which makes the form unique.

    The package's one unchecked constructor of a :class:`CuntzElement`: the
    caller vouches for ``coeffs``, a dict of nonzero int numerators, and
    the element is written straight to the instance ``__dict__``,
    skipping ``__new__`` and the ``__setattr__`` guard.
    """
    if den != 1:
        g = gcd(den, *coeffs.values())
        if g != 1:
            coeffs = {key: c // g for key, c in coeffs.items()}
            den //= g
    self = object.__new__(CuntzElement)
    self.__dict__.update(_base=base, _coeffs=coeffs, _den=den)
    return self


class CuntzElement:
    """Finite rational combination of reduced monomials S_mu S_nu*.

    Immutable.  The coefficients are stored as ``_coeffs``, a map from
    each monomial's (mu, nu) to a nonzero integer numerator, over one
    common denominator ``_den > 0`` with ``gcd(_den, *numerators) == 1``;
    :meth:`terms` gives them back as ``Fraction``.  ``==`` is
    *structural* (same reduced coefficient map); use :meth:`equals` for
    equality in the algebra, which also sees the unit relation.  Results
    derived from checked elements are built by :func:`_reduced`, which
    skips the checks of ``__new__``.
    """

    def __new__(cls, base: int, coeffs: Mapping[tuple[Word, Word], Scalar] | None = None):
        _check_base(base)
        terms = []
        for (mu, nu), c in (coeffs or {}).items():
            frac = _check_scalar(c)
            key = (_check_word(mu, base), _check_word(nu, base))
            terms.append((key, frac.numerator, frac.denominator))
        return _over_lcm(base, terms)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CuntzElement is immutable")

    def __reduce__(self):
        """``copy`` and ``pickle`` rebuild the element through the checked constructor."""
        return CuntzElement, (self._base, self.terms())

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
        """The reduced coefficient map, each numerator over the common
        denominator made one ``Fraction``."""
        den = self._den
        return {key: Fraction(c, den) for key, c in self._coeffs.items()}

    @property
    def is_zero(self) -> bool:
        """Structural: no reduced terms.  ``s1 s1* + s2 s2* - 1`` is zero in
        the algebra but not here; ask ``normal_form().is_zero`` for that."""
        return not self._coeffs

    # -- algebra -----------------------------------------------------------

    def _require_same_base(self, other: "CuntzElement") -> None:
        if self._base != other._base:
            raise BaseMismatchError(
                f"cannot combine elements over {_int_text(self._base)} and {_int_text(other._base)} isometries"
            )

    def __add__(self, other: "CuntzElement") -> "CuntzElement":
        if not isinstance(other, CuntzElement):
            return NotImplemented
        self._require_same_base(other)
        return _over_lcm(self._base, [(key, c, x._den) for x in (self, other) for key, c in x._coeffs.items()])

    def __sub__(self, other: "CuntzElement") -> "CuntzElement":
        if not isinstance(other, CuntzElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "CuntzElement":
        return _reduced(self._base, {k: -c for k, c in self._coeffs.items()}, self._den)

    def __mul__(self, other: "CuntzElement") -> "CuntzElement":
        """Each pair of terms in turn, ``self``'s outer: (S_mu S_nu*)(S_alpha
        S_beta*) collapses S_nu* S_alpha by prefix comparison, to S_rho if
        alpha = nu·rho, to S_rho* if nu = alpha·rho, and otherwise to 0."""
        if not isinstance(other, CuntzElement):
            return NotImplemented
        self._require_same_base(other)
        out: dict[tuple[Word, Word], int] = {}
        right = [(alpha, len(alpha), beta, c2) for (alpha, beta), c2 in other._coeffs.items()]
        for (mu, nu), c1 in self._coeffs.items():
            n = len(nu)
            for alpha, a, beta, c2 in right:
                if a >= n:
                    if alpha[:n] == nu:
                        _add_term(out, (mu + alpha[n:], beta), c1 * c2)
                elif nu[:a] == alpha:
                    _add_term(out, (mu, beta + nu[a:]), c1 * c2)
        return _reduced(self._base, out, self._den * other._den)

    def star(self) -> "CuntzElement":
        """Adjoint: swaps each mu and nu (rational coefficients are self-conjugate)."""
        return _reduced(self._base, {(nu, mu): c for (mu, nu), c in self._coeffs.items()}, self._den)

    # -- grading -----------------------------------------------------------

    def degree(self) -> int | None:
        """Gauge degree |mu| - |nu| when all terms share it; None if mixed.

        Structural: it reads the reduced terms as stored, so an element
        that is homogeneous in the algebra can still report None
        (``s1 + s1 s1* + s2 s2* - 1`` at d = 2, which is s1); take the
        degree of :meth:`normal_form` for the degree in the algebra.  The
        zero element is homogeneous of every degree; by convention it
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
        _require_int("degree", k)
        coeffs = {key: c for key, c in self._coeffs.items() if len(key[0]) - len(key[1]) == k}
        return _reduced(self._base, coeffs, self._den)

    # -- decidable equality -------------------------------------------------

    def normal_form(self) -> "CuntzElement":
        """The same element written in the Leavitt basis.

        The basis is the monomials S_mu S_nu* whose mu and nu do not both
        end in the letter d (the module docstring cites it).  A term that
        shares k >= 1 trailing letters d, S_{mu d^k} S_{nu d^k}*, becomes
        S_mu S_nu* minus the sum of S_{mu d^j i} S_{nu d^j i}* over j < k
        and i < d: one pass, at most 1 + k·(d-1) terms per input term.
        Two elements are equal in the algebra exactly when their normal
        forms are structurally equal.  Before it expands the term that
        takes the sum of k·(d-1) past :data:`NORMAL_FORM_TERMS_BUDGET`,
        or the letters of the words it writes past
        :data:`NORMAL_FORM_LETTERS_BUDGET`, it raises
        :class:`~spherecp.fgab.SpherecpInputError`, so a short input over
        a huge d, or with a long run of shared letters, is refused
        without allocating.  The letters are counted in O(1) per term:
        the words for j < k have |mu| + |nu| - 2k + 2(j + 1) letters, so
        the term writes k·(d-1)·(|mu| + |nu| - k + 1) of them.
        """
        d = self._base
        terms = letters = 0  # the sums of k·(d-1) and of the letters over the terms expanded so far
        out: dict[tuple[Word, Word], int] = {}
        for (mu, nu), c in self._coeffs.items():
            m, n = len(mu), len(nu)
            k = 0
            while k < m and k < n and mu[m - 1 - k] == d and nu[n - 1 - k] == d:
                k += 1
            if k:
                if (terms := terms + k * (d - 1)) > NORMAL_FORM_TERMS_BUDGET:
                    raise SpherecpInputError(
                        f"the normal form passes NORMAL_FORM_TERMS_BUDGET ({NORMAL_FORM_TERMS_BUDGET} terms)")
                if (letters := letters + k * (d - 1) * (m + n - k + 1)) > NORMAL_FORM_LETTERS_BUDGET:
                    raise SpherecpInputError(
                        f"the normal form passes NORMAL_FORM_LETTERS_BUDGET ({NORMAL_FORM_LETTERS_BUDGET} letters)")
                mu, nu = mu[: m - k], nu[: n - k]
                for j in range(k):
                    a, b = mu + (d,) * j, nu + (d,) * j
                    for i in range(1, d):
                        _add_term(out, (a + (i,), b + (i,)), -c)
            _add_term(out, (mu, nu), c)
        return _reduced(d, out, self._den)

    def equals(self, other: "CuntzElement") -> bool:
        """Equality in the algebra (decides the unit relation, not just form).

        Compares :meth:`normal_form` coefficient maps, which costs time
        linear in the total word length rather than d^depth.
        """
        if not isinstance(other, CuntzElement):
            raise TypeError(f"cannot compare CuntzElement with {type(other).__name__}")
        self._require_same_base(other)
        return self.normal_form() == other.normal_form()

    # -- structural equality / hashing --------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural: the same reduced coefficient map.  :meth:`equals`
        decides equality in the algebra."""
        if not isinstance(other, CuntzElement):
            return NotImplemented
        return self._base == other._base and self._den == other._den and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._base, self._den, frozenset(self._coeffs.items())))

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        """The terms in the canonical order, by (|mu|, mu, |nu|, nu), as a
        signed sum (:func:`~spherecp.fgab._signed_sum`).

        A term is its coefficient's magnitude, an integer or ``p/q`` in
        lowest terms, then its word: ``sK`` for each letter of mu, then
        ``sK*`` for each letter of nu from the last.  The magnitude is left
        out when it is 1 and the word is not empty; no terms give ``0``.
        The names ``sK`` and ``sK*`` of each letter that occurs, with K
        written by :func:`~spherecp.fgab._int_text`, the names of each
        distinct nu and the text of each distinct numerator's magnitude are
        written once per call, in dicts local to the call: nothing is
        cached between calls, and no table is sized by d.
        """
        den = self._den
        letters = set(chain.from_iterable(chain.from_iterable(self._coeffs)))
        names = {i: "s" + _int_text(i) for i in letters}
        stars = {i: name + "*" for i, name in names.items()}
        rights: dict[Word, list[str]] = {}
        mags: dict[int, str] = {}
        terms: list[tuple[bool, str]] = []
        # the keys are distinct, so the sort never compares two numerators
        for _, mu, _, nu, n in sorted([(len(mu), mu, len(nu), nu, n) for (mu, nu), n in self._coeffs.items()]):
            if (right := rights.get(nu)) is None:
                right = rights[nu] = [*map(stars.__getitem__, reversed(nu))]
            word = " ".join([*map(names.__getitem__, mu), *right])
            if (mag := mags.get(n)) is None:
                g = gcd(n, den)
                m, q = abs(n) // g, den // g
                mag = mags[n] = _int_text(m) if q == 1 else f"{_int_text(m)}/{_int_text(q)}"
            terms.append((n < 0, mag if not word else word if mag == "1" else f"{mag} {word}"))
        return _signed_sum(terms)

    def __repr__(self) -> str:
        """``CuntzElement(base, {(mu, nu): Fraction(n, q), ...})`` over :meth:`terms`.

        The base, the letters, the numerators and the denominators are
        written by :func:`~spherecp.fgab._int_text`, so this is the built-in
        ``repr`` of the base, the word tuples and each ``Fraction`` within
        the interpreter's int -> str limit, and exact past it.
        """
        terms = ", ".join(f"({_word_text(mu)}, {_word_text(nu)}): "
                          f"Fraction({_int_text(c.numerator)}, {_int_text(c.denominator)})"
                          for (mu, nu), c in self.terms().items())
        return f"CuntzElement({_int_text(self._base)}, {{{terms}}})"


def _word_text(word: Word) -> str:
    """``repr(word)``, with its letters written by :func:`~spherecp.fgab._int_text`."""
    return f"({', '.join(map(_int_text, word))}{',' if len(word) == 1 else ''})"


def generator(base: int, index: int) -> CuntzElement:
    """The isometry s_index as an element."""
    return CuntzElement.monomial(base, (index,), ())


# the expression's tokens, as (idx, star, numer, den, op, bad); nothing matches
# whitespace and "bad" takes every other character, so the matches tile the
# text with its whitespace removed
_EXPR_ATOM = re.compile(r"s(?P<idx>\d+)(\*?)|(?P<numer>\d+)(?:/(?P<den>\d+))?|(?P<op>[+-])|(?P<bad>\S)")


def parse_expression(base: int, text: str) -> CuntzElement:
    """Parse expressions like ``s1 s2* + 2 s1 s1 s2* s1*`` or ``1/2 s1 s1*``.

    Terms are joined by ``+`` or ``-``, and a term is a product of atoms
    in any order: generators ``sK``, adjoints ``sK*`` and nonnegative
    rational scalars (``3``, ``1/2``).  Every scalar multiplies into the
    term's coefficient, products reduce immediately, so arbitrary words in
    generators and adjoints are accepted, and atoms need no whitespace
    between them (``s1s2*``).  One loop over one ``findall`` reads the
    text, keeping each term's coefficient as an integer numerator and
    denominator; when the text ends, every term is scaled to the lcm of
    the denominators and the terms are added in order.  The loop stops at
    the first token it refuses, and :class:`ExpressionParseError` names
    that token's error with its character position, which is the leftmost
    error.  A coefficient or generator index longer than
    :data:`~spherecp.fgab.LITERAL_DIGITS_BUDGET` digits is such an error.
    Text longer than :data:`EXPRESSION_TEXT_BUDGET` characters is refused
    before it is read.
    """
    _check_base(base)
    if len(text) > EXPRESSION_TEXT_BUDGET:
        raise ExpressionParseError(f"expression text of {_int_text(len(text))} characters exceeds "
                                   f"EXPRESSION_TEXT_BUDGET ({EXPRESSION_TEXT_BUDGET} characters)")
    terms: list[tuple[tuple[Word, Word], int, int]] = []
    num: int | None = None  # the open term's numerator; None between terms
    sign = 1
    after_op = False  # an operator has come
    # the open term is num/q times S_mu S_nu*, or 0 once live is False
    try:
        for n, (idx, star, numer, den, op, bad) in enumerate(_EXPR_ATOM.findall(text)):
            if op:
                if num is not None:
                    if live and num:
                        terms.append(((tuple(mu), tuple(pending[::-1])), num, q))
                    num = None
                elif after_op:
                    break
                sign = 1 if op == "+" else -1
                after_op = True
                continue
            if bad:
                break
            if num is None:
                num, q, mu, pending, live = sign, 1, [], [], True
            if numer:
                if len(numer) > LITERAL_DIGITS_BUDGET or len(den) > LITERAL_DIGITS_BUDGET:
                    break
                num *= int(numer)
                if den:
                    q *= int(den)
                    if not q:
                        break
                continue
            if len(idx) > LITERAL_DIGITS_BUDGET:
                break
            i = int(idx)
            if not 1 <= i <= base:
                break
            if not live:
                continue
            # pending holds the adjoint word reversed: S_mu S_nu* has nu = pending[::-1]
            if star:
                pending.append(i)
            elif not pending:
                mu.append(i)
            elif pending.pop() != i:  # s_j* s_i = 0 for j != i
                live = False
        else:
            n = None  # the text ran out with no token refused
    except ValueError:  # int() of a literal past a lower int <-> str limit
        pass
    if n is None:
        if num is not None:
            if live and num:
                terms.append(((tuple(mu), tuple(pending[::-1])), num, q))
            return _over_lcm(base, terms)
        if not after_op:
            raise ExpressionParseError("empty expression", 0)
        # the operator is the last character of the text that is not whitespace
        raise ExpressionParseError("expression ends with a dangling operator", len(text.rstrip()) - 1)
    # the refused token alone names the error; findall gave no positions, so finditer finds it
    m = next(islice(_EXPR_ATOM.finditer(text), n, None))
    if m["bad"]:
        raise ExpressionParseError(f"unexpected character {m['bad']!r}", m.start())
    if m["op"]:
        raise ExpressionParseError("empty term before operator", m.start())
    for group in ("idx", "numer", "den"):
        if m[group]:
            _literal_int(m[group], m.start(group), ExpressionParseError)
    if m["numer"]:
        raise ExpressionParseError("zero denominator", m.start())
    raise ExpressionParseError(
        f"generator index {_int_text(int(m['idx']))} out of range 1..{_int_text(base)}", m.start())
