"""Tests for the word calculus on d isometries.

The worked reductions (prefix cancellations, unit-relation expansions)
were checked by hand before being frozen here; the randomized blocks
verify the ring laws, grading, and the decidability contract of
``equals`` on small elements.
"""

import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spherecp.cuntz_words
from oracles import (
    ExpressionTextError,
    expand,
    fraction_normal_form,
    fraction_product,
    parse_expression_tokens,
    random_cuntz_element,
    random_homogeneous_element,
    render_element,
    time_limit,
)
from spherecp.cuntz_words import (
    EXPRESSION_TEXT_BUDGET,
    NORMAL_FORM_LETTERS_BUDGET,
    NORMAL_FORM_TERMS_BUDGET,
    BaseMismatchError,
    CuntzElement,
    ExpressionParseError,
    generator,
    parse_expression,
)
from spherecp.fgab import LITERAL_DIGITS_BUDGET, SpherecpInputError


def s(i, base=2):
    return generator(base, i)


class TestMonomialReduction:
    def test_isometry_relation(self):
        # s1* s1 = 1 and s1* s2 = 0
        assert s(1).star() * s(1) == CuntzElement.unit(2)
        assert (s(1).star() * s(2)).is_zero

    def test_range_projections_compose(self):
        # (s1 s2*)(s2 s1*) = s1 s1*, by hand: s2* s2 collapses
        lhs = s(1) * s(2).star() * (s(2) * s(1).star())
        assert lhs == CuntzElement.monomial(2, (1,), (1,))

    def test_longer_prefix_cancellation(self):
        # (s1 s1*)(s1 s2 s1*) = s1 s2 s1*: adjoint part is a prefix
        a = CuntzElement.monomial(2, (1,), (1,))
        b = CuntzElement.monomial(2, (1, 2), (1,))
        assert a * b == b

    def test_orthogonal_ranges_annihilate(self):
        a = CuntzElement.monomial(2, (1,), (2, 1))
        b = CuntzElement.monomial(2, (1, 1), ())
        assert (a * b).is_zero

    def test_star_swaps_paths(self):
        m = CuntzElement.monomial(2, (1,), (2,), Fraction(3, 2))
        assert m.star() == CuntzElement.monomial(2, (2,), (1,), Fraction(3, 2))

    def test_unit_is_identity(self):
        rng = random.Random(1)
        one = CuntzElement.unit(3)
        for _ in range(20):
            x = random_cuntz_element(rng, 3)
            assert one * x == x
            assert x * one == x

    def test_base_mismatch_rejected(self):
        with pytest.raises(BaseMismatchError):
            s(1, 2) * s(1, 3)
        with pytest.raises(BaseMismatchError):
            s(1, 2) + s(1, 3)
        with pytest.raises(BaseMismatchError):
            s(1, 2).equals(s(1, 3))

    def test_generator_index_checked(self):
        with pytest.raises(ValueError):
            CuntzElement.monomial(2, (3,), ())
        with pytest.raises(ValueError):
            CuntzElement.monomial(2, (0,), ())

    def test_float_bool_and_str_coefficients_refused(self):
        # refused, not stored as the binary approximation of 0.1
        for bad in (0.1, 1.0, True, "1/2"):
            with pytest.raises(TypeError):
                CuntzElement(2, {((1,), ()): bad})
        with pytest.raises(TypeError):
            CuntzElement.monomial(2, (1,), (), 0.5)
        assert CuntzElement(2, {((1,), ()): Fraction(1, 10)}).terms() == {((1,), ()): Fraction(1, 10)}

    def test_float_and_bool_generator_indices_refused(self):
        # refused, not stored as the key ((1, 1), ())
        with pytest.raises(TypeError):
            CuntzElement(2, {((1.0, True), ()): 1})
        with pytest.raises(TypeError):
            CuntzElement(2, {((1,), (True,)): 1})
        with pytest.raises(TypeError):
            CuntzElement.monomial(2, (2.0,), ())
        # a degree is refused too, not read as 1
        x = parse_expression(2, "s1 + s1 s2*")
        for bad in (True, 1.0):
            with pytest.raises(TypeError):
                x.spectral_component(bad)


class TestAlgebraLaws:
    def test_associativity_and_distributivity_randomized(self):
        rng = random.Random(314)
        for _ in range(120):
            base = rng.choice([2, 3])
            a = random_cuntz_element(rng, base)
            b = random_cuntz_element(rng, base)
            c = random_cuntz_element(rng, base)
            assert ((a * b) * c).equals(a * (b * c))
            assert (a * (b + c)).equals(a * b + a * c)
            assert ((a + b) * c).equals(a * c + b * c)

    def test_star_is_antimultiplicative(self):
        rng = random.Random(2718)
        for _ in range(60):
            base = rng.choice([2, 3])
            a = random_cuntz_element(rng, base)
            b = random_cuntz_element(rng, base)
            assert (a * b).star().equals(b.star() * a.star())
            assert a.star().star() == a

    def test_scalar_side_and_refusal(self):
        # a scalar enters as an element (a multiple of the unit), never bare
        x = CuntzElement.monomial(2, (1,), (2,)) + CuntzElement.unit(2)
        for bad in (0.5, True, "2", 2, Fraction(2, 3)):
            with pytest.raises(TypeError):
                bad * x
            with pytest.raises(TypeError):
                x * bad

    def test_subtracting_a_non_element_names_the_minus(self):
        # the operand is refused before it is negated, so Python names -
        x = CuntzElement.monomial(2, (1,), (2,))
        for bad in (3, "a"):
            kind = type(bad).__name__
            with pytest.raises(TypeError, match=rf"unsupported operand type\(s\) for -: 'CuntzElement' and '{kind}'"):
                x - bad


class TestDecidableEquality:
    def test_unit_relation(self):
        total = s(1) * s(1).star() + s(2) * s(2).star()
        assert total != CuntzElement.unit(2)  # different reduced form...
        assert total.equals(CuntzElement.unit(2))  # ...same element

    def test_unit_relation_every_base(self):
        for base in (2, 3, 4):
            total = CuntzElement.zero(base)
            for i in range(1, base + 1):
                gi = generator(base, i)
                total = total + gi * gi.star()
            assert total.equals(CuntzElement.unit(base))

    def test_foreign_operands_immutability_and_hash(self):
        x = parse_expression(2, "s1 s2*")
        with pytest.raises(TypeError):
            x + 1
        with pytest.raises(TypeError, match="cannot compare"):
            x.equals(1)
        assert (x == 1) is False
        with pytest.raises(AttributeError, match="immutable"):
            x._base = 3
        y = s(1) * s(2).star()
        assert x == y and hash(x) == hash(y)

    def test_one_is_not_zero(self):
        assert not CuntzElement.unit(2).equals(CuntzElement.zero(2))

    def test_absorbed_unit_relation(self):
        # s1 = s1 s1* s1 + s2 s2* s1 reduces on the nose
        lhs = s(1)
        rhs = s(1) * s(1).star() * s(1) + s(2) * s(2).star() * s(1)
        assert rhs == lhs
        assert rhs.equals(lhs)

    def test_partial_sum_of_projections_differs_from_unit(self):
        assert not (s(1) * s(1).star()).equals(CuntzElement.unit(2))

    def test_expand_is_sound(self):
        rng = random.Random(55)
        for _ in range(40):
            base = rng.choice([2, 3])
            x = random_cuntz_element(rng, base)
            depth = max((len(nu) for _, nu in x.terms()), default=0)
            for extra in (0, 1, 2):
                assert x.equals(expand(x, depth + extra))

    def test_zero_sum_insertion_invariance(self):
        rng = random.Random(77)
        for _ in range(60):
            base = rng.choice([2, 3])
            a = random_cuntz_element(rng, base)
            mu = tuple(rng.randint(1, base) for _ in range(rng.randint(0, 2)))
            nu = tuple(rng.randint(1, base) for _ in range(rng.randint(0, 2)))
            q = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
            bump = CuntzElement.monomial(base, mu, nu, q)
            refined = CuntzElement(
                base,
                {(mu + (i,), nu + (i,)): q for i in range(1, base + 1)},
            )
            b = a + bump - refined  # adds q·(monomial - its refinement) = 0
            assert a.equals(b)
            assert b.equals(a)

    def test_equals_is_equivalence_on_samples(self):
        rng = random.Random(88)
        pool = [random_cuntz_element(rng, 2, max_terms=2, max_len=2) for _ in range(8)]
        pool += [expand(x, 2) for x in pool[:4]]
        for x in pool:
            assert x.equals(x)
        for x in pool:
            for y in pool:
                assert x.equals(y) == y.equals(x)
        for x in pool:
            for y in pool:
                for z in pool:
                    if x.equals(y) and y.equals(z):
                        assert x.equals(z)


def _expand_equal(x, y):
    """The reference route: refine both sides to one common adjoint depth."""
    depth = max((len(nu) for z in (x, y) for _, nu in z.terms()), default=0)
    return expand(x, depth) == expand(y, depth)


def _in_basis(x):
    d = x.base
    return not any(mu and nu and mu[-1] == d and nu[-1] == d for mu, nu in x.terms())


def _power(i, n):
    return " ".join([f"s{i}"] * n)


class TestNormalForm:
    def test_unit_relation_by_hand(self):
        # s2 s2* = 1 - s1 s1* at d=2, so both sides share one normal form
        total = s(1) * s(1).star() + s(2) * s(2).star()
        assert total.normal_form() == CuntzElement.unit(2)
        assert (s(2) * s(2).star()).normal_form() == CuntzElement(2, {((), ()): 1, ((1,), (1,)): -1})

    def test_trailing_letters_closed_form(self):
        # S_{1 3 3} S_{2 3 3}* at d=3: strip k=2 shared trailing 3s, then
        # subtract the j<2, i<3 refinements of S_1 S_2*
        x = CuntzElement.monomial(3, (1, 3, 3), (2, 3, 3), Fraction(2, 3))
        expected = {((1,), (2,)): Fraction(2, 3)}
        for tail in ((1,), (2,), (3, 1), (3, 2)):
            expected[((1,) + tail, (2,) + tail)] = Fraction(-2, 3)
        assert x.normal_form().terms() == expected
        assert _expand_equal(x, x.normal_form())

    def test_only_shared_trailing_letters_are_stripped(self):
        # mu ends in d, nu does not: already a basis element
        x = CuntzElement.monomial(2, (1, 2), (2, 1))
        assert x.normal_form() == x
        # k stops at the shorter word
        y = CuntzElement.monomial(2, (2, 2, 2), (2,))
        assert y.normal_form().terms() == {((2, 2), ()): 1, ((2, 2, 1), (1,)): -1}

    def test_expanded_unit_normalizes_to_unit(self):
        x = expand(CuntzElement.unit(3), 2)
        assert len(x.terms()) == 9
        assert x.normal_form() == CuntzElement.unit(3)

    def test_deep_pair_the_expand_route_cannot_reach(self):
        # 2^200 terms by expansion; at most 1 + 200·(d-1) per term here
        depth = 200
        deep = f"{_power(2, depth)} {_power(2, depth).replace('s2', 's2*')}"
        x = parse_expression(2, f"1 + {deep}")
        y = parse_expression(2, f"s1 s1* + s2 s2* + {deep}")
        off = parse_expression(2, f"2 + {deep}")
        assert x != y
        assert x.equals(y) and y.equals(x)
        assert not off.equals(y) and not y.equals(off)
        for z in (x, y, off):
            assert len(z.normal_form().terms()) <= len(z.terms()) * (1 + depth * (2 - 1))

    def test_depth_twelve_at_four_isometries(self):
        # words ending in s4: every term has shared trailing letters d
        depth = 12
        u = parse_expression(4, f"{_power(4, depth)} {_power(4, depth).replace('s4', 's4*')}")
        resolved = CuntzElement.zero(4)
        for i in range(1, 5):
            resolved = resolved + parse_expression(
                4, f"{_power(4, depth)} s{i} s{i}* {_power(4, depth).replace('s4', 's4*')}"
            )
        assert u.equals(resolved)
        assert not u.equals(resolved + resolved)
        for z in (u, resolved):
            assert len(z.normal_form().terms()) <= len(z.terms()) * (1 + (depth + 1) * (4 - 1))

    def test_terms_budget(self, monkeypatch):
        # the budget counts k·(d-1) per term ending in k shared letters d
        monkeypatch.setattr(spherecp.cuntz_words, "NORMAL_FORM_TERMS_BUDGET", 10)
        at_budget = CuntzElement(3, {((1, 3, 3, 3), (3, 3, 3)): 1, ((3, 3), (2, 3, 3)): 1})  # 3·2 + 2·2
        assert len(at_budget.normal_form().terms()) == 2 + 10
        # basis terms pay nothing
        basis = CuntzElement(3, {((i,), (3, j)): 1 for i in (1, 2, 3) for j in (1, 2)})
        assert (at_budget + basis).normal_form() == at_budget.normal_form() + basis
        over = at_budget + CuntzElement.monomial(3, (3,), (3,))
        with pytest.raises(SpherecpInputError, match=r"NORMAL_FORM_TERMS_BUDGET \(10 terms\)"):
            over.normal_form()
        with pytest.raises(SpherecpInputError, match="NORMAL_FORM_TERMS_BUDGET"):
            over.equals(at_budget)

    def test_terms_budget_refuses_a_huge_base_at_once(self):
        d = 10**9
        x = CuntzElement.monomial(d, (d,), (d,))
        with time_limit(1), pytest.raises(SpherecpInputError, match="NORMAL_FORM_TERMS_BUDGET"):
            x.normal_form()
        assert NORMAL_FORM_TERMS_BUDGET == 100_000
        # s_d s_d* expands to d terms, so d = budget + 1 is the largest base it takes
        d = NORMAL_FORM_TERMS_BUDGET + 1
        assert len(CuntzElement.monomial(d, (d,), (d,)).normal_form().terms()) == d
        with pytest.raises(SpherecpInputError):
            CuntzElement.monomial(d + 1, (d + 1,), (d + 1,)).normal_form()

    @given(st.integers(2, 4).flatmap(lambda d: st.tuples(
        st.just(d),
        st.lists(st.integers(1, d), max_size=4),
        st.lists(st.integers(1, d), max_size=4),
        st.integers(1, 6),
    )))
    @settings(max_examples=100, deadline=None)
    def test_letters_count_the_expanded_words(self, drawn):
        # a term ending in k shared letters d writes k·(d-1)·(|mu| + |nu| - k + 1) letters
        d, mu, nu, k = drawn
        if mu and nu and mu[-1] == nu[-1] == d:
            nu[-1] = 1  # so the shared run is exactly k long
        mu, nu = (*mu, *[d] * k), (*nu, *[d] * k)
        written = sum(len(a) + len(b) for a, b in CuntzElement.monomial(d, mu, nu).normal_form().terms())
        stem = len(mu) + len(nu) - 2 * k  # the one term that keeps its stem
        assert written - stem == k * (d - 1) * (len(mu) + len(nu) - k + 1)

    def test_letters_budget(self, monkeypatch):
        x = CuntzElement.monomial(3, (1, 3, 3), (3, 3))  # k = 2: 2·2·(3 + 2 - 2 + 1) = 16 letters
        monkeypatch.setattr(spherecp.cuntz_words, "NORMAL_FORM_LETTERS_BUDGET", 16)
        assert len(x.normal_form().terms()) == 1 + 4
        monkeypatch.setattr(spherecp.cuntz_words, "NORMAL_FORM_LETTERS_BUDGET", 15)
        with pytest.raises(SpherecpInputError, match=r"NORMAL_FORM_LETTERS_BUDGET \(15 letters\)"):
            x.normal_form()
        with pytest.raises(SpherecpInputError, match="NORMAL_FORM_LETTERS_BUDGET"):
            x.equals(x)

    def test_letters_budget_refuses_a_long_shared_run_at_once(self):
        # s2^k s2*^k: k terms within the terms budget, but about k² letters
        k = 20_000
        x = CuntzElement.monomial(2, (2,) * k, (2,) * k)
        assert k * (2 - 1) <= NORMAL_FORM_TERMS_BUDGET < k * (k + 1)
        assert NORMAL_FORM_LETTERS_BUDGET == 10_000_000
        with time_limit(1), pytest.raises(SpherecpInputError, match="NORMAL_FORM_LETTERS_BUDGET"):
            x.normal_form()



@st.composite
def elements(draw, base=None, max_len=3):
    """Small elements over 2 or 3 isometries with nonzero rational coefficients."""
    d = base if base is not None else draw(st.sampled_from((2, 3)))
    word = st.lists(st.integers(1, d), max_size=max_len).map(tuple)
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from((1, 2, 3)))
    return CuntzElement(d, draw(st.dictionaries(st.tuples(word, word), coeff, max_size=4)))


_LONG = st.integers(10**640, 10**1300)


@st.composite
def long_elements(draw):
    """Elements with a numerator or denominator of more than 640 digits."""
    d = draw(st.sampled_from((2, 3)))
    word = st.lists(st.integers(1, d), max_size=2).map(tuple)
    numerator = st.one_of(st.integers(-3, 3).filter(bool), _LONG, _LONG.map(lambda n: -n))
    coeff = st.builds(Fraction, numerator, st.one_of(st.integers(1, 3), _LONG))
    x = CuntzElement(d, draw(st.dictionaries(st.tuples(word, word), coeff, min_size=1, max_size=4)))
    assume(any(max(abs(c.numerator), c.denominator) >= 10**640 for c in x.terms().values()))
    return x


@st.composite
def wide_elements(draw, base=None):
    """Elements over 10, 12 or 10**9 isometries whose letters, drawn from
    1, 9, 10, 11 and d, take one digit or several."""
    d = base if base is not None else draw(st.sampled_from((10, 12, 10**9)))
    word = st.lists(st.sampled_from(sorted({i for i in (1, 9, 10, 11, d) if i <= d})), max_size=3).map(tuple)
    coeff = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from((1, 2, 3)))
    return CuntzElement(d, draw(st.dictionaries(st.tuples(word, word), coeff, max_size=4)))


@st.composite
def rewritten(draw, x):
    """``x`` with one term refined along the unit relation, sometimes perturbed."""
    d = x.base
    out = x.terms()
    if out:
        key = draw(st.sampled_from(sorted(out)))
        c = out.pop(key)
        mu, nu = key
        for i in range(1, d + 1):
            k = (mu + (i,), nu + (i,))
            out[k] = out.get(k, 0) + c
    y = CuntzElement(d, out)
    if draw(st.booleans()):
        y = y + CuntzElement.monomial(d, draw(st.lists(st.integers(1, d), max_size=2)), ())
    return y


@st.composite
def expressions(draw):
    """A random sum of products of atoms, as text and as the element it denotes.

    The element is built through the algebra (``generator``, ``star``,
    ``*`` by a multiple of the unit, element ``+``/``-``), independently of
    the parser.
    """
    d = draw(st.sampled_from((2, 3)))
    text, x = "", CuntzElement.zero(d)
    for n in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(("+", "-") if n else ("", "-")))
        atoms, term = [], CuntzElement.unit(d)
        for _ in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(("gen", "adj", "num")))
            if kind == "num":
                num, den = draw(st.integers(0, 5)), draw(st.integers(1, 3))
                atoms.append(f"{num}/{den}" if den > 1 else str(num))
                term = term * CuntzElement(d, {((), ()): Fraction(num, den)})
            else:
                k = draw(st.integers(1, d))
                atoms.append(f"s{k}*" if kind == "adj" else f"s{k}")
                term = term * (generator(d, k).star() if kind == "adj" else generator(d, k))
        gap = draw(st.sampled_from(("", " ")))
        text += f"{sign}{gap}{' '.join(atoms)}{gap}"
        x = x - term if sign == "-" else x + term
    return d, text, x


EXPRESSION_PIECES = ["s", "*", "/", " 1/0 ", "+", "-", "+ -", "0", "1", "2", "3", "12", "\u0661", " ", "\t", "\xa0",
                     "x", "s0", "s1", "s2*", "s9"]
LONG_LITERALS = st.sampled_from(["7" * LITERAL_DIGITS_BUDGET, "7" * (LITERAL_DIGITS_BUDGET + 1)])


@st.composite
def expression_texts(draw):
    """Generated expression text, then edited, with its number of isometries.

    Up to three pieces (signs, ``s``, ``*``, ``/``, digits, an
    Arabic-Indic digit, tab, NBSP, a foreign ``x``, generators in and out
    of range, a zero denominator) go in at drawn places, and some texts
    get a literal at the budget or one digit past it, so the texts run
    from well formed to refused at any point.
    """
    d, text, _ = draw(expressions())
    pieces = draw(st.lists(st.sampled_from(EXPRESSION_PIECES), max_size=3))
    if draw(st.integers(0, 7)) == 0:
        pieces.append(draw(st.sampled_from(["", "s", "1/"])) + draw(LONG_LITERALS))
    for piece in pieces:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + piece + text[at:]
    return d, text


class TestNormalFormProperties:
    @given(elements())
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, x):
        nf = x.normal_form()
        assert nf.normal_form() == nf

    @given(elements())
    @settings(max_examples=100, deadline=None)
    def test_terms_lie_in_the_basis(self, x):
        assert _in_basis(x.normal_form())

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_agrees_with_expand_route(self, data):
        x = data.draw(elements())
        y = data.draw(st.one_of(rewritten(x), elements(base=x.base)))
        assert max((len(nu) for z in (x, y) for _, nu in z.terms()), default=0) <= 6
        assert x.equals(y) == _expand_equal(x, y)
        assert x.equals(x.normal_form())

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_products_respect_normal_forms(self, data):
        x = data.draw(elements())
        y = data.draw(elements(base=x.base))
        assert (x * y).normal_form() == (x.normal_form() * y.normal_form()).normal_form()
        assert (x + y).normal_form() == (x.normal_form() + y.normal_form()).normal_form()
        assert x.star().equals(x.normal_form().star())

    @given(wide_elements())
    @settings(max_examples=100, deadline=None)
    def test_multi_digit_letters(self, x):
        d = x.base
        if d == 10**9 and any(mu[-1:] == nu[-1:] == (d,) for mu, nu in x.terms()):
            # a term ending in the shared letter d would expand to d - 1 terms
            with pytest.raises(SpherecpInputError, match="NORMAL_FORM_TERMS_BUDGET"):
                x.normal_form()
            return
        nf = x.normal_form()
        assert nf.normal_form() == nf
        assert _in_basis(nf)
        assert nf.terms() == fraction_normal_form(d, x.terms())


@st.composite
def fraction_maps(draw, base):
    """A coefficient map over ``base`` isometries, zero coefficients and denominators up to 12 included."""
    word = st.lists(st.integers(1, base), max_size=3).map(tuple)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    return draw(st.dictionaries(st.tuples(word, word), coeff, max_size=5))


def _primes(n):
    out, k = [], 2
    while len(out) < n:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out


class TestCommonDenominator:
    """Integer numerators over one common denominator agree with ``Fraction`` arithmetic."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_results_agree_with_fraction_arithmetic(self, data):
        base = data.draw(st.sampled_from((2, 3)))
        x = CuntzElement(base, data.draw(fraction_maps(base)))
        y = CuntzElement(base, data.draw(fraction_maps(base)))
        k = data.draw(st.integers(-2, 2))
        six, sixth = CuntzElement(base, {((), ()): 6}), CuntzElement(base, {((), ()): Fraction(1, 6)})
        xt, yt = x.terms(), y.terms()
        total = {key: c for key in dict.fromkeys([*xt, *yt]) if (c := xt.get(key, 0) + yt.get(key, 0))}
        cases = [
            (x * y, fraction_product(xt, yt)),
            (x + y, total),
            (x - x, {}),
            (-x, {key: -c for key, c in xt.items()}),
            (x.star(), {(nu, mu): c for (mu, nu), c in xt.items()}),
            (x.normal_form(), fraction_normal_form(base, xt)),
            (x.spectral_component(k), {key: c for key, c in xt.items() if len(key[0]) - len(key[1]) == k}),
        ]
        for result, expected in cases:
            assert result.terms() == expected
            # the same Fraction map reached by other routes: checked, reparsed,
            # through a larger denominator and back
            for other in (
                CuntzElement(base, expected),
                parse_expression(base, str(result)),
                result + y - y,
                result * six * sixth,
            ):
                assert other == result
                assert hash(other) == hash(result)
            # a different map over the same numerators is not equal
            assert (result + result == result) == result.is_zero
            assert result.equals(result + result) == result.is_zero
        # a sum lists the left operand's keys first, then the right's
        assert list((x + y).terms()) == list(total)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_products_follow_the_reference_product(self, data):
        # values and key order both: repr and terms() list the keys in the
        # order the pairs of terms reach them, a cancelled key going last
        # if it comes back; multi-digit letters included
        x = data.draw(st.one_of(elements(max_len=2), wide_elements()))
        y = data.draw(elements(base=x.base, max_len=2) if x.base < 10 else wide_elements(base=x.base))
        expected = fraction_product(x.terms(), y.terms())
        assert list((x * y).terms().items()) == list(expected.items())

    def test_a_cancelled_key_that_comes_back_goes_last(self):
        # (2 - 2P)(P - 1) with P = s1 s1*: the pairs reach P with 2, then
        # -2, so P leaves, then the unit, then P again
        p, one = ((1,), (1,)), ((), ())
        x, y = CuntzElement(2, {p: -2, one: 2}), CuntzElement(2, {one: -1, p: 1})
        assert list(fraction_product(x.terms(), y.terms())) == [one, p]
        assert repr(x * y) == "CuntzElement(2, {((), ()): Fraction(-2, 1), ((1,), (1,)): Fraction(2, 1)})"

    def test_copies_and_pickles_rebuild_the_element(self):
        x = CuntzElement(3, {((2, 1), (3,)): Fraction(-5, 6), ((), ()): Fraction(3, 4)})
        for other in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert other == x
            assert repr(other) == repr(x)
            assert hash(other) == hash(x)

    def test_three_hundred_prime_denominators(self):
        # the common denominator of x is the product of the first 300 primes
        # (2766 bits) and x x* has 90 000 terms over its square: the known
        # cost of one denominator per element, held to a time limit
        primes = _primes(300)
        words = [tuple(int(b) + 1 for b in format(k, "b")) for k in range(1, 301)]  # distinct, over {1, 2}
        xt = {(w, ()): Fraction(1, p) for w, p in zip(words, primes)}
        x = CuntzElement(2, xt)
        with time_limit(10):
            p = x * x.star()
            assert p.equals(p.star())
            text = str(p)
        assert p.terms() == fraction_product(xt, {(nu, mu): c for (mu, nu), c in xt.items()})
        assert text.startswith("1/4 s2 s2* + 1/6 s2 s1* s2* + 1/10 s2 s2* s2* + 1/14 s2 s1* s1* s2*")


class TestGrading:
    def test_degree_of_monomials(self):
        assert CuntzElement.monomial(2, (1, 2), (1,)).degree() == 1
        assert CuntzElement.monomial(2, (), (1, 1)).degree() == -2
        assert CuntzElement.unit(2).degree() == 0
        assert CuntzElement.zero(2).degree() == 0

    def test_mixed_degree_reports_none(self):
        x = s(1) + s(1) * s(2).star()
        assert x.degree() is None

    def test_spectral_component(self):
        x = s(1) + CuntzElement.monomial(2, (1,), (1,))
        assert x.spectral_component(1) == s(1)
        assert x.spectral_component(0) == CuntzElement.monomial(2, (1,), (1,))
        assert x.spectral_component(5).is_zero

    def test_components_sum_to_element(self):
        rng = random.Random(99)
        for _ in range(30):
            x = random_cuntz_element(rng, 3)
            degs = {len(mu) - len(nu) for mu, nu in x.terms()}
            total = CuntzElement.zero(3)
            for k in degs:
                total = total + x.spectral_component(k)
            assert total == x

    def test_degree_additive_under_mul(self):
        rng = random.Random(123)
        for _ in range(100):
            base = rng.choice([2, 3])
            h = rng.randint(-2, 2)
            k = rng.randint(-2, 2)
            x = random_homogeneous_element(rng, base, h)
            y = random_homogeneous_element(rng, base, k)
            if x.is_zero or y.is_zero:
                continue
            p = x * y
            assert p.is_zero or p.degree() == h + k

    def test_product_components_are_convolutions(self):
        rng = random.Random(321)
        for _ in range(30):
            x = random_cuntz_element(rng, 2, max_terms=3, max_len=2)
            y = random_cuntz_element(rng, 2, max_terms=3, max_len=2)
            p = x * y
            degs = {len(mu) - len(nu) for mu, nu in p.terms()}
            for m in degs:
                conv = CuntzElement.zero(2)
                for h in range(-4, 5):
                    conv = conv + x.spectral_component(h) * y.spectral_component(m - h)
                assert p.spectral_component(m) == conv


class TestExpressionText:
    def test_parse_monomials(self):
        assert parse_expression(2, "s1 s2*") == CuntzElement.monomial(2, (1,), (2,))
        assert parse_expression(2, "1") == CuntzElement.unit(2)
        assert parse_expression(2, "s1* s1") == CuntzElement.unit(2)
        assert parse_expression(2, "s1* s2").is_zero

    def test_parse_sums_and_coefficients(self):
        x = parse_expression(2, "s1 s2* + 2 s1 s1 s2* s1*")
        expected = CuntzElement(
            2, {((1,), (2,)): 1, ((1, 1), (1, 2)): 2}
        )
        assert x == expected

    def test_parse_rational_and_signs(self):
        x = parse_expression(2, "1/2 s1 - 3 s2 + 1")
        assert x == CuntzElement(
            2, {((1,), ()): Fraction(1, 2), ((2,), ()): -3, ((), ()): 1}
        )
        assert parse_expression(2, "-s1") == -s(1)

    def test_adjoint_word_order(self):
        # s1 s1* s2* should mean S_(1) S_(2,1)* : the starred letters
        # compose in reverse
        x = parse_expression(2, "s1 s1* s2*")
        assert x == CuntzElement.monomial(2, (1,), (2, 1))

    def test_parse_errors_carry_positions(self):
        with pytest.raises(ExpressionParseError) as err:
            parse_expression(2, "s1 ? s2")
        assert err.value.position == 3
        with pytest.raises(ExpressionParseError) as err:
            parse_expression(2, "s3 s1")
        assert err.value.position == 0
        with pytest.raises(ExpressionParseError):
            parse_expression(2, "s1 + + s2")
        for text in ("s1 +", "s1 + \t "):
            with pytest.raises(ExpressionParseError, match="dangling operator") as err:
                parse_expression(2, text)
            assert err.value.position == 3
        with pytest.raises(ExpressionParseError):
            parse_expression(2, "")
        with pytest.raises(ExpressionParseError):
            parse_expression(2, "1/0 s1")
        # with two errors, the leftmost one is reported
        with pytest.raises(ExpressionParseError, match="empty term before operator") as err:
            parse_expression(2, "+ - s3*")
        assert err.value.position == 2
        # the parser refuses a bad number of isometries, as the constructor
        # does, with the input error the command line maps to exit code 1
        for bad in (1, True, 2.0):
            with pytest.raises(SpherecpInputError, match="number of isometries"):
                parse_expression(bad, "s1")
            with pytest.raises(SpherecpInputError, match="number of isometries"):
                CuntzElement(bad)

    def test_literal_budget(self):
        # coefficients and generator indices past the budget are parse errors
        # at the literal, not int()'s bare ValueError
        for text, position in [("1" * 5000 + " s1", 0), ("s" + "1" * 5000, 1),
                               ("s1 + 1/" + "2" * 5000, 7)]:
            with pytest.raises(ExpressionParseError, match="LITERAL_DIGITS_BUDGET") as err:
                parse_expression(2, text)
            assert err.value.position == position
        x = parse_expression(2, "9" * 4300 + " s1")
        assert x.terms() == {((1,), ()): Fraction(int("9" * 4300))}

    def test_text_past_the_budget_is_refused_before_it_is_read(self):
        # one literal padded with spaces to one character past the budget: the
        # same text one space shorter is read (the next test), so only its length refuses it
        assert EXPRESSION_TEXT_BUDGET == 262_144
        text = "7".ljust(EXPRESSION_TEXT_BUDGET + 1)
        message = r"expression text of 262145 characters exceeds EXPRESSION_TEXT_BUDGET \(262144 characters\)"
        with time_limit(1), pytest.raises(ExpressionParseError, match=message) as err:
            parse_expression(2, text)
        assert err.value.position is None

    def test_text_at_the_budget_is_read(self):
        text = "7".ljust(EXPRESSION_TEXT_BUDGET)
        with time_limit(1):
            assert parse_expression(2, text) == CuntzElement(2, {((), ()): 7})

    def test_literal_past_a_lowered_interpreter_limit(self):
        # a process may lower the int <-> str limit below the budget
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(1000)
        try:
            # a coefficient, a denominator and a generator index
            for text, position in [("1" * 2000 + " s1", 0), ("s1 + 1/" + "2" * 1001, 7),
                                   ("s2 s" + "1" * 1001, 4)]:
                with pytest.raises(ExpressionParseError, match=r"int <-> str limit \(1000 digits\)") as err:
                    parse_expression(2, text)
                assert err.value.position == position
            x = parse_expression(2, "9" * 1000 + " s1")
            assert x.terms() == {((1,), ()): Fraction(int("9" * 1000))}
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("limit", [0, 10_000])
    def test_budget_holds_past_a_raised_interpreter_limit(self, limit):
        # with no limit (0) or a higher one, int() would take the literal,
        # so the budget alone refuses it, an index in range included
        long = "1" * (LITERAL_DIGITS_BUDGET + 1)
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for text, position in [(f"s1 - {long} s2", 5), (f"s1 + 1/{long}", 7), (f"s2 s{long}", 4),
                                   (f"s{'0' * LITERAL_DIGITS_BUDGET}1", 1)]:
                with pytest.raises(ExpressionParseError, match="LITERAL_DIGITS_BUDGET") as err:
                    parse_expression(2, text)
                assert err.value.position == position
        finally:
            sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize("limit", [4300, 1000, 0])
    @given(expression_texts())
    @settings(max_examples=600, deadline=None)
    def test_property_matches_the_token_scan(self, limit, case):
        # one findall accepts what the token scan accepts, with the same
        # terms in the same order, and refused text keeps the scan's
        # message and position, under the default, a lowered and no
        # int <-> str limit; the limit is set here, not in a fixture,
        # because hypothesis runs every example inside one test call
        d, text = case
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            try:
                expected = parse_expression_tokens(d, text)
            except ExpressionTextError as refused:
                with pytest.raises(ExpressionParseError) as err:
                    parse_expression(d, text)
                assert (str(err.value), err.value.position) == (str(refused), refused.position)
            else:
                assert list(parse_expression(d, text).terms().items()) == list(expected.items())
        finally:
            sys.set_int_max_str_digits(previous)

    def test_well_formed_text(self):
        cases = [
            (d, " + ".join(f"s{i} s{i}*" for i in range(1, d + 1)),
             {((i,), (i,)): 1 for i in range(1, d + 1)})
            for d in (2, 3, 4)
        ]
        cases += [
            (2, "1/2 s1 - 3/4 s2 s1* + 5/6", {((1,), ()): Fraction(1, 2), ((2,), (1,)): Fraction(-3, 4),
                                              ((), ()): Fraction(5, 6)}),
            (2, "s1* s1", {((), ()): 1}),
            (2, "s1* s2", {}),
            (2, "0 s1 + s2", {((2,), ()): 1}),
            (2, "- s1 + 2", {((1,), ()): -1, ((), ()): 2}),
            (2, "s1s2*", {((1,), (2,)): 1}),
            (2, "s1 2 s2*", {((1,), (2,)): 2}),  # a scalar may come after a generator
            (2, "2 3 s1", {((1,), ()): 6}),  # and every scalar multiplies in
        ]
        for d, text, terms in cases:
            assert parse_expression(d, text) == CuntzElement(d, terms)

    def test_rendering_is_canonical_and_round_trips(self):
        x = parse_expression(2, "s2 s1* + s1")
        assert str(x) == "s1 + s2 s1*"
        rng = random.Random(31)
        for _ in range(50):
            base = rng.choice([2, 3])
            y = random_cuntz_element(rng, base)
            assert parse_expression(base, str(y)) == y

    def test_rendering_signs_and_unit(self):
        assert str(CuntzElement.zero(2)) == "0"
        assert str(CuntzElement.unit(2)) == "1"
        assert str(-CuntzElement.unit(2)) == "-1"
        x = CuntzElement(2, {((1,), ()): Fraction(-1, 2), ((), ()): 2})
        assert str(x) == "2 - 1/2 s1"

    @given(st.one_of(elements(), elements(max_len=0), wide_elements(), st.sampled_from((2, 3)).map(CuntzElement.zero)))
    @settings(max_examples=400, deadline=None)
    def test_property_rendering_matches_the_format(self, x):
        # negative, fractional and unit coefficients, bare scalars, zero and
        # letters of several digits
        assert str(x) == render_element(x)
        assert str(-x) == render_element(-x)

    def test_rendering_over_a_huge_base_reads_only_its_letters(self):
        # no table of letter names is sized by d
        d = 10**9
        x = parse_expression(d, f"s{d} s1 - 3/7 s{d} s{d}* + 2")
        with time_limit(1):
            text = str(x)
        assert text == "2 - 3/7 s1000000000 s1000000000* + s1000000000 s1"

    @given(long_elements())
    @settings(max_examples=100, deadline=None)
    def test_property_renders_past_a_lowered_int_str_limit(self, x):
        # numerators and denominators past 640 digits, the least int -> str
        # limit an interpreter takes, render as with no limit; the limit is
        # set here, not in a fixture, because hypothesis runs every example
        # inside one test call
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = str(x)
            sys.set_int_max_str_digits(640)
            assert str(x) == expected
        finally:
            sys.set_int_max_str_digits(previous)

    @given(st.one_of(elements(), elements(max_len=0), st.sampled_from((2, 3)).map(CuntzElement.zero)))
    @settings(max_examples=200, deadline=None)
    def test_repr_evaluates_to_the_element(self, x):
        # negative, fractional and unit coefficients, bare scalars and zero
        namespace = {"CuntzElement": CuntzElement, "Fraction": Fraction}
        for y in (x, -x, x + CuntzElement(x.base, {((1,), (2,)): Fraction(-5, 4)})):
            assert eval(repr(y), namespace) == y

    def test_repr_past_the_int_str_limit_is_exact(self):
        # the coefficient N^2, N = 10^3000 - 1, has 6000 digits; Fraction's
        # own repr calls str on it and raised ValueError
        n = "9" * 3000
        square = "9" * 2999 + "8" + "0" * 2999 + "1"
        x = parse_expression(2, f"{n} {n} s1")
        assert repr(x) == f"CuntzElement(2, {{((1,), ()): Fraction({square}, 1)}})"
        y = parse_expression(2, f"-{n} {n}/10 s1")
        assert repr(y) == f"CuntzElement(2, {{((1,), ()): Fraction(-{square}, 10)}})"

    @given(long_elements())
    @settings(max_examples=100, deadline=None)
    def test_property_repr_past_a_lowered_int_str_limit(self, x):
        # as test_property_renders_past_a_lowered_int_str_limit, for repr
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = repr(x)
            assert eval(expected, {"CuntzElement": CuntzElement, "Fraction": Fraction}) == x
            sys.set_int_max_str_digits(640)
            assert repr(x) == expected
        finally:
            sys.set_int_max_str_digits(previous)

    def test_letters_past_the_int_str_limit_are_named_exactly(self):
        # the constructor takes this element; its letter names, base and
        # word tuples used to raise ValueError in str and repr
        d = 10**5000
        x = CuntzElement(d, {((d,), ()): 1})
        text = "1" + "0" * 5000
        assert str(x) == f"s{text}"
        assert repr(x) == f"CuntzElement({text}, {{(({text},), ()): Fraction(1, 1)}})"
        assert str(CuntzElement(d, {((), (d, 1)): -2})) == f"-2 s1* s{text}*"

    @given(st.integers(641, 2000).flatmap(lambda k: wide_elements(base=10**k + 3)))
    @settings(max_examples=50, deadline=None)
    def test_property_huge_letters_past_a_lowered_int_str_limit(self, x):
        # with no limit, str is the f"s{i}" names' text and repr the built-in
        # repr of the base, the word tuples and each Fraction; under a
        # 640-digit limit both are the same text
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = str(x), repr(x)
            terms = ", ".join(f"{key!r}: {c!r}" for key, c in x.terms().items())
            assert expected[1] == f"CuntzElement({x.base!r}, {{{terms}}})"
            sys.set_int_max_str_digits(640)
            assert (str(x), repr(x)) == expected
        finally:
            sys.set_int_max_str_digits(previous)

    def test_repr_names_its_terms(self):
        x = CuntzElement(2, {((1,), ()): Fraction(-1, 2), ((), ()): 2})
        assert repr(x) == "CuntzElement(2, {((1,), ()): Fraction(-1, 2), ((), ()): Fraction(2, 1)})"
        assert repr(CuntzElement.zero(3)) == "CuntzElement(3, {})"

    @given(expressions())
    @settings(max_examples=200, deadline=None)
    def test_parse_agrees_with_the_element_algebra(self, case):
        d, text, x = case
        assert parse_expression(d, text) == x

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_token_spans_tile_the_text(self, text):
        # the catch-all alternative matches any non-whitespace character no
        # token takes, so the tokens skip only whitespace and parse_expression
        # sees every other character, the one it refuses included
        atoms = [m.group() for m in spherecp.cuntz_words._EXPR_ATOM.finditer(text)]
        assert "".join(atoms) == "".join(text.split())

    def test_parse_is_inverse_of_str_on_expanded_forms(self):
        x = expand(CuntzElement.unit(2), 2)
        assert parse_expression(2, str(x)) == x
