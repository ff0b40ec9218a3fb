"""Tests for the word calculus on d isometries.

The worked reductions (prefix cancellations, unit-relation expansions)
were checked by hand before being frozen here; the randomized blocks
verify the ring laws, grading, and the decidability contract of
``equals`` on small elements.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_cuntz_element, random_homogeneous_element
from spherecp.cuntz_words import (
    BaseMismatchError,
    CuntzElement,
    ExpressionParseError,
    generator,
    parse_expression,
)


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

    def test_scalar_action(self):
        x = CuntzElement.monomial(2, (1,), (2,))
        assert 2 * x == x + x
        assert Fraction(1, 2) * (x + x) == x
        assert (x * 0).is_zero


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
                assert x.equals(x.expand(depth + extra))

    def test_expand_depth_too_small_rejected(self):
        x = CuntzElement.monomial(2, (), (1, 2))
        with pytest.raises(ValueError):
            x.expand(1)

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
        pool += [x.expand(2) for x in pool[:4]]
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
    return x.expand(depth) == y.expand(depth)


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
        x = CuntzElement.unit(3).expand(2)
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
        assert not u.equals(resolved * 2)
        for z in (u, resolved):
            assert len(z.normal_form().terms()) <= len(z.terms()) * (1 + (depth + 1) * (4 - 1))



@st.composite
def elements(draw, base=None, max_len=3):
    """Small elements over 2 or 3 isometries with nonzero rational coefficients."""
    d = base if base is not None else draw(st.sampled_from((2, 3)))
    word = st.lists(st.integers(1, d), max_size=max_len).map(tuple)
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
    scalar ``*``, element ``+``/``-``), independently of the parser.
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
                term = term * Fraction(num, den)
            else:
                k = draw(st.integers(1, d))
                atoms.append(f"s{k}*" if kind == "adj" else f"s{k}")
                term = term * (generator(d, k).star() if kind == "adj" else generator(d, k))
        gap = draw(st.sampled_from(("", " ")))
        text += f"{sign}{gap}{' '.join(atoms)}{gap}"
        x = x - term if sign == "-" else x + term
    return d, text, x


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
        with pytest.raises(ExpressionParseError):
            parse_expression(2, "s1 +")
        with pytest.raises(ExpressionParseError):
            parse_expression(2, "")
        with pytest.raises(ExpressionParseError):
            parse_expression(2, "1/0 s1")
        # with two errors, the leftmost one is reported
        with pytest.raises(ExpressionParseError, match="empty term before operator") as err:
            parse_expression(2, "+ - s3*")
        assert err.value.position == 2
        # the parser refuses a bad number of isometries, as the constructor does
        for bad in (1, True, 2.0):
            with pytest.raises(ValueError, match="number of isometries"):
                parse_expression(bad, "s1")

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

    @given(expressions())
    @settings(max_examples=200, deadline=None)
    def test_parse_agrees_with_the_element_algebra(self, case):
        d, text, x = case
        assert parse_expression(d, text) == x

    def test_parse_is_inverse_of_str_on_expanded_forms(self):
        x = CuntzElement.unit(2).expand(2)
        assert parse_expression(2, str(x)) == x
