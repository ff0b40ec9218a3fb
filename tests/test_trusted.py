"""Values the library builds without checks pass every check of their public constructor.

``fgab._trusted`` skips the checks of a value class's ``__new__`` (and
``CuntzElement.__new__``) for values derived from already validated ones.
Each such value is rebuilt here through the public constructors, which run
every check, and must be accepted and compare equal.  ``_make`` and
``_replace``, which every named tuple has, keep those checks too.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import expand, random_cuntz_element

from spherecp.bundles import RankTooSmall, SphereBundleSpec
from spherecp.classify import classify_report
from spherecp.cuntz_words import CuntzElement, parse_expression
from spherecp.fgab import FgAbGroup, IntMatrix, cokernel, kernel, smith_normal_form
from spherecp.ktheory import TruncPoly, delta1_class, k_class
from spherecp.pimsner import k_groups, k_groups_trivial, pimsner_matrix


def rebuilt(value):
    """``value`` rebuilt field by field through the public constructors."""
    fields = getattr(type(value), "_fields", None)
    if fields is None:  # an int, a bool, a string or a plain tuple
        return value
    return type(value)(*[rebuilt(getattr(value, name)) for name in fields])


def assert_valid(value):
    assert hasattr(type(value), "_fields")  # a value class, which rebuilt() recurses into
    copy = rebuilt(value)
    assert copy == value
    assert hash(copy) == hash(value)  # fields are tuples, as the checked route stores them


@st.composite
def small_matrices(draw):
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 4))
    entry = st.integers(-12, 12)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return IntMatrix.from_rows(rows, cols=n)


@st.composite
def specs(draw):
    sphere = draw(st.integers(1, 8))
    euler = 0 if sphere % 2 else draw(st.integers(-12, 12))
    return SphereBundleSpec(sphere, draw(st.integers(2, 12)), euler)


@given(small_matrices())
@settings(max_examples=200, deadline=None)
def test_matrix_results_pass_the_checks(a):
    assert_valid(cokernel(a))
    assert_valid(kernel(a))
    snf = smith_normal_form(a)
    for part in (snf.U, snf.D, snf.V):
        assert_valid(part)


@given(specs())
@settings(max_examples=200, deadline=None)
def test_spec_results_pass_the_checks(spec):
    assert_valid(pimsner_matrix(spec))
    assert_valid(k_class(spec))
    assert_valid(delta1_class(spec))
    assert_valid(k_groups(spec))
    if spec.sphere_dim % 2 == 0:
        assert_valid(k_groups_trivial(spec))
    assert_valid(classify_report(spec))  # rebuilt recurses into its KGroupPairs


@st.composite
def element_pairs(draw):
    base = draw(st.integers(2, 3))
    rng = draw(st.randoms(use_true_random=False))
    return random_cuntz_element(rng, base), random_cuntz_element(rng, base)


def assert_valid_element(x):
    copy = CuntzElement(x.base, x.terms())
    assert copy == x
    assert hash(copy) == hash(x)
    assert all(x.terms().values())  # the checked route drops zero coefficients
    # the one stored form: int numerators, none zero, over a positive
    # common denominator that shares no factor with all of them
    numerators = list(x._coeffs.values())
    assert all(type(c) is int for c in [x._den, *numerators])
    assert x._den > 0
    assert gcd(x._den, *numerators) == 1
    assert all(numerators)


@given(element_pairs(), st.integers(-2, 2))
@settings(max_examples=200, deadline=None)
def test_word_results_pass_the_checks(pair, k):
    x, y = pair
    parsed = parse_expression(x.base, str(x))
    depth = max(len(nu) for _, nu in x.terms()) + 1
    results = [
        parsed, x * y, x + y, x - x, -x,
        x.star(), x.normal_form(), (x + y).normal_form(), x.spectral_component(k),
        expand(x, depth), expand(x - x.normal_form(), depth),
    ]
    for result in results:
        assert_valid_element(result)
    assert results[-1].is_zero  # x - normal_form(x) is 0, and refined terms are independent


def test_replace_and_make_keep_the_checks():
    spec = SphereBundleSpec(4, 3, 1)
    with pytest.raises(RankTooSmall):
        spec._replace(rank=1)
    with pytest.raises(ValueError, match="divisor chain"):
        FgAbGroup._make([0, (2, 3)])
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix.identity(2)._replace(entries=((1, 0), (0,)))
    with pytest.raises(TypeError):
        TruncPoly(3, 1)._replace(z1=True)
    # a valid replacement builds through the same checks and normalises as they do
    assert spec._replace(euler_param=-2) == SphereBundleSpec(4, 3, -2)
    assert FgAbGroup._make([1, [2, 4]]) == FgAbGroup(1, (2, 4))


VALUES = [
    SphereBundleSpec(4, 3, 1),
    IntMatrix.identity(2),
    FgAbGroup(1, (2,)),
    TruncPoly(3, -1),
    smith_normal_form(IntMatrix.identity(2)),
    k_groups(SphereBundleSpec(4, 3, 1)),
    classify_report(SphereBundleSpec(4, 3, 1)),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_values_are_immutable(value):
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
