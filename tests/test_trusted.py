"""Values the library builds without checks pass every check of their public constructor.

``fgab._trusted`` skips ``__post_init__`` (and ``CuntzElement.__init__``)
for values derived from already validated ones.  Each such value is rebuilt
here through the public constructors, which run every check, and must be
accepted and compare equal.
"""

import dataclasses
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import expand, random_cuntz_element

from spherecp.bundles import SphereBundleSpec
from spherecp.classify import classify_report
from spherecp.cuntz_words import CuntzElement, parse_expression
from spherecp.fgab import IntMatrix, cokernel, kernel, smith_normal_form
from spherecp.ktheory import delta1_class, k_class
from spherecp.pimsner import k_groups, k_groups_trivial, pimsner_matrix


def rebuilt(value):
    """``value`` rebuilt field by field through the public constructors."""
    if not dataclasses.is_dataclass(value):
        return value
    fields = {f.name: rebuilt(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return type(value)(**fields)


def assert_valid(value):
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
