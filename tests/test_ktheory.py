"""Tests for sphere K-classes and the grade-one invariant."""

import doctest
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spherecp.ktheory
from oracles import render_k_class
from spherecp.bundles import (
    OddSphereNonzeroClass,
    RankTooSmall,
    SphereBundleSpec,
)
from spherecp.fgab import IntMatrix
from spherecp.ktheory import (
    TruncPoly,
    delta1_class,
    k_class,
)
from spherecp.pimsner import pimsner_matrix

ints = st.integers(-50, 50)
_LONG = st.integers(10**640, 10**1300)
long_ints = st.one_of(st.integers(-3, 3), _LONG, _LONG.map(lambda n: -n))


def test_doctests():
    assert doctest.testmod(spherecp.ktheory).failed == 0


class TestTruncPoly:
    def test_rendering(self):
        assert str(TruncPoly(3, 1)) == "3 + λ"
        assert str(TruncPoly(3, 0)) == "3"
        assert str(TruncPoly(0, 2)) == "2·λ"
        assert str(TruncPoly(0, 0)) == "0"
        assert str(TruncPoly(4, -1)) == "4 - λ"
        assert str(TruncPoly(4, -3)) == "4 - 3·λ"
        assert str(TruncPoly(0, -1)) == "-λ"

    def test_rendering_grid(self):
        for z in range(-30, 31):
            for z1 in range(-30, 31):
                assert str(TruncPoly(z, z1)) == render_k_class(z, z1)

    def test_non_int_rejected(self):
        with pytest.raises(TypeError):
            TruncPoly(1.5, 0)  # type: ignore[arg-type]
        # the first coordinate that is no int is the one named
        with pytest.raises(TypeError, match="got float$"):
            TruncPoly(1.5, True)  # type: ignore[arg-type]

    def test_coordinates_default_to_zero(self):
        assert TruncPoly() == (0, 0)
        assert TruncPoly(3) == (3, 0)

    @given(long_ints, long_ints)
    @settings(max_examples=100, deadline=None)
    def test_property_renders_past_a_lowered_int_str_limit(self, z, z1):
        # coefficients past 640 digits, the least int -> str limit an
        # interpreter takes, render as with no limit; the limit is set here,
        # not in a fixture, because hypothesis runs every example inside
        # one test call
        assume(max(abs(z), abs(z1)) >= 10**640)
        x = TruncPoly(z, z1)
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = str(x)
            sys.set_int_max_str_digits(640)
            assert str(x) == expected
        finally:
            sys.set_int_max_str_digits(previous)


class TestDelta1Class:
    def test_even_sphere(self):
        inv = delta1_class(SphereBundleSpec(4, 3, 1))
        assert inv == IntMatrix.from_rows([[3, 0], [1, 3]])
        assert inv.to_text() == "3,0;1,3"

    def test_trivial_class_is_scalar_matrix(self):
        inv = delta1_class(SphereBundleSpec(4, 3, 0))
        assert inv == IntMatrix.from_rows([[3, 0], [0, 3]])

    def test_odd_sphere_collapses(self):
        inv = delta1_class(SphereBundleSpec(5, 4, 0))
        assert inv == IntMatrix.from_rows([[4]])
        assert inv.to_text() == "4"

    @given(st.integers(1, 6), st.integers(2, 50), ints, ints, ints)
    @settings(max_examples=100, deadline=None)
    def test_matrix_realizes_multiplication(self, half, d, c, z, z1):
        # on an even sphere the matrix multiplies z + z1·λ by the K-class
        spec = SphereBundleSpec(2 * half, d, c)
        image = delta1_class(spec) @ IntMatrix.from_rows([[z], [z1]])
        e = k_class(spec)  # (d + c·λ)(z + z1·λ) = d·z + (d·z1 + c·z)·λ, as λ² = 0
        assert (image[0, 0], image[1, 0]) == (e.z * z, e.z * z1 + e.z1 * z)

    def test_action_on_unit(self):
        m = delta1_class(SphereBundleSpec(4, 3, 1))
        e0 = IntMatrix.from_rows([[1], [0]])
        assert (m @ e0)[0, 0] == 3 and (m @ e0)[1, 0] == 1

    def test_presentation_is_identity_minus_invariant(self):
        # multiplication by 1 - [E] is the identity minus multiplication by [E]
        for n in range(1, 9):
            size = 2 if n % 2 == 0 else 1
            for d in range(2, 9):
                for c in (range(-6, 7) if n % 2 == 0 else [0]):
                    spec = SphereBundleSpec(n, d, c)
                    assert pimsner_matrix(spec) == IntMatrix.identity(size) - delta1_class(spec)

    def test_matrix_independent_of_even_dimension(self):
        mats = {
            delta1_class(SphereBundleSpec(n, 5, 3)) for n in (2, 4, 6, 10)
        }
        assert len(mats) == 1

    def test_validation_propagates(self):
        with pytest.raises(RankTooSmall):
            delta1_class(SphereBundleSpec(4, 1, 0))
        with pytest.raises(OddSphereNonzeroClass):
            delta1_class(SphereBundleSpec(3, 2, 1))
