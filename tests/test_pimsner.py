"""Tests for the K-group engine.

The headline numbers here were frozen from the gcd/determinant oracle in
oracles.py: the presentation matrix for (S^4, rank 3, euler 1) is
[[-2, 0], [-1, -2]], whose invariant factors the oracle pins to (1, 4),
so K0 = Z/4; for (S^4, 5, 2) the oracle gives (2, 8), so K0 = Z/2 + Z/8.
"""

from math import gcd

import pytest

from oracles import snf_2x2_oracle
from spherecp.bundles import (
    NonpositiveDimension,
    OddSphereNonzeroClass,
    RankTooSmall,
    SphereBundleSpec,
)
from spherecp.fgab import FgAbGroup, IntMatrix, group_order
from spherecp.pimsner import (
    EvenSphereRequired,
    k_groups,
    k_groups_trivial,
    pimsner_matrix,
)


class TestPresentationMatrix:
    def test_even_sphere_matrix(self):
        assert pimsner_matrix(SphereBundleSpec(4, 3, 1)) == IntMatrix.from_rows(
            [[-2, 0], [-1, -2]]
        )

    def test_odd_sphere_matrix(self):
        assert pimsner_matrix(SphereBundleSpec(5, 4, 0)) == IntMatrix.from_rows([[-3]])

    def test_matrix_entries_general(self):
        for d in range(2, 9):
            for c in range(-6, 7):
                m = pimsner_matrix(SphereBundleSpec(4, d, c))
                assert m == IntMatrix.from_rows([[1 - d, 0], [-c, 1 - d]])

    def test_invalid_spec_rejected(self):
        with pytest.raises(RankTooSmall):
            pimsner_matrix(SphereBundleSpec(4, 1, 0))
        with pytest.raises(OddSphereNonzeroClass):
            pimsner_matrix(SphereBundleSpec(3, 3, 2))


class TestKGroups:
    def test_hopf_like_example(self):
        # oracle freeze: snf of [[-2,0],[-1,-2]] is (1, 4)
        assert snf_2x2_oracle(-2, 0, -1, -2) == (1, 4)
        pair = k_groups(SphereBundleSpec(4, 3, 1))
        assert pair.k0 == FgAbGroup(torsion=(4,))
        assert pair.k1.is_trivial

    def test_noncoprime_example(self):
        # oracle freeze: snf of [[-4,0],[-2,-4]] is (2, 8)
        assert snf_2x2_oracle(-4, 0, -2, -4) == (2, 8)
        pair = k_groups(SphereBundleSpec(4, 5, 2))
        assert pair.k0 == FgAbGroup(torsion=(2, 8))
        assert pair.k1.is_trivial

    def test_trivial_bundle_square_group(self):
        pair = k_groups(SphereBundleSpec(6, 4, 0))
        assert pair.k0 == FgAbGroup(torsion=(3, 3))
        assert pair.k1.is_trivial

    def test_odd_sphere(self):
        pair = k_groups(SphereBundleSpec(5, 4, 0))
        assert pair.k0 == FgAbGroup(torsion=(3,))
        assert pair.k1.is_trivial

    def test_k0_order_is_rank_minus_one_squared(self):
        for n in (2, 4, 6):
            for d in range(2, 10):
                for c in range(-5, 6):
                    pair = k_groups(SphereBundleSpec(n, d, c))
                    assert group_order(pair.k0) == (d - 1) ** 2

    def test_k1_always_trivial_for_admissible_ranks(self):
        for n in (2, 3, 4, 5):
            for d in range(2, 8):
                for c in ([0] if n % 2 else range(-4, 5)):
                    assert k_groups(SphereBundleSpec(n, d, c)).k1.is_trivial

    def test_closed_form_invariant_factors(self):
        # K0 must be Z/g + Z/((d-1)^2 / g) with g = gcd(d-1, c)
        for d in range(2, 11):
            for c in range(-8, 9):
                g = gcd(d - 1, c)
                expected = FgAbGroup.from_factors([g, (d - 1) ** 2 // g]) if g else FgAbGroup()
                assert k_groups(SphereBundleSpec(4, d, c)).k0 == expected

    def test_coprime_case_is_cyclic(self):
        for d in range(2, 12):
            for c in range(-10, 11):
                if gcd(d - 1, c) != 1:
                    continue
                assert k_groups(SphereBundleSpec(2, d, c)).k0 == FgAbGroup.from_factors(
                    [(d - 1) ** 2]
                )

    def test_k0_independent_of_even_dimension(self):
        for d, c in [(3, 1), (5, 2), (7, 0), (4, -3)]:
            groups = {k_groups(SphereBundleSpec(n, d, c)).k0 for n in (2, 4, 6, 8)}
            assert len(groups) == 1

    def test_rank_two_blind_spot(self):
        # at rank 2 the K0 group is trivial no matter the euler parameter
        for c in range(-12, 13):
            assert k_groups(SphereBundleSpec(4, 2, c)).k0.is_trivial


class TestTrivialBundleFormula:
    def test_square_of_cyclic(self):
        pair = k_groups_trivial(4, 3)
        assert pair.k0 == FgAbGroup(torsion=(2, 2))
        assert pair.k1.is_trivial

    def test_rank_two_gives_trivial_group(self):
        assert k_groups_trivial(4, 2).k0.is_trivial

    def test_agrees_with_presentation_route(self):
        for n in (2, 4, 6):
            for d in range(2, 12):
                via_matrix = k_groups(SphereBundleSpec(n, d, 0))
                closed = k_groups_trivial(n, d)
                assert via_matrix.k0 == closed.k0
                assert via_matrix.k1 == closed.k1

    def test_parity_enforced(self):
        with pytest.raises(EvenSphereRequired):
            k_groups_trivial(5, 3)

    def test_rank_enforced(self):
        with pytest.raises(RankTooSmall):
            k_groups_trivial(4, 1)

    def test_dimension_enforced(self):
        with pytest.raises(NonpositiveDimension):
            k_groups_trivial(0, 3)
