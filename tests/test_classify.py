"""Tests for the classification decision procedures and reports."""

import itertools
import math

import pytest

import spherecp.classify
from spherecp.bundles import RankTooSmall, SphereBundleSpec
from spherecp.classify import (
    CAVEAT_DELTA0,
    CAVEAT_INCONCLUSIVE,
    CAVEAT_ODD_COLLAPSE,
    CAVEAT_REALIZABILITY,
    CAVEAT_TRIVIAL_CLASS,
    DimensionMismatch,
    RankMismatch,
    classify_report,
    delta1_equal,
    graded_stably_isomorphic,
    k_distinguishable,
    report_to_dict,
)
from spherecp.fgab import FgAbGroup
from spherecp.pimsner import k_groups


class TestDelta1Equal:
    def test_equal_specs(self):
        assert delta1_equal(SphereBundleSpec(4, 3, 1), SphereBundleSpec(4, 3, 1))

    def test_distinct_euler(self):
        assert not delta1_equal(SphereBundleSpec(4, 3, 1), SphereBundleSpec(4, 3, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            delta1_equal(SphereBundleSpec(2, 3, 1), SphereBundleSpec(4, 3, 1))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            delta1_equal(SphereBundleSpec(4, 3, 1), SphereBundleSpec(4, 4, 1))

    def test_invalid_spec_propagates(self):
        with pytest.raises(RankTooSmall):
            delta1_equal(SphereBundleSpec(4, 1, 0), SphereBundleSpec(4, 1, 0))

    def test_odd_spheres_always_agree(self):
        assert delta1_equal(SphereBundleSpec(5, 4, 0), SphereBundleSpec(5, 4, 0))


class TestGradedStablyIsomorphic:
    def test_same_class_isomorphic(self):
        assert graded_stably_isomorphic(SphereBundleSpec(4, 3, 1), SphereBundleSpec(4, 3, 1))

    def test_different_class_not_isomorphic(self):
        assert not graded_stably_isomorphic(
            SphereBundleSpec(4, 3, 1), SphereBundleSpec(4, 3, 0)
        )

    def test_rank_two_classes_still_separated(self):
        # K-groups cannot see this difference; the decision must
        assert not graded_stably_isomorphic(
            SphereBundleSpec(4, 2, 1), SphereBundleSpec(4, 2, 0)
        )

    def test_odd_sphere_always_isomorphic(self):
        assert graded_stably_isomorphic(SphereBundleSpec(5, 4, 0), SphereBundleSpec(5, 4, 0))

    def test_mismatches_refused(self):
        with pytest.raises(DimensionMismatch):
            graded_stably_isomorphic(SphereBundleSpec(2, 3, 0), SphereBundleSpec(4, 3, 0))
        with pytest.raises(RankMismatch):
            graded_stably_isomorphic(SphereBundleSpec(4, 3, 0), SphereBundleSpec(4, 5, 0))


class TestKDistinguishable:
    def test_distinguishable_pair(self):
        assert k_distinguishable(SphereBundleSpec(4, 3, 1), SphereBundleSpec(4, 3, 0))

    def test_rank_two_blind(self):
        assert not k_distinguishable(SphereBundleSpec(4, 2, 1), SphereBundleSpec(4, 2, 0))

    def test_self_never_distinguishable(self):
        assert not k_distinguishable(SphereBundleSpec(4, 3, 1), SphereBundleSpec(4, 3, 1))

    def test_cross_family_comparison_allowed(self):
        # K-group comparison has no same-rank precondition: it is a pure
        # invariant comparison, conclusive only when it separates
        assert k_distinguishable(SphereBundleSpec(4, 3, 1), SphereBundleSpec(4, 5, 0))

    def test_distinguishable_implies_not_isomorphic(self):
        specs = [SphereBundleSpec(4, d, c) for d in range(2, 7) for c in range(-5, 6)]
        for a, b in itertools.combinations(specs, 2):
            if a.rank != b.rank:
                continue
            if k_distinguishable(a, b):
                assert not graded_stably_isomorphic(a, b)


class TestTheoremCoherence:
    def test_three_conditions_agree_on_even_sphere_grid(self):
        for d in range(2, 6):
            for c1 in range(-4, 5):
                for c2 in range(-4, 5):
                    a = SphereBundleSpec(4, d, c1)
                    b = SphereBundleSpec(4, d, c2)
                    cond_delta = delta1_equal(a, b)
                    cond_iso = graded_stably_isomorphic(a, b)
                    cond_class = (a.rank, a.euler_param) == (b.rank, b.euler_param)
                    assert cond_delta == cond_iso == cond_class

    def test_delta1_equal_is_equivalence_on_sample(self):
        specs = [SphereBundleSpec(4, 4, c) for c in range(-3, 4)]
        for a in specs:
            assert delta1_equal(a, a)
        for a, b in itertools.product(specs, repeat=2):
            assert delta1_equal(a, b) == delta1_equal(b, a)
        for a, b, c in itertools.product(specs, repeat=3):
            if delta1_equal(a, b) and delta1_equal(b, c):
                assert delta1_equal(a, c)


class TestClassifyReport:
    def test_distinguishable_report(self):
        rep = classify_report(SphereBundleSpec(4, 3, 1))
        assert rep.k_distinguishable_from_trivial
        assert str(rep.k_groups.k0) == "Z/4"
        assert str(rep.trivial_comparison.k0) == "Z/2 + Z/2"
        assert rep.delta1.matrix.to_text() == "3,0;1,3"
        assert CAVEAT_DELTA0 in rep.caveats
        assert CAVEAT_REALIZABILITY in rep.caveats
        assert CAVEAT_INCONCLUSIVE not in rep.caveats

    def test_rank_two_report_flags_inconclusive(self):
        rep = classify_report(SphereBundleSpec(4, 2, 1))
        assert not rep.k_distinguishable_from_trivial
        assert CAVEAT_INCONCLUSIVE in rep.caveats

    def test_trivial_spec_report(self):
        rep = classify_report(SphereBundleSpec(4, 3, 0))
        assert not rep.k_distinguishable_from_trivial
        assert CAVEAT_TRIVIAL_CLASS in rep.caveats
        assert rep.k_groups.k0 == rep.trivial_comparison.k0

    def test_odd_sphere_report(self):
        rep = classify_report(SphereBundleSpec(5, 4, 0))
        assert CAVEAT_ODD_COLLAPSE in rep.caveats
        assert not rep.k_distinguishable_from_trivial
        assert rep.k_groups.k0 == rep.trivial_comparison.k0
        assert str(rep.k_groups.k0) == "Z/3"
        for spec in (SphereBundleSpec(1, 2, 0), SphereBundleSpec(3, 7, 0), SphereBundleSpec(9, 12, 0)):
            assert classify_report(spec).trivial_comparison.k0 == k_groups(spec).k0

    def test_distinguishable_flag_consistent_with_groups(self):
        # closed form: K0 = Z/g + Z/((d-1)^2/g) with g = gcd(d-1, c), so the
        # trivial bundle (c = 0) has g = d-1 and the flag is g != d-1
        for d in range(2, 8):
            for c in range(-6, 7):
                g = math.gcd(d - 1, c)
                rep = classify_report(SphereBundleSpec(4, d, c))
                assert rep.k_groups.k0 == FgAbGroup.from_factors([g, (d - 1) ** 2 // g])
                assert rep.trivial_comparison.k0 == FgAbGroup.from_factors([d - 1, d - 1])
                assert rep.k_distinguishable_from_trivial == (g != d - 1)

    def test_report_uses_closed_form_for_even_trivial_comparison(self, monkeypatch):
        calls = []
        closed_form = spherecp.classify.k_groups_trivial

        def counting(*args):
            calls.append(args)
            return closed_form(*args)

        monkeypatch.setattr(spherecp.classify, "k_groups_trivial", counting)
        rep = classify_report(SphereBundleSpec(6, 5, 2))
        assert calls == [(6, 5)]
        assert rep.trivial_comparison == closed_form(6, 5)
        classify_report(SphereBundleSpec(5, 4, 0))
        assert calls == [(6, 5)]

    def test_structured_fields(self):
        d = report_to_dict(classify_report(SphereBundleSpec(4, 3, 1)))
        assert set(d) == {
            "spec",
            "k_class",
            "K0",
            "K1",
            "delta1_matrix",
            "distinguishable_from_trivial",
            "caveats",
        }
        assert d["spec"] == {"sphere_dim": 4, "rank": 3, "euler": 1}
        assert d["k_class"] == "3 + λ"
        assert d["K0"] == "Z/4"
        assert d["K1"] == "0"
        assert d["delta1_matrix"] == "3,0;1,3"
        assert d["distinguishable_from_trivial"] is True
        assert isinstance(d["caveats"], list) and d["caveats"]

    def test_k_groups_consistency_with_engine(self):
        spec = SphereBundleSpec(4, 6, 4)
        rep = classify_report(spec)
        assert rep.k_groups.k0 == k_groups(spec).k0
