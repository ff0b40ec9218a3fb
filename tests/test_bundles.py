"""Tests for bundle specs: validation at construction, K-classes, and the JSON file format."""

import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import time_limit

from spherecp.bundles import (
    SPEC_TEXT_BUDGET,
    NonpositiveDimension,
    OddSphereNonzeroClass,
    RankTooSmall,
    SpecFormatError,
    SphereBundleSpec,
    load_spec,
    parse_spec,
    spec_to_dict,
    validate,
)
from spherecp.fgab import LITERAL_DIGITS_BUDGET
from spherecp.ktheory import TruncPoly, k_class

SPEC = b'{"sphere_dim": 4, "rank": 3}'  # a valid spec file, before any padding


class TestValidate:
    def test_accepts_good_specs(self):
        for spec in (
            SphereBundleSpec(4, 3, 1),
            SphereBundleSpec(2, 2, -7),
            SphereBundleSpec(5, 4, 0),
            SphereBundleSpec(1, 2, 0),
        ):
            assert validate(spec) is spec

    # construction validates, so each bad spec is refused as it is built

    def test_rank_too_small(self):
        with pytest.raises(RankTooSmall):
            SphereBundleSpec(4, 1, 0)
        with pytest.raises(RankTooSmall):
            SphereBundleSpec(4, 0, 0)

    def test_odd_sphere_nonzero_class(self):
        with pytest.raises(OddSphereNonzeroClass):
            SphereBundleSpec(3, 2, 1)
        with pytest.raises(OddSphereNonzeroClass):
            SphereBundleSpec(7, 5, -2)

    def test_nonpositive_dimension(self):
        with pytest.raises(NonpositiveDimension):
            SphereBundleSpec(0, 3, 0)
        with pytest.raises(NonpositiveDimension):
            SphereBundleSpec(-4, 3, 0)

    def test_dimension_checked_before_parity(self):
        # a nonsensical sphere must report the dimension problem, not parity
        with pytest.raises(NonpositiveDimension):
            SphereBundleSpec(-3, 3, 5)

    def test_float_or_bool_field_rejected(self):
        for fields in ((4.0, 3, 0), (4, 3.0, 0), (4, 3, 1.5), (True, 3, 0), (4, True, 0), (4, 3, False)):
            with pytest.raises(SpecFormatError):
                SphereBundleSpec(*fields)

    def test_fields_sharing_a_non_int_class_rejected(self):
        # validate's fast path compares the fields' classes with each other and with int
        for fields in ((4.0, 3.0, 0), (4, 3.0, 0.0), (4.0, 3, 0.0), (4.0, 3.0, 0.0), (True, True, 0)):
            with pytest.raises(SpecFormatError):
                SphereBundleSpec(*fields)

    @pytest.mark.parametrize("value", [1.5, True, "3"], ids=repr)
    @pytest.mark.parametrize("field", ["sphere_dim", "rank", "euler"])
    def test_non_int_field_named_with_its_type(self, field, value):
        fields = {"sphere_dim": 4, "rank": 3, "euler": 1, field: value}
        with pytest.raises(SpecFormatError, match=rf"^{field}.* must be int, got {type(value).__name__}$"):
            SphereBundleSpec(*fields.values())


class TestKClass:
    def test_even_sphere_class(self):
        assert k_class(SphereBundleSpec(4, 3, 1)) == TruncPoly(3, 1)
        assert k_class(SphereBundleSpec(6, 2, -5)) == TruncPoly(2, -5)

    def test_odd_sphere_class_is_rank(self):
        assert k_class(SphereBundleSpec(5, 4, 0)) == TruncPoly(4, 0)

    def test_invalid_spec_propagates(self):
        with pytest.raises(RankTooSmall):
            k_class(SphereBundleSpec(4, 1, 1))

    @given(st.integers(1, 6), st.integers(2, 30), st.integers(-30, 30))
    @settings(max_examples=100, deadline=None)
    def test_class_determined_by_rank_and_euler(self, n, d, c):
        if n % 2 == 1:
            c = 0
        spec = SphereBundleSpec(n, d, c)
        kc = k_class(spec)
        assert (kc.z, kc.z1) == (d, c)

    def test_distinct_euler_params_give_distinct_classes(self):
        # this injectivity is what classification leans on over even spheres
        classes = {k_class(SphereBundleSpec(4, 3, c)) for c in range(-10, 11)}
        assert len(classes) == 21


class TestSpecFiles:
    def test_parse_full(self):
        assert parse_spec('{"sphere_dim": 4, "rank": 3, "euler": 1}') == SphereBundleSpec(4, 3, 1)

    def test_euler_defaults_to_zero(self):
        assert parse_spec('{"sphere_dim": 4, "rank": 3}') == SphereBundleSpec(4, 3, 0)

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecFormatError, match="chern"):
            parse_spec('{"sphere_dim": 4, "rank": 3, "chern": 1}')

    def test_repeated_field_rejected(self):
        # json keeps the last value, which would read this spec as S^2
        with pytest.raises(SpecFormatError, match="repeated bundle spec fields: sphere_dim$"):
            parse_spec('{"sphere_dim": 4, "rank": 3, "euler": 1, "sphere_dim": 2}')
        with pytest.raises(SpecFormatError, match="repeated bundle spec fields: rank, euler$"):
            parse_spec('{"rank": 3, "euler": 1, "sphere_dim": 4, "euler": 1, "rank": 3}')

    def test_missing_field_rejected(self):
        with pytest.raises(SpecFormatError, match="rank"):
            parse_spec('{"sphere_dim": 4}')

    def test_non_integer_field_rejected(self):
        with pytest.raises(SpecFormatError):
            parse_spec('{"sphere_dim": 4, "rank": "three"}')
        with pytest.raises(SpecFormatError):
            parse_spec('{"sphere_dim": 4, "rank": 3, "euler": 1.5}')
        with pytest.raises(SpecFormatError):
            parse_spec('{"sphere_dim": 4, "rank": true}')

    def test_literal_budget(self):
        # a JSON integer past the budget is a spec error, not int()'s bare ValueError
        over = "1" * (LITERAL_DIGITS_BUDGET + 1)
        for text in ('{"sphere_dim": 4, "rank": %s}' % over,
                     '{"sphere_dim": 4, "rank": 3, "euler": -%s}' % over):
            with pytest.raises(SpecFormatError, match="LITERAL_DIGITS_BUDGET"):
                parse_spec(text)
        within = "1" * LITERAL_DIGITS_BUDGET
        spec = parse_spec('{"sphere_dim": 4, "rank": %s, "euler": -%s}' % (within, within))
        assert spec == SphereBundleSpec(4, int(within), -int(within))

    def test_non_object_rejected(self):
        with pytest.raises(SpecFormatError):
            parse_spec("[4, 3, 1]")

    def test_nesting_refused_before_json_reads_it(self):
        with pytest.raises(SpecFormatError, match="nests deeper"):
            parse_spec('{"sphere_dim": 4, "rank": [3]}')
        # brackets inside strings are not nesting: the unknown field is named
        with pytest.raises(SpecFormatError, match=r"unknown bundle spec fields: a\[\{"):
            parse_spec('{"sphere_dim": 4, "rank": 3, "a[{": "]\\"["}')

    def test_text_past_the_budget_is_refused_before_the_nesting_check(self):
        assert SPEC_TEXT_BUDGET == 262_144
        text = '{"sphere_dim": 4, "rank": 3}'.ljust(SPEC_TEXT_BUDGET)
        assert parse_spec(text) == SphereBundleSpec(4, 3)
        message = r"^bundle spec text exceeds SPEC_TEXT_BUDGET \(262144 characters\)$"
        for longer in (text + " ", "[" * (SPEC_TEXT_BUDGET + 1)):
            with pytest.raises(SpecFormatError, match=message):
                parse_spec(longer)

    def test_bad_json_rejected(self):
        with pytest.raises(SpecFormatError):
            parse_spec("{sphere_dim: 4")

    def test_parse_does_not_validate_domain(self):
        # parsing builds the spec, and building validates: rank 1 is refused here
        with pytest.raises(RankTooSmall):
            parse_spec('{"sphere_dim": 4, "rank": 1}')

    def test_load_spec_round_trip(self, tmp_path):
        p = tmp_path / "bundle.json"
        p.write_text('{"sphere_dim": 6, "rank": 5, "euler": -2}')
        assert load_spec(p) == SphereBundleSpec(6, 5, -2)

    @pytest.mark.parametrize("data, position", [
        (b'{"sphere_dim": 4, "rank": 3}\xc3', 28),
        # past the reader's first chunk: 140 000 two-byte characters, then a byte that starts none
        ('{"sphere_dim": 4, "rank": 3, "x": "'.encode() + "é".encode() * 140_000 + b"\xff", 280_035),
    ], ids=["end-of-data", "past-the-first-chunk"])
    def test_decode_error_counts_its_position_from_the_start_of_the_file(self, tmp_path, data, position):
        # the reader named the position in the chunk it decoded last: "position 0" for the first
        p = tmp_path / "bundle.json"
        p.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as read_text:
            p.read_text()
        assert f" in position {position}: " in str(read_text.value)
        with pytest.raises(SpecFormatError) as exc:
            load_spec(p)
        assert str(exc.value) == f"cannot read bundle spec file: {read_text.value}"

    @pytest.mark.parametrize("data, refused", [
        (SPEC.ljust(SPEC_TEXT_BUDGET), False),
        (SPEC.ljust(SPEC_TEXT_BUDGET + 1), True),
        # one character past the budget is read, so the undecodable byte after it is not
        (SPEC.ljust(SPEC_TEXT_BUDGET + 1) + b"\xff", True),
        # "\r\n" reads as one character, so the first read's budget + 1 bytes give the
        # budget's characters, and the bytes after them decide
        ((SPEC + b"\r\n").ljust(SPEC_TEXT_BUDGET + 1), False),
        ((SPEC + b"\r\n").ljust(SPEC_TEXT_BUDGET + 2), True),
    ], ids=["at", "past", "past-then-undecodable", "at-after-a-short-read", "past-after-a-short-read"])
    def test_file_at_the_budget_is_read_and_past_it_is_refused(self, tmp_path, data, refused):
        p = tmp_path / "bundle.json"
        p.write_bytes(data)
        if refused:
            with pytest.raises(SpecFormatError, match="exceeds SPEC_TEXT_BUDGET"):
                load_spec(p)
        else:
            assert load_spec(p) == SphereBundleSpec(4, 3)

    def test_fifo_with_no_writer_is_refused_at_once(self, tmp_path):
        fifo = tmp_path / "spec"
        os.mkfifo(fifo)
        with time_limit(5), pytest.raises(SpecFormatError, match="^bundle spec file is a FIFO with no writer$"):
            load_spec(fifo)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_with_a_late_writer_is_read(self):
        # the file opens without waiting, and its reads then wait for the writer
        read, write = os.pipe()

        def writer():
            time.sleep(0.2)
            os.write(write, b'{"sphere_dim": 4, "rank": 3}')
            os.close(write)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            with time_limit(5):
                assert load_spec(f"/dev/fd/{read}") == SphereBundleSpec(4, 3)
        finally:
            thread.join(5)
            os.close(read)

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(SpecFormatError):
            load_spec(tmp_path / "nope.json")

    def test_spec_to_dict_matches_file_format(self):
        d = spec_to_dict(SphereBundleSpec(4, 3, 1))
        assert d == {"sphere_dim": 4, "rank": 3, "euler": 1}
        assert parse_spec(__import__("json").dumps(d)) == SphereBundleSpec(4, 3, 1)
