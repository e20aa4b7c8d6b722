import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree.core import (
    MAX_SIGNAL_LENGTH,
    CyclicSignal,
    IntegerSet,
    SetFormatError,
    SumFreeConvention,
    default_n_prime,
    embed_signal,
    format_rational,
    indicator_vector,
    interval_signal,
    load_set,
    parse_rational,
    rng_from_seed,
    save_set,
    validate_seed,
)
from sumfree.structure import load_alpha_grid, load_grid_set
from sumfree.weights import load_weight


class TestIntegerSet:
    def test_keeps_sorted_distinct_elements(self):
        A = IntegerSet((1, 3, 9))
        assert A.elements == (1, 3, 9)
        assert len(A) == 3 and 3 in A and 2 not in A

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            IntegerSet((3, 1))

    def test_rejects_duplicates_and_zero(self):
        with pytest.raises(ValueError):
            IntegerSet((1, 1))
        with pytest.raises(ValueError):
            IntegerSet((0, 1))

    def test_negatives_allowed_but_flagged(self):
        A = IntegerSet((-4, 2))
        assert not A.is_positive
        with pytest.raises(ValueError):
            A.require_positive("op")

    def test_from_iterable_sorts(self):
        assert IntegerSet.from_iterable([9, 1, 3]).elements == (1, 3, 9)
        with pytest.raises(ValueError, match="^duplicate element 3$"):
            IntegerSet.from_iterable([3, 1, 3])

    def test_empty_allowed(self):
        assert len(IntegerSet(())) == 0


class TestSetFiles:
    def test_json_round_trip(self, tmp_path):
        A = IntegerSet((2, 3, 5), name="probe")
        path = tmp_path / "s.json"
        save_set(A, path)
        B = load_set(path)
        assert B.elements == A.elements and B.name == "probe"
        save_set(B, path)
        C = load_set(path)
        assert C.elements == A.elements

    def test_json_byte_stable(self, tmp_path):
        path = tmp_path / "s.json"
        save_set(IntegerSet((1, 4)), path)
        first = path.read_bytes()
        save_set(load_set(path), path)
        assert path.read_bytes() == first

    def test_text_format_with_comments(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# heading\n2\n5 # trailing\n\n11\n")
        assert load_set(path).elements == (2, 5, 11)

    def test_text_duplicate_reports_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("2\n2\n")
        with pytest.raises(SetFormatError, match="line 2"):
            load_set(path)

    def test_json_schema_errors(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"elements": "nope"}))
        with pytest.raises(SetFormatError):
            load_set(path)

    @pytest.mark.parametrize(
        "text", ['{"elements": [1,', '{"elements": [' + "9" * 5000 + "]}"], ids=["truncated", "digits"]
    )
    def test_json_syntax_errors_name_the_file(self, tmp_path, text):
        path = tmp_path / "s.json"
        path.write_text(text)
        with pytest.raises(SetFormatError) as info:
            load_set(path)
        assert str(info.value).startswith(f"{path}: invalid JSON: ")


class TestConvention:
    def test_parse(self):
        assert SumFreeConvention.parse("allow-equal") is SumFreeConvention.ALLOW_EQUAL
        assert SumFreeConvention.parse("distinct") is SumFreeConvention.DISTINCT_ONLY
        with pytest.raises(ValueError):
            SumFreeConvention.parse("sometimes")


class TestSignals:
    def test_default_n_prime_values(self):
        assert default_n_prime(3) == 16
        assert default_n_prime(10) == 64
        assert default_n_prime(100) == 512

    def test_n_prime_exceeds_four_n(self):
        for n in range(1, 200):
            assert default_n_prime(n) > 4 * n

    def test_embed_places_elements(self):
        A = IntegerSet((1, 4))
        sig = embed_signal(A, 5)
        assert sig.n_prime == default_n_prime(5)
        assert sig.values[1] == 1 and sig.values[4] == 1
        assert np.sum(np.abs(sig.values)) == 2

    def test_embed_distinct_sets_differ(self):
        a = embed_signal(IntegerSet((1, 2)), 5)
        b = embed_signal(IntegerSet((1, 3)), 5)
        assert not np.array_equal(a.values, b.values)

    def test_embed_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            embed_signal(IntegerSet((1, 9)), 5)

    def test_interval_signal_offset(self):
        sig = interval_signal([2.0, 3.0])
        assert sig.values[1] == 2.0 and sig.values[2] == 3.0
        assert sig.values[0] == 0

    def test_signal_requires_room(self):
        with pytest.raises(ValueError):
            CyclicSignal(np.zeros(8, dtype=np.complex128), ref_n=2)

    def test_indicator_vector(self):
        v = indicator_vector(IntegerSet((2, 4)), 5)
        assert v.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]
        assert indicator_vector(IntegerSet(()), 3).tolist() == [0.0, 0.0, 0.0]
        for A, N, message in (
            (IntegerSet(()), 0, "N must be >= 1"),
            (IntegerSet((1, 6)), 5, "set not contained"),
            (IntegerSet((-1,)), 5, "set not contained"),
            (IntegerSet(()), MAX_SIGNAL_LENGTH + 1, "exceeds the limit"),
        ):
            with pytest.raises(ValueError, match=message):
                indicator_vector(A, N)

    def test_interval_signal_checks_group_order_first(self):
        # too small a group order was numpy's broadcast error
        with pytest.raises(ValueError, match="^group order 3 too small for N = 10; need > 40$"):
            interval_signal(np.ones(10), n_prime=3)
        with pytest.raises(ValueError, match="exceeds the limit"):
            interval_signal(np.ones(10), n_prime=MAX_SIGNAL_LENGTH + 1)


class TestRationals:
    def test_parse_and_format(self):
        assert parse_rational("2/5") == parse_rational("0.4")
        assert format_rational(parse_rational("2/5")) == "2/5"
        assert format_rational(parse_rational("3")) == "3"
        with pytest.raises(ValueError):
            parse_rational("x")

    def test_decimal_exponent_bounded(self):
        assert parse_rational("1e-5000") == Fraction(1, 10**5000)
        assert parse_rational("25E-1") == Fraction(5, 2)
        for text in ("1e-1000001", "1e+1000001", "2.5e" + "9" * 5000):
            with pytest.raises(ValueError, match="decimal exponent"):
                parse_rational(text)


class TestSeeds:
    def test_validate_bounds(self):
        validate_seed(0)
        validate_seed(2**64 - 1)
        for bad in (-1, 2**64, 1.5, True):
            with pytest.raises(ValueError):
                validate_seed(bad)

    def test_streams_reproducible_and_distinct(self):
        a = rng_from_seed(7, "x").random(4)
        b = rng_from_seed(7, "x").random(4)
        c = rng_from_seed(7, "y").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)



_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from(["0", "1/2", "1/0", "x", "2"]),
)
_DIMS = st.one_of(st.integers(-2, 3), st.booleans(), st.sampled_from(["2", ""]), st.none())
_ENTRIES = st.one_of(
    _SCALARS, st.lists(_SCALARS, max_size=2), st.dictionaries(st.sampled_from("ab"), _SCALARS, max_size=2)
)
_LOADERS = {load_alpha_grid: ("q", "M"), load_grid_set: ("q", "K"), load_weight: ("Q", "K")}


@st.composite
def _grid_files(draw, rows_key, cols_key):
    """Small grid-shaped objects; the value count usually matches rows * cols."""
    rows, cols = draw(_DIMS), draw(_DIMS)
    fits = isinstance(rows, int) and isinstance(cols, int) and 0 <= rows * cols <= 6
    count = rows * cols if fits and draw(st.booleans()) else draw(st.integers(0, 6))
    obj = {
        rows_key: rows,
        cols_key: cols,
        "values": draw(st.one_of(st.lists(_ENTRIES, min_size=count, max_size=count), _SCALARS)),
        "generation": draw(_DIMS),
        "alpha_bound": draw(_SCALARS),
    }
    for key in draw(st.sets(st.sampled_from(sorted(obj)), max_size=1)):
        del obj[key]
    return obj


class TestGridReader:
    @pytest.mark.parametrize("loader", list(_LOADERS), ids=lambda f: f.__name__)
    def test_loaders_return_or_name_the_file(self, loader, tmp_path_factory):
        """Any small JSON object either loads or gives a ValueError that starts with the path."""
        path = tmp_path_factory.mktemp("grid") / "g.json"

        @settings(derandomize=True, deadline=None)
        @given(_grid_files(*_LOADERS[loader]))
        def check(obj):
            path.write_text(json.dumps(obj))
            try:
                loader(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: "), str(exc)

        check()
