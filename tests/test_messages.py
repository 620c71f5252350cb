"""Unit tests for the message algebra."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import reference_max_indicator, reference_normalize, reference_one_hot
from normalgraph.messages import (
    _SUM_SLACK,
    COLUMN_ROWS,
    TIE_RTOL,
    AllZeroVector,
    _normalize_in_place,
    _row_sums,
    hadamard_posterior,
    is_normalized,
    max_indicator,
    normalize,
    one_hot,
    sharpen,
    uniform,
)

positive_vector = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6
).map(lambda xs: np.array(xs))


class TestNormalize:
    def test_unit_sum_rows(self):
        rng = np.random.default_rng(42)
        values = rng.uniform(size=(50, 4))
        out = normalize(values)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_exact_idempotence(self):
        """normalize(normalize(v)) is bitwise equal to normalize(v)."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            v = rng.uniform(0.0, 10.0, size=rng.integers(2, 7))
            once = normalize(v)
            twice = normalize(once)
            assert np.array_equal(once, twice)

    @given(positive_vector)
    @settings(max_examples=50, deadline=None)
    def test_idempotence_property(self, v):
        once = normalize(v)
        assert np.array_equal(once, normalize(once))

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroVector):
            normalize(np.zeros(3))

    def test_one_zero_row_raises(self):
        values = np.array([[0.2, 0.8], [0.0, 0.0]])
        with pytest.raises(AllZeroVector):
            normalize(values)

    def test_negative_entries_raise(self):
        with pytest.raises(ValueError):
            normalize(np.array([0.5, -0.1, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_raise(self, bad):
        with pytest.raises(ValueError, match="messages must be nonnegative and finite"):
            normalize(np.array([[0.5, 0.5], [bad, 0.6]]))

    @pytest.mark.parametrize("n_rows", [4, COLUMN_ROWS + 4])
    def test_row_whose_sum_overflows_is_scaled_by_its_maximum_first(self, n_rows):
        """Only rows whose sum overflows are divided by their maximum; the
        others, huge entries with a finite sum included, keep their bits."""
        finite = np.array([[0.2, 0.8], [1e308, 5e307], [3.0, 5.0], [1e-310, 0.0]])
        values = np.tile(finite, (n_rows // 4, 1))
        values[1::4] = [1e308, 1e308]
        values[3::4] = [np.finfo(float).max, 1e300]
        out = normalize(values)
        np.testing.assert_array_equal(out[1::4], 0.5)
        scaled = values[3::4] / np.finfo(float).max
        assert out[3::4].tobytes() == reference_normalize(scaled, _SUM_SLACK).tobytes()
        kept = np.ones(n_rows, dtype=bool)
        kept[1::4] = kept[3::4] = False
        assert out[kept].tobytes() == reference_normalize(values[kept], _SUM_SLACK).tobytes()


class TestHadamardPosterior:
    def test_hand_example(self):
        post = hadamard_posterior(np.array([0.5, 0.5]), np.array([0.9, 0.1]))
        np.testing.assert_allclose(post, [0.9, 0.1], atol=1e-15)

    def test_scale_invariance(self):
        """Scaling either input by a positive constant leaves it unchanged."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            f = rng.uniform(0.01, 1.0, size=4)
            b = rng.uniform(0.01, 1.0, size=4)
            alpha, beta = rng.uniform(0.01, 50.0, size=2)
            base = hadamard_posterior(f, b)
            scaled = hadamard_posterior(alpha * f, beta * b)
            np.testing.assert_allclose(scaled, base, atol=1e-12)

    @given(positive_vector, st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance_property(self, f, alpha, beta):
        base = hadamard_posterior(f, f[::-1].copy())
        scaled = hadamard_posterior(alpha * f, beta * f[::-1].copy())
        np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_disjoint_support_raises(self):
        with pytest.raises(AllZeroVector):
            hadamard_posterior(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_alphabet_mismatch_raises(self):
        with pytest.raises(ValueError):
            hadamard_posterior(np.ones(2), np.ones(3))


class TestSharpen:
    def test_exponent_one_is_identity(self):
        """On already-normalized inputs exponent 1 changes nothing."""
        rng = np.random.default_rng(42)
        v = normalize(rng.uniform(size=(20, 5)))
        np.testing.assert_allclose(sharpen(v, 1.0), v, atol=1e-15)

    def test_exponent_zero_flattens(self):
        v = np.array([0.7, 0.2, 0.1])
        np.testing.assert_allclose(sharpen(v, 0.0), uniform(3), atol=1e-15)

    def test_matches_direct_power(self):
        rng = np.random.default_rng(42)
        v = rng.uniform(0.1, 1.0, size=(10, 4))
        direct = normalize(v**3.0)
        np.testing.assert_allclose(sharpen(v, 3.0), direct, atol=1e-12)

    def test_large_exponent_concentrates(self):
        rng = np.random.default_rng(42)
        v = normalize(rng.uniform(0.01, 1.0, size=(100, 4)))
        sharp = sharpen(v, 1000.0)
        assert np.all(np.isfinite(sharp))
        np.testing.assert_allclose(sharp.sum(axis=-1), 1.0, atol=1e-12)
        # The peak keeps its place and its share of the mass only grows.
        assert np.array_equal(np.argmax(sharp, axis=-1), np.argmax(v, axis=-1))
        assert np.all(sharp.max(axis=-1) >= v.max(axis=-1))

    def test_large_exponent_separated_peak_is_delta(self):
        """With the runner-up below 0.97 of the peak, exponent 1000 leaves
        less than 1e-9 outside the argmax."""
        v = np.array([[0.4, 0.38, 0.22], [0.5, 0.3, 0.2]])
        sharp = sharpen(v, 1000.0)
        assert np.all(sharp.max(axis=-1) > 1.0 - 1e-9)

    def test_extreme_exponent_stays_finite(self):
        """Huge exponents must not underflow whole rows to zero."""
        v = np.array([[0.5001, 0.4999], [0.9, 0.1]])
        sharp = sharpen(v, 1e5)
        assert np.all(np.isfinite(sharp))
        assert np.argmax(sharp[0]) == 0

    def test_negative_exponent_raises(self):
        with pytest.raises(ValueError):
            sharpen(np.array([0.5, 0.5]), -1.0)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf")])
    def test_non_finite_exponent_raises(self, exponent):
        with pytest.raises(ValueError, match="exponent must be nonnegative and finite"):
            sharpen(np.array([[0.2, 0.8]]), exponent)

    @pytest.mark.parametrize("row, problem", [
        ([0.0, 0.0], "zero total mass"),
        ([0.5, -0.1], "messages must be nonnegative"),
    ], ids=["all-zero row", "negative entry"])
    def test_bad_rows_raise_like_normalize(self, row, problem):
        with pytest.raises(ValueError, match=problem):
            sharpen(np.array([[0.2, 0.8], row]), 3.0)


class TestMaxIndicator:
    def test_structure(self):
        """Plus delta, exactly one entry equals 1+delta, all others delta."""
        rng = np.random.default_rng(42)
        values = rng.uniform(size=(30, 5))
        delta = 1e-6
        out = max_indicator(values) + delta
        assert np.all(np.sum(out == 1.0 + delta, axis=-1) == 1)
        assert np.all((out == delta) | (out == 1.0 + delta))

    def test_tie_breaks_to_lowest_index(self):
        out = max_indicator(np.array([0.4, 0.4, 0.2]))
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])

    def test_rounding_level_ties_break_to_lowest_index(self):
        """A maximum ahead by one ulp is a tie; one ahead by more than
        1e-12 relative still wins."""
        near = np.array([[0.25, np.nextafter(0.25, 1.0)], [0.25, 0.25 * (1 + 1e-11)]])
        np.testing.assert_array_equal(max_indicator(near), [[1.0, 0.0], [0.0, 1.0]])

    def test_zero_delta_is_one_hot(self):
        out = max_indicator(np.array([[0.1, 0.7, 0.2]]))
        np.testing.assert_array_equal(out, [[0.0, 1.0, 0.0]])


@st.composite
def planted_rows(draw):
    """One message (1-D) or a batch of 1-6 (2-D), 1-16 symbols wide.  Each
    row is left as drawn or gets one planted feature: an exact tie with its
    peak, an entry exactly at the tie floor ``peak - TIE_RTOL * peak`` (a
    tie) or one ulp below it (not a tie), or a rescaling to within 2e-13 of
    unit sum, on either side of the 1e-13 slack."""
    width = draw(st.integers(1, 16))
    n_rows = draw(st.integers(0, 6))
    values = np.array(draw(st.lists(st.floats(0.0, 1e3, allow_subnormal=False),
                                    min_size=width * max(n_rows, 1),
                                    max_size=width * max(n_rows, 1))))
    for row in values.reshape(-1, width):
        feature = draw(st.sampled_from(["none", "tie", "at floor", "below floor", "unit sum"]))
        peak = int(np.argmax(row))
        others = [k for k in range(width) if k != peak]
        if feature == "unit sum" and row.sum() > 0:
            row *= (1.0 + draw(st.floats(-2e-13, 2e-13))) / row.sum()
        elif feature != "unit sum" and feature != "none" and others:
            floor = row[peak] - TIE_RTOL * abs(row[peak])
            row[draw(st.sampled_from(others))] = {
                "tie": row[peak], "at floor": floor, "below floor": np.nextafter(floor, -1.0),
            }[feature]
    return values if n_rows else values.reshape(width)


class TestKernelsMatchReferenceFormulas:
    """The column-wise ``max_indicator`` and the ``where=``-free
    normalization reproduce the formulas they replaced bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(values=planted_rows(), delta=st.one_of(st.just(0.0), st.floats(1e-12, 1.0)))
    def test_max_indicator(self, values, delta):
        out = max_indicator(values) + delta
        expected = reference_max_indicator(values, delta, TIE_RTOL)
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(values=planted_rows())
    def test_max_indicator_on_many_rows(self, values):
        """From ``COLUMN_ROWS`` rows on the row peak is taken column by
        column; the indicator keeps its bits."""
        many = np.tile(np.atleast_2d(values), (COLUMN_ROWS, 1))
        expected = reference_max_indicator(many, 0.0, TIE_RTOL)
        assert max_indicator(many).tobytes() == expected.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(values=planted_rows())
    def test_normalize_in_place(self, values):
        assume(np.all(values.sum(axis=-1) > 0))
        out = _normalize_in_place(values.copy())
        expected = reference_normalize(values, _SUM_SLACK)
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    def test_normalize_in_place_on_slack_nan_and_inf_rows(self):
        """The slack assignment is skipped when no row is within the slack,
        so the batches below mix rows within and beyond it, or hold one kind
        alone.  A NaN row counts as within the slack, an inf row as beyond."""
        row = np.array([0.25, 0.75])
        inside, outside = row * (1 + 0.5e-13), row * (1 + 1.5e-13)
        nan, inf = np.array([np.nan, 0.5]), np.array([np.inf, 1.0])
        batches = [np.array(rows) for rows in (
            [inside, outside], [outside, inside, outside], [inside, inside], [outside, outside],
            [nan, outside], [nan, inside], [inf, inside], [inf, nan], [nan], [inf])]
        with np.errstate(invalid="ignore"):  # inf / inf is NaN in both
            for values in batches:
                out = _normalize_in_place(values.copy())
                expected = reference_normalize(values, _SUM_SLACK)
                assert out.tobytes() == expected.tobytes(), values

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_row_sums_are_numpys_reduction(self, data):
        """``_row_sums`` adds rows narrower than 8 by column from
        ``COLUMN_ROWS`` rows on, and equals numpy's own row reduction bit
        for bit on every shape: widths 1-12, row counts on both sides of
        ``COLUMN_ROWS``, one or two leading axes, C or Fortran order, and
        entries that are 0, subnormal or as large as 1e300 (whose sums may
        overflow to inf, in both)."""
        width = data.draw(st.integers(1, 12), label="width")
        n_rows = data.draw(st.sampled_from([0, 1, 7, COLUMN_ROWS - 1, COLUMN_ROWS,
                                            COLUMN_ROWS + 1, 3 * COLUMN_ROWS]), label="rows")
        shape = data.draw(st.sampled_from([(n_rows, width), (2, n_rows // 2, width)]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = rng.uniform(size=shape) * 10.0 ** rng.integers(-320, 301, size=shape)
        for special in (0.0, 5e-324, 2e-310, 1e300):
            values[rng.uniform(size=shape) < data.draw(st.sampled_from([0.0, 0.1, 0.5]))] = special
        if data.draw(st.booleans(), label="fortran"):
            values = np.asfortranarray(values)
        with np.errstate(over="ignore"):
            out, expected = _row_sums(values), np.add.reduce(values, -1, keepdims=True)
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_one_hot(self, data):
        """``one_hot`` looks its rows up in an identity matrix; it returns the
        rows, or raises the IndexError, of ``reference_one_hot`` for 0-d, 1-d
        and 2-d indexes, Python ints, in-range and out-of-range symbols, and
        index dtypes that cannot index (bool, float)."""
        size = data.draw(st.integers(1, 5), label="size")
        shape = tuple(data.draw(st.lists(st.integers(0, 4), max_size=2), label="shape"))
        low, high = data.draw(st.sampled_from([(0, size), (-2, size + 2)]), label="range")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        dtype = data.draw(st.sampled_from([np.int64, np.int32, np.uint8, np.bool_, np.float64]))
        index = rng.integers(low, high, size=shape).astype(dtype)
        if not shape and dtype is np.int64 and data.draw(st.booleans(), label="python int"):
            index = int(index)
        try:
            expected = reference_one_hot(index, size)
        except IndexError:
            with pytest.raises(IndexError):
                one_hot(index, size)
            return
        out = one_hot(index, size)
        assert out.shape == expected.shape and out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    def test_normalize_in_place_zero_row_raises(self):
        with pytest.raises(AllZeroVector):
            _normalize_in_place(np.array([[0.2, 0.8], [0.0, 0.0], [0.5, 0.7]]))

    def test_planted_rows_reach_both_sides_of_each_threshold(self):
        """The planted features do what the strategy says on fixed rows."""
        peak = 0.75
        floor = peak - TIE_RTOL * peak
        at, below = np.array([floor, peak]), np.array([np.nextafter(floor, -1.0), peak])
        np.testing.assert_array_equal(max_indicator(at), [1.0, 0.0])
        np.testing.assert_array_equal(max_indicator(below), [0.0, 1.0])
        row = np.array([0.25, 0.75])
        inside, outside = row * (1 + 0.5e-13), row * (1 + 1.5e-13)
        assert np.array_equal(_normalize_in_place(inside.copy()), inside)
        assert not np.array_equal(_normalize_in_place(outside.copy()), outside)


class TestSmallFactories:
    def test_uniform(self):
        np.testing.assert_allclose(uniform(4), [0.25] * 4, atol=1e-15)
        with pytest.raises(ValueError):
            uniform(0)

    def test_one_hot_scalar_and_batch(self):
        np.testing.assert_array_equal(one_hot(2, 4), [0.0, 0.0, 1.0, 0.0])
        batch = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(batch, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(IndexError):
            one_hot(3, 3)

    def test_is_normalized(self):
        assert is_normalized(np.array([0.5, 0.5]))
        assert is_normalized(np.full((3, 4), 0.25))
        assert not is_normalized(np.array([0.5, 0.6]))
        assert not is_normalized(np.array([1.5, -0.5]))
