import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import monotone_lsq_oracle, sample_categorical
from textuq.calibration import (
    IsotonicMap,
    ReliabilityBins,
    apply_class_maps,
    bins_from_csv_text,
    bins_to_csv_text,
    calibrate_probs,
    fit_class_maps,
    isotonic_apply,
    pava_fit,
    reliability_bins,
)
from textuq.errors import EmptyInput, InvalidConfig, LengthMismatch

CSV_HEADER = "bin_low,bin_high,mean_predicted,fraction_positive,count"


class TestPavaFit:
    def test_monotone_input_is_unchanged(self):
        m = pava_fit([0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 1.0, 1.0])
        assert np.array_equal(m.breakpoints, [0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(m.values, [0.0, 0.0, 1.0, 1.0])

    def test_single_violation_pools_to_the_mean(self):
        m = pava_fit([1.0, 2.0], [1.0, 0.0])
        assert np.array_equal(m.values, [0.5, 0.5])

    def test_pooling_respects_weights(self):
        m = pava_fit([1.0, 2.0], [1.0, 0.0], weights=[3.0, 1.0])
        assert np.allclose(m.values, [0.75, 0.75])

    def test_tied_scores_pool_before_regression(self):
        m = pava_fit([1.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        assert np.array_equal(m.breakpoints, [1.0, 2.0])
        assert np.allclose(m.values, [0.5, 1.0])

    def test_values_are_clipped_to_the_unit_interval(self):
        m = pava_fit([1.0, 2.0], [-1.0, 2.0])
        assert np.array_equal(m.values, [0.0, 1.0])

    def test_output_is_a_fixed_point(self):
        m = pava_fit([0.1, 0.4, 0.5, 0.9], [1.0, 0.0, 0.25, 0.5])
        again = pava_fit(m.breakpoints, m.values)
        assert np.array_equal(again.breakpoints, m.breakpoints)
        assert np.allclose(again.values, m.values, atol=1e-15)

    def test_matches_exhaustive_oracle_on_all_small_binary_instances(self):
        scores = 0.1 * np.arange(1, 7)
        for n in range(1, 7):
            for pattern in itertools.product((0.0, 1.0), repeat=n):
                m = pava_fit(scores[:n], np.array(pattern))
                uniq, expected = monotone_lsq_oracle(scores[:n], np.array(pattern))
                assert np.array_equal(m.breakpoints, uniq)
                assert np.allclose(m.values, expected, atol=1e-12), pattern

    @given(st.data())
    def test_matches_exhaustive_oracle_on_random_instances(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        scores = np.array(
            data.draw(
                st.lists(
                    st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.8]),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        targets = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=1.0),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        weights = None
        if data.draw(st.booleans()):
            weights = np.array(
                data.draw(
                    st.lists(
                        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                        min_size=n,
                        max_size=n,
                    )
                )
            )
        m = pava_fit(scores, targets, weights=weights)
        uniq, expected = monotone_lsq_oracle(scores, targets, weights=weights)
        assert np.array_equal(m.breakpoints, uniq)
        assert np.allclose(m.values, expected, atol=1e-9)
        assert np.all(np.diff(m.values) >= -1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(EmptyInput):
            pava_fit([], [])
        with pytest.raises(LengthMismatch):
            pava_fit([0.1, 0.2], [1.0])
        with pytest.raises(LengthMismatch):
            pava_fit([[0.1]], [[1.0]])
        with pytest.raises(LengthMismatch):
            pava_fit([0.1, 0.2], [1.0, 0.0], weights=[1.0])
        with pytest.raises(ValueError):
            pava_fit([0.1, 0.2], [1.0, 0.0], weights=[1.0, 0.0])


class TestIsotonicApply:
    def setup_method(self):
        self.m = IsotonicMap(
            breakpoints=np.array([0.2, 0.6]), values=np.array([0.0, 0.8])
        )

    def test_exact_at_breakpoints(self):
        assert isotonic_apply(self.m, 0.2) == 0.0
        assert isotonic_apply(self.m, 0.6) == 0.8

    def test_interpolates_between_breakpoints(self):
        assert isotonic_apply(self.m, 0.4) == pytest.approx(0.4, rel=1e-15)

    def test_clamps_outside_the_range(self):
        assert isotonic_apply(self.m, 0.0) == 0.0
        assert isotonic_apply(self.m, 1.0) == 0.8


class TestClassMaps:
    def test_each_column_is_mapped_monotonically(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(3), size=50)
        labels = rng.integers(0, 3, size=50)
        maps = fit_class_maps(probs, labels)
        mapped = apply_class_maps(maps, probs)
        for c in range(3):
            order = np.argsort(probs[:, c])
            assert np.all(np.diff(mapped[order, c]) >= -1e-15)

    def test_shape_validation(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(3), size=10)
        with pytest.raises(LengthMismatch):
            fit_class_maps(probs[:, 0], np.zeros(10, dtype=int))
        with pytest.raises(LengthMismatch):
            fit_class_maps(probs, np.zeros(9, dtype=int))
        maps = fit_class_maps(probs, np.zeros(10, dtype=int))
        with pytest.raises(LengthMismatch):
            apply_class_maps(maps, probs[:, :2])


class TestCalibrateProbs:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        cal = rng.dirichlet(np.ones(3), size=200)
        labels = sample_categorical(rng, cal)
        out = calibrate_probs(cal, labels, rng.dirichlet(np.ones(3), size=50))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0.0)

    def test_all_zero_rows_fall_back_to_uniform(self):
        cal = np.array([[0.1, 0.45, 0.45], [0.9, 0.05, 0.05]])
        labels = np.array([1, 0])
        out = calibrate_probs(cal, labels, np.array([[0.02, 0.02, 0.96]]))
        assert np.array_equal(out[0], [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])

    def test_already_calibrated_scores_change_little(self):
        # scores concentrated on a small grid so each distinct score has
        # enough samples for its empirical frequency to converge
        bases = [
            (0.1, 0.3, 0.6),
            (0.2, 0.3, 0.5),
            (0.1, 0.1, 0.8),
            (0.2, 0.4, 0.4),
            (0.3, 0.3, 0.4),
            (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
            (0.1, 0.2, 0.7),
            (0.2, 0.2, 0.6),
        ]
        grid = sorted({perm for base in bases for perm in itertools.permutations(base)})
        grid = np.array(grid)
        rng = np.random.default_rng(0)
        rows = grid[rng.integers(0, len(grid), size=10_000)]
        labels = sample_categorical(rng, rows)
        out = calibrate_probs(rows, labels, rows)
        assert np.max(np.abs(out - rows)) <= 0.05


class TestReliabilityBins:
    def test_hand_case(self):
        bins = reliability_bins(
            np.array([0.05, 0.1, 0.95, 1.0, 0.55]),
            np.array([0.0, 1.0, 1.0, 1.0, 0.0]),
        )
        assert np.allclose(bins.edges, np.linspace(0.0, 1.0, 11))
        assert list(bins.counts) == [2, 0, 0, 0, 0, 1, 0, 0, 0, 2]
        assert bins.mean_predicted[0] == pytest.approx(0.075)
        assert bins.fraction_positive[0] == pytest.approx(0.5)
        assert bins.mean_predicted[5] == pytest.approx(0.55)
        assert bins.fraction_positive[5] == 0.0
        assert bins.mean_predicted[9] == pytest.approx(0.975)
        assert bins.fraction_positive[9] == 1.0
        assert bins.mean_predicted[1] is None
        assert bins.fraction_positive[1] is None

    def test_unit_scores_land_in_the_last_bin(self):
        bins = reliability_bins(np.ones(7), np.ones(7))
        assert bins.counts[9] == 7
        assert bins.mean_predicted[9] == 1.0
        assert bins.fraction_positive[9] == 1.0
        assert sum(bins.counts[:9]) == 0

    def test_edge_scores(self):
        # first bin is closed on both sides, later bins only on the right
        bins = reliability_bins(np.array([0.0, 0.1, 0.1 + 1e-12]), np.zeros(3))
        assert bins.counts[0] == 2
        assert bins.counts[1] == 1

    def test_counts_sum_to_the_sample_size(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=500)
        bins = reliability_bins(scores, np.zeros(500), n_bins=7)
        assert bins.counts.sum() == 500
        assert len(bins.edges) == 8

    def test_agreement_under_bernoulli_sampling(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=20_000)
        labels = (rng.uniform(size=20_000) < scores).astype(np.float64)
        bins = reliability_bins(scores, labels)
        for mp, fp, count in zip(bins.mean_predicted, bins.fraction_positive, bins.counts):
            if count == 0:
                continue
            assert abs(fp - mp) <= 3.0 * np.sqrt(0.25 / count)

    def test_empty_input_gives_empty_bins(self):
        bins = reliability_bins(np.array([]), np.array([]))
        assert bins.counts.sum() == 0
        assert all(v is None for v in bins.mean_predicted)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidConfig):
            reliability_bins(np.array([0.5]), np.array([1.0]), n_bins=0)
        with pytest.raises(ValueError):
            reliability_bins(np.array([1.5]), np.array([1.0]))
        with pytest.raises(LengthMismatch):
            reliability_bins(np.array([0.5, 0.6]), np.array([1.0]))


class TestBinCsv:
    def test_round_trip_preserves_empty_bins(self):
        bins = reliability_bins(
            np.array([0.05, 0.1, 0.95, 1.0, 0.55]),
            np.array([0.0, 1.0, 1.0, 1.0, 0.0]),
        )
        text = bins_to_csv_text(bins)
        assert text.splitlines()[0] == CSV_HEADER
        assert text.endswith("\n")
        back = bins_from_csv_text(text)
        assert np.array_equal(back.edges, bins.edges)
        assert np.array_equal(back.counts, bins.counts)
        assert back.mean_predicted == bins.mean_predicted
        assert back.fraction_positive == bins.fraction_positive

    def test_rejects_foreign_text(self):
        with pytest.raises(InvalidConfig):
            bins_from_csv_text("bin_low,bin_high\n0,1\n")
        with pytest.raises(InvalidConfig):
            bins_from_csv_text("")

    @pytest.mark.parametrize("rows, message", [
        ("0,0.5,,,0\n0.5,1,0.75\n", "line 3: expected 5 fields, got 3"),
        ("0,0.5,,,0,7\n", "line 2: expected 5 fields, got 6"),
        ("\n0,0.5,abc,,0\n", "line 3: non-numeric value"),  # blank lines still count
        ("0,0.5,,,1.5\n", "line 2: non-numeric value"),  # a count is an integer
        ("x,0.5,,,0\n", "line 2: non-numeric value"),
        (",0.5,,,0\n", "line 2: non-numeric value"),  # only the means may be empty
        ("0,0.5,nan,0.5,3\n", "line 2: non-finite value or negative count"),
        ("0,inf,0.5,0.5,3\n", "line 2: non-finite value or negative count"),
        ("0,0.5,0.25,-inf,3\n", "line 2: non-finite value or negative count"),
        ("0,0.5,,,-1\n", "line 2: non-finite value or negative count"),
    ])
    def test_a_malformed_row_names_its_line(self, rows, message):
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            bins_from_csv_text(CSV_HEADER + "\n" + rows)
