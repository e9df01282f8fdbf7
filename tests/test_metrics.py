import json

import numpy as np
import pytest

from textuq.errors import EmptyInput, LengthMismatch
from textuq.metrics import (
    GroupStat,
    accuracy,
    build_report,
    groupwise_confidence,
    mmpcl,
    nlpp,
    report_to_csv_text,
    report_to_json_text,
)

ONE_HOT = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


class TestAccuracy:
    def test_one_hot_predictions(self):
        assert accuracy(ONE_HOT, np.array([0, 1, 2])) == 1.0

    def test_ties_break_to_the_lowest_index(self):
        uniform = np.full((4, 3), 1.0 / 3.0)
        assert accuracy(uniform, np.zeros(4, dtype=int)) == 1.0
        assert accuracy(uniform, np.ones(4, dtype=int)) == 0.0
        tied = np.array([[0.4, 0.4, 0.2]])
        assert accuracy(tied, np.array([0])) == 1.0
        assert accuracy(tied, np.array([1])) == 0.0

    def test_half_right(self):
        probs = np.array(
            [[0.6, 0.2, 0.2], [0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.6, 0.2]]
        )
        assert accuracy(probs, np.array([0, 1, 1, 2])) == 0.5

    def test_complements_the_error_rate(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(3), size=101)
        labels = rng.integers(0, 3, size=101)
        error = float(np.mean(np.argmax(probs, axis=1) != labels))
        assert accuracy(probs, labels) + error == 1.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(EmptyInput):
            accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(LengthMismatch):
            accuracy(np.array([0.5, 0.5]), np.array([0]))
        with pytest.raises(LengthMismatch):
            accuracy(ONE_HOT, np.array([0, 1]))


class TestNlpp:
    def test_certain_and_correct_is_zero(self):
        assert nlpp(ONE_HOT, np.array([0, 1, 2])) == 0.0

    def test_uniform_is_log_three(self):
        uniform = np.full((5, 3), 1.0 / 3.0)
        assert nlpp(uniform, np.array([0, 1, 2, 0, 1])) == pytest.approx(
            np.log(3.0), abs=1e-12
        )

    def test_zero_probability_hits_the_floor(self):
        assert nlpp(ONE_HOT, np.array([1, 0, 0])) == pytest.approx(
            27.631021115928547, rel=1e-12
        )

    def test_mean_of_per_example_terms(self):
        probs = np.array([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]])
        assert nlpp(probs, np.array([0, 1])) == pytest.approx(
            1.5 * np.log(2.0), rel=1e-14
        )


class TestMmpcl:
    def test_one_hot_rows(self):
        assert mmpcl(ONE_HOT) == 1.0

    def test_uniform_rows(self):
        assert mmpcl(np.full((7, 3), 1.0 / 3.0)) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_hand_average(self):
        probs = np.array([[0.5, 0.3, 0.2], [0.8, 0.1, 0.1]])
        assert mmpcl(probs) == pytest.approx(0.65, rel=1e-15)

    def test_bounded_on_the_simplex(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(3), size=1000)
        value = mmpcl(probs)
        assert 1.0 / 3.0 - 1e-12 <= value <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            mmpcl(np.zeros((0, 3)))


class TestGroupwiseConfidence:
    def test_single_false_negative(self):
        probs = np.array([[0.1, 0.8, 0.1]])
        predicted = np.argmax(probs, axis=1)
        value, count = groupwise_confidence(probs, predicted, np.array([2]), "FN", 2)
        assert (value, count) == (0.8, 1)

    def test_true_positive_certainty(self):
        probs = np.array([[0.0, 0.0, 1.0]])
        value, count = groupwise_confidence(probs, np.array([2]), np.array([2]), "TP", 2)
        assert (value, count) == (1.0, 1)

    def test_empty_subset_is_absent_not_zero(self):
        value, count = groupwise_confidence(
            ONE_HOT, np.array([0, 1, 2]), np.array([0, 1, 2]), "FN", 2
        )
        assert value is None
        assert count == 0

    def test_averages_row_maxima_within_the_subset(self):
        probs = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8], [0.2, 0.6, 0.2]])
        predicted = np.array([0, 2, 1])
        true_labels = np.array([2, 2, 2])
        value, count = groupwise_confidence(probs, predicted, true_labels, "FN", 2)
        assert count == 2
        assert value == pytest.approx((0.5 + 0.6) / 2.0, rel=1e-15)

    def test_rejects_unknown_group_and_bad_shapes(self):
        with pytest.raises(ValueError):
            groupwise_confidence(ONE_HOT, np.array([0, 1, 2]), np.array([0, 1, 2]), "FP", 2)
        with pytest.raises(LengthMismatch):
            groupwise_confidence(ONE_HOT, np.array([0, 1]), np.array([0, 1, 2]), "FN", 2)


def two_set_inputs(seed=2, n=60):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(3), size=n)
    labels = rng.integers(0, 3, size=n)
    return probs, labels


class TestBuildReport:
    def test_identical_inputs_give_identical_blocks(self):
        probs, labels = two_set_inputs()
        report = build_report({"a": (probs, labels), "b": (probs.copy(), labels.copy())})
        assert report.sets["a"] == report.sets["b"]

    def test_group_keys_cover_positive_and_uncertain_only(self):
        probs, labels = two_set_inputs()
        report = build_report({"a": (probs, labels)})
        assert sorted(report.sets["a"].groups) == [
            "FN_positive",
            "FN_uncertain",
            "TP_positive",
            "TP_uncertain",
        ]

    def test_permutation_invariance(self):
        probs, labels = two_set_inputs(seed=3)
        perm = np.random.default_rng(4).permutation(len(labels))
        a = build_report({"x": (probs, labels)}).sets["x"]
        b = build_report({"x": (probs[perm], labels[perm])}).sets["x"]
        assert a.accuracy == b.accuracy
        assert a.nlpp == pytest.approx(b.nlpp, rel=1e-12)
        assert a.mmpcl == pytest.approx(b.mmpcl, rel=1e-12)
        assert a.groups == b.groups or all(
            a.groups[k].count == b.groups[k].count for k in a.groups
        )

    def test_errors_name_the_offending_set(self):
        probs, labels = two_set_inputs()
        with pytest.raises(EmptyInput, match="BAD:"):
            build_report(
                {"a": (probs, labels), "BAD": (np.zeros((0, 3)), np.zeros(0, dtype=int))}
            )


def pinned_report():
    """1000 rows constructed so accuracy is 0.294 and nlpp is 1.234."""
    n, correct = 1000, 294
    q = np.exp(-(1.234 * n - correct * np.log(2.0)) / (n - correct))
    probs = np.empty((n, 3))
    labels = np.empty(n, dtype=int)
    probs[:correct] = [0.5, 0.3, 0.2]
    labels[:correct] = 0
    probs[correct:] = [0.6, q, 0.4 - q]
    labels[correct:] = 1
    return build_report({"CONSTest": (probs, labels)})


class TestSerialization:
    def test_pinned_values_round_trip_exactly(self):
        report = pinned_report()
        sm = report.sets["CONSTest"]
        assert sm.accuracy == pytest.approx(0.294, abs=1e-15)
        assert sm.nlpp == pytest.approx(1.234, abs=1e-9)
        back = json.loads(report_to_json_text(report))["sets"]["CONSTest"]
        assert back["accuracy"] == sm.accuracy
        assert back["nlpp"] == sm.nlpp
        assert back["mmpcl"] == sm.mmpcl
        assert back["size"] == sm.size
        assert back["groups"] == {
            key: {"mmpcl": gs.mmpcl, "count": gs.count} for key, gs in sm.groups.items()
        }

    def test_json_shape(self):
        probs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        labels = np.array([2, 0])
        text = report_to_json_text(build_report({"tiny": (probs, labels)}))
        assert text.endswith("\n")
        assert '"FN_positive": {' in text
        assert '"mmpcl": null' in text  # empty subsets serialize as null
        payload_keys = text.index('"accuracy"')
        assert payload_keys < text.index('"groups"') < text.index('"mmpcl"')

    def test_csv_rendering_of_absent_groups(self):
        probs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        labels = np.array([2, 0])
        report = build_report({"tiny": (probs, labels)})
        plain = report_to_csv_text(report)
        zeroed = report_to_csv_text(report, absent_as_zero=True)
        assert plain.splitlines()[0] == "test_set,metric,value"
        assert "tiny,FN_positive_mmpcl,\n" in plain
        assert "tiny,FN_positive_mmpcl,0\n" in zeroed
        assert "tiny,TP_positive_mmpcl,1\n" in plain
        assert "tiny,TP_positive_count,1\n" in plain
        assert "tiny,size,2\n" in plain

    def test_group_stat_is_hashable_value_object(self):
        assert GroupStat(0.5, 2) == GroupStat(0.5, 2)
        assert GroupStat(None, 0) != GroupStat(0.0, 0)
