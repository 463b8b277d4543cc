"""Sampling, estimation and CSV ingestion checks.

Monte Carlo assertions use fixed seeds and tolerances pre-validated to
pass with wide margins (3-sigma binomial bounds or better), so the suite
is deterministic.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from binquant.binormal import BinormalModel, ThresholdClassifier, classifier_rates
from binquant.empirical import (
    NEGATIVE_LABEL,
    POSITIVE_LABEL,
    RNG_ALGORITHM,
    CsvFormatError,
    LabeledSample,
    ScoreSample,
    estimate_rates,
    fit_binormal,
    quantify_sample,
    read_labeled_csv,
    read_score_csv,
    sample_binormal,
    write_labeled_csv,
    write_score_csv,
)
from binquant.metrics import shifted_prevalence
from binquant.quantifiers import DegenerateClassifierError

PHI_ONE = 0.8413447460685429

DEFAULT_MODEL = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.25)


class TestSampleBinormal:
    def test_deterministic_under_seed(self):
        a = sample_binormal(DEFAULT_MODEL, 500, seed=3)
        b = sample_binormal(DEFAULT_MODEL, 500, seed=3)
        assert np.array_equal(a.scores(), b.scores()) and np.array_equal(a.labels(), b.labels())

    def test_different_seeds_differ(self):
        a = sample_binormal(DEFAULT_MODEL, 500, seed=3)
        b = sample_binormal(DEFAULT_MODEL, 500, seed=4)
        same = np.array_equal(a.scores(), b.scores()) and np.array_equal(a.labels(), b.labels())
        assert not same

    def test_single_record(self):
        sample = sample_binormal(DEFAULT_MODEL, 1, seed=0)
        assert sample.n == 1

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            sample_binormal(DEFAULT_MODEL, 0, seed=0)

    def test_labels_are_signed_units(self):
        sample = sample_binormal(DEFAULT_MODEL, 200, seed=8)
        assert set(sample.labels()) <= {POSITIVE_LABEL, NEGATIVE_LABEL}

    def test_positive_fraction_near_prior(self):
        """n = 10^5: the positive share sits within 3 binomial sigmas."""
        n = 100_000
        sample = sample_binormal(DEFAULT_MODEL, n, seed=7)
        frac = float(np.mean(sample.labels() == POSITIVE_LABEL))
        assert abs(frac - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / n)

    def test_class_conditional_means(self):
        sample = sample_binormal(DEFAULT_MODEL, 100_000, seed=7)
        scores = sample.scores()
        labels = sample.labels()
        assert abs(float(np.mean(scores[labels == POSITIVE_LABEL])) - 2.0) < 0.05
        assert abs(float(np.mean(scores[labels == NEGATIVE_LABEL])) - 0.0) < 0.05

    def test_algorithm_identifier_is_published(self):
        assert "pcg64" in RNG_ALGORITHM

    def test_scores_follow_the_published_algorithm(self):
        """Labels from the first uniform stream, scores from ndtri of the second,
        bit for bit, so the samples can be reproduced outside the package."""
        model = BinormalModel(mu=-0.5, nu=1.75, sigma=1.3, p=0.4)
        sample = sample_binormal(model, 1000, seed=21)
        rng = np.random.default_rng(21)
        u_label, u_score = rng.random(1000), rng.random(1000)
        positive = u_label < model.p
        expected = np.where(positive, model.nu, model.mu) + model.sigma * special.ndtri(u_score)
        assert np.array_equal(sample.scores(), expected)
        assert np.array_equal(sample.labels(), np.where(positive, POSITIVE_LABEL, NEGATIVE_LABEL))
        assert "ndtri" in RNG_ALGORITHM


class TestEstimateRates:
    def test_separated_sample(self):
        sample = LabeledSample([2.0, 3.0, -1.0, 0.0], [1, 1, -1, -1])
        rates = estimate_rates(sample, ThresholdClassifier(1.0))
        assert rates.tpr == 1.0
        assert rates.fpr == 0.0

    def test_tie_at_threshold_counts_negative(self):
        sample = LabeledSample([1.0, 2.0, 0.0], [1, 1, -1])
        rates = estimate_rates(sample, ThresholdClassifier(1.0))
        assert rates.tpr == 0.5

    def test_single_positive_below(self):
        sample = LabeledSample([0.5, 0.0], [1, -1])
        rates = estimate_rates(sample, ThresholdClassifier(1.0))
        assert rates.tpr == 0.0

    def test_requires_both_classes(self):
        sample = LabeledSample([0.5, 1.5], [1, 1])
        with pytest.raises(ValueError):
            estimate_rates(sample, ThresholdClassifier(1.0))

    def test_large_sample_consistency(self):
        """Estimates at t = 1 approach the closed-form rates."""
        sample = sample_binormal(DEFAULT_MODEL, 100_000, seed=7)
        rates = estimate_rates(sample, ThresholdClassifier(1.0))
        assert abs(rates.tpr - PHI_ONE) < 0.005
        assert abs(rates.fpr - (1.0 - PHI_ONE)) < 0.005


class TestQuantifySample:
    def test_all_below_threshold(self):
        target = ScoreSample(scores=(-3.0, -2.0, -1.0))
        rates = classifier_rates(DEFAULT_MODEL, ThresholdClassifier(1.0))
        estimate = quantify_sample(target, ThresholdClassifier(1.0), rates)
        assert estimate.cc == 0.0
        np.testing.assert_allclose(estimate.ac, -rates.fpr / (rates.tpr - rates.fpr), rtol=1e-15)
        assert estimate.ac_clamped == 0.0

    def test_counts_strictly_above(self):
        target = ScoreSample(scores=(0.5, 1.0, 1.5, 2.0))
        rates = classifier_rates(DEFAULT_MODEL, ThresholdClassifier(1.0))
        estimate = quantify_sample(target, ThresholdClassifier(1.0), rates)
        assert estimate.cc == 0.5

    def test_degenerate_rates_rejected(self):
        from binquant.binormal import Rates

        target = ScoreSample(scores=(0.5, 1.5))
        with pytest.raises(DegenerateClassifierError):
            quantify_sample(target, ThresholdClassifier(1.0), Rates(tpr=0.3, fpr=0.3))


class TestFitBinormal:
    def test_recovers_generating_parameters(self):
        sample = sample_binormal(DEFAULT_MODEL, 100_000, seed=7)
        fit = fit_binormal(sample)
        assert abs(fit.mu - 0.0) < 0.02
        assert abs(fit.nu - 2.0) < 0.02
        assert abs(fit.sigma - 1.0) < 0.02
        assert abs(fit.p - 0.25) < 0.005

    def test_rejects_reversed_class_means(self):
        sample = LabeledSample([2.0, 3.0, -1.0, 0.0], [-1, -1, 1, 1])
        with pytest.raises(ValueError):
            fit_binormal(sample)

    def test_requires_both_classes(self):
        sample = LabeledSample([0.5, 1.5], [1, 1])
        with pytest.raises(ValueError):
            fit_binormal(sample)


class TestSampleValidation:
    def test_labeled_sample_rejects_bad_label(self):
        with pytest.raises(ValueError):
            LabeledSample([0.5], [0])

    def test_labeled_sample_rejects_nonfinite_score(self):
        with pytest.raises(ValueError):
            LabeledSample([math.nan], [1])

    def test_labeled_sample_rejects_empty(self):
        with pytest.raises(ValueError):
            LabeledSample([], [])

    def test_score_sample_rejects_empty(self):
        with pytest.raises(ValueError):
            ScoreSample(scores=())

    @pytest.mark.parametrize("labels", [[1.5], [255], np.array([255], dtype=np.uint8)])
    def test_labeled_sample_rejects_labels_that_cast_to_units(self, labels):
        """1.5 would truncate to 1 and 255 would wrap to -1 in int8."""
        with pytest.raises(ValueError, match="labels must be -1 or 1, got (1.5|255)"):
            LabeledSample([0.5], labels)

    def test_error_names_first_bad_value(self):
        with pytest.raises(ValueError, match="got inf"):
            ScoreSample(scores=[1.0, math.inf, math.nan])
        with pytest.raises(ValueError, match="got 0"):
            LabeledSample([0.5, 1.5, 2.5], [1, 0, 2])

    def test_labeled_sample_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            LabeledSample([0.5, 1.5], [1])

    def test_score_sample_rejects_nested_scores(self):
        with pytest.raises(ValueError):
            ScoreSample(scores=[[0.5, 1.5]])


class TestArrayStorage:
    def test_arrays_are_read_only(self):
        sample = LabeledSample([0.5, 1.5], [-1, 1])
        target = ScoreSample(scores=[0.5, 1.5])
        for array in (sample.scores(), sample.labels(), target.scores):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_constructors_copy_their_input(self):
        scores = np.array([0.5, 1.5])
        labels = np.array([-1, 1], dtype=np.int8)
        sample = LabeledSample(scores, labels)
        target = ScoreSample(scores=scores)
        scores[0] = 9.0
        labels[0] = 1
        assert np.array_equal(sample.scores(), [0.5, 1.5])
        assert np.array_equal(sample.labels(), [-1, 1])
        assert np.array_equal(target.scores, [0.5, 1.5])

    def test_accessors_return_the_stored_arrays(self):
        sample = sample_binormal(DEFAULT_MODEL, 10, seed=0)
        assert sample.scores() is sample.scores()
        assert sample.labels() is sample.labels()

    def test_dtypes(self):
        sample = sample_binormal(DEFAULT_MODEL, 10, seed=0)
        assert sample.scores().dtype == np.float64
        assert sample.labels().dtype == np.int8
        assert ScoreSample(scores=[1, 2]).scores.dtype == np.float64


class TestCsvRoundTrip:
    def test_labeled_round_trip_is_exact(self, tmp_path):
        sample = sample_binormal(DEFAULT_MODEL, 64, seed=12)
        path = str(tmp_path / "labeled.csv")
        write_labeled_csv(sample, path, comment="round trip")
        back = read_labeled_csv(path)
        assert np.array_equal(back.scores(), sample.scores())
        assert np.array_equal(back.labels(), sample.labels())

    def test_score_round_trip_is_exact(self, tmp_path):
        scores = ScoreSample(scores=(0.1, -2.5, 1e-17, 3.141592653589793))
        path = str(tmp_path / "scores.csv")
        write_score_csv(scores, path)
        back = read_score_csv(path)
        assert np.array_equal(back.scores, scores.scores)

    def test_rewrite_is_byte_identical(self, tmp_path):
        sample = sample_binormal(DEFAULT_MODEL, 32, seed=1)
        p1 = str(tmp_path / "a.csv")
        p2 = str(tmp_path / "b.csv")
        write_labeled_csv(sample, p1, comment="x")
        write_labeled_csv(sample, p2, comment="x")
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_byte_order_mark_accepted(self, tmp_path):
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("\ufeffscore,label\n1.5,1\n-0.5,-1\n", encoding="utf-8")
        sample = read_labeled_csv(str(labeled))
        assert np.array_equal(sample.scores(), [1.5, -0.5])
        assert np.array_equal(sample.labels(), [1, -1])
        scores = tmp_path / "scores.csv"
        scores.write_text("\ufeffscore\n0.25\n", encoding="utf-8")
        assert np.array_equal(read_score_csv(str(scores)).scores, [0.25])

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# generated elsewhere\n\nscore,label\n1.5,1\n\n# trailing note\n-0.5,-1\n")
        sample = read_labeled_csv(str(path))
        assert np.array_equal(sample.scores(), [1.5, -0.5])
        assert np.array_equal(sample.labels(), [1, -1])


class TestCsvErrors:
    def test_bad_score_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\nabc,1\n")
        with pytest.raises(CsvFormatError) as exc:
            read_labeled_csv(str(path))
        assert ":2:" in str(exc.value)
        assert "abc" in str(exc.value)

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\n1.0,1\n2.0,5\n")
        with pytest.raises(CsvFormatError) as exc:
            read_labeled_csv(str(path))
        assert ":3:" in str(exc.value)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value,label\n1.0,1\n")
        with pytest.raises(CsvFormatError):
            read_labeled_csv(str(path))

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\n1.0,1,extra\n")
        with pytest.raises(CsvFormatError):
            read_labeled_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            read_score_csv(str(path))

    def test_score_file_rejects_two_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score\n1.0,1\n")
        with pytest.raises(CsvFormatError):
            read_score_csv(str(path))


class TestStatisticalStructure:
    def test_estimates_tighten_with_sample_size(self):
        """Median absolute estimation error over 20 seeds decreases along
        n in {10^3, 10^4, 10^5} for tpr, fpr and the flagged fraction."""
        model = DEFAULT_MODEL
        clf = ThresholdClassifier(1.0)
        exact = classifier_rates(model, clf)
        target_model = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.6)
        exact_cc = shifted_prevalence(exact, 0.6)

        medians = {"tpr": [], "fpr": [], "cc": []}
        for n in (1_000, 10_000, 100_000):
            errs = {"tpr": [], "fpr": [], "cc": []}
            for seed in range(20):
                train = sample_binormal(model, n, seed=seed)
                rates = estimate_rates(train, clf)
                errs["tpr"].append(abs(rates.tpr - exact.tpr))
                errs["fpr"].append(abs(rates.fpr - exact.fpr))
                target = sample_binormal(target_model, n, seed=seed + 1000)
                cc = float(np.mean(target.scores() > clf.threshold))
                errs["cc"].append(abs(cc - exact_cc))
            for key in medians:
                medians[key].append(float(np.median(errs[key])))

        for key, values in medians.items():
            assert values[0] > values[1] > values[2], (key, values)

    def test_adjustment_is_unbiased_up_to_noise(self):
        """Mean AC over 100 seeds at n = 10^4 sits within 2 standard errors
        of the true shifted prior."""
        clf = ThresholdClassifier(1.0)
        exact = classifier_rates(DEFAULT_MODEL, clf)
        w = 0.5
        target_model = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=w)

        acs = []
        for seed in range(100):
            target = sample_binormal(target_model, 10_000, seed=seed)
            sample = ScoreSample(scores=tuple(float(s) for s in target.scores()))
            acs.append(quantify_sample(sample, clf, exact).ac)
        acs = np.asarray(acs)

        # var(ac) = var(cc) / (tpr - fpr)^2 with cc a binomial mean
        p1h = shifted_prevalence(exact, w)
        se_ac = math.sqrt(p1h * (1.0 - p1h) / 10_000) / (exact.tpr - exact.fpr)
        assert abs(float(np.mean(acs)) - w) <= 2.0 * se_ac / math.sqrt(100)
