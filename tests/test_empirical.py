"""Sampling, estimation and CSV ingestion checks.

Monte Carlo assertions use fixed seeds and tolerances pre-validated to
pass with wide margins (3-sigma binomial bounds or better), so the suite
is deterministic.
"""

import math
import os
import pickle
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from binquant import empirical
from binquant.binormal import BinormalModel, ThresholdClassifier, classifier_rates
from binquant.empirical import (
    NEGATIVE_LABEL,
    POSITIVE_LABEL,
    RNG_ALGORITHM,
    CsvFormatError,
    LabeledSample,
    ScoreSample,
    classify_and_count,
    estimate_rates,
    fit_binormal,
    quantify_sample,
    read_labeled_csv,
    read_score_csv,
    read_train_and_target,
    sample_binormal,
    write_labeled_csv,
    write_score_csv,
)
from binquant.metrics import shifted_prevalence
from binquant.quantifiers import DegenerateClassifierError

PHI_ONE = 0.8413447460685429

DEFAULT_MODEL = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.25)


@st.composite
def _models(draw) -> BinormalModel:
    """Models with sigma from 1e-9 to 1e6, offsets up to 1e6 and priors from 0.001 to 0.999."""
    mu = draw(st.floats(-1e6, 1e6))
    nu = mu + 10.0 ** draw(st.floats(-9.0, 6.0))
    if not mu < nu:  # a gap below half an ulp of mu
        nu = np.nextafter(mu, math.inf)
    return BinormalModel(mu=mu, nu=float(nu), sigma=10.0 ** draw(st.floats(-9.0, 6.0)),
                         p=draw(st.floats(0.001, 0.999)))


# One sample of more than 2^16 records, past any small-array path of numpy.
_LARGE = dict(model=BinormalModel(mu=-123456.789, nu=987.5, sigma=3.7e-4, p=0.3), n=70_000,
              seed=2**62 + 1)


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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(model=_models(), n=st.integers(1, 5000), seed=st.integers(0, 2**63 - 1))
    @example(**_LARGE)
    def test_matches_the_published_reference_bit_for_bit(self, model, n, seed):
        sample = sample_binormal(model, n, seed)
        rng = np.random.default_rng(seed)
        u_label, u_score = rng.random(n), rng.random(n)
        positive = u_label < model.p
        expected = np.where(positive, model.nu, model.mu) + model.sigma * special.ndtri(u_score)
        assert sample.scores().dtype == np.float64
        assert np.array_equal(sample.scores().view(np.uint64), expected.view(np.uint64))
        assert sample.labels().dtype == np.int8
        assert np.array_equal(sample.labels(), np.where(positive, 1, -1).astype(np.int8))


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


class TestClassifyAndCount:
    @pytest.mark.parametrize("threshold", [-1.0, 0.5, 1.0, 3.0])
    def test_is_the_cc_of_quantify_sample(self, threshold):
        target = ScoreSample(scores=sample_binormal(DEFAULT_MODEL, 1000, seed=8).scores())
        classifier = ThresholdClassifier(threshold)
        rates = classifier_rates(DEFAULT_MODEL, classifier)
        cc = classify_and_count(target, classifier)
        assert np.float64(cc).view(np.uint64) == np.float64(
            quantify_sample(target, classifier, rates).cc).view(np.uint64)

    def test_is_a_strict_recount(self):
        """A score equal to the threshold counts as negative."""
        scores = np.repeat(sample_binormal(DEFAULT_MODEL, 333, seed=9).scores(), 3)
        target = ScoreSample(scores=scores)
        for threshold in (scores[0], scores[1], 1.0):
            expected = np.count_nonzero(scores > threshold) / scores.size
            assert classify_and_count(target, ThresholdClassifier(threshold)) == expected
        assert classify_and_count(target, ThresholdClassifier(scores.max())) == 0.0


@pytest.fixture(scope="module")
def paired_files(tmp_path_factory):
    """Train and target files of 500 and 20,000 rows: the first target is below
    ``_FORK_MIN_BYTES`` and read in process, the second is read in a forked child."""
    root = tmp_path_factory.mktemp("pairs")
    pairs = {}
    for kind, n in (("in-process", 500), ("forked", 20_000)):
        train = sample_binormal(DEFAULT_MODEL, n, seed=31)
        target = sample_binormal(BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.6), n, seed=32)
        pairs[kind] = str(root / f"{kind}-train.csv"), str(root / f"{kind}-target.csv")
        write_labeled_csv(train, pairs[kind][0])
        write_score_csv(ScoreSample(scores=target.scores()), pairs[kind][1])
    sizes = [os.path.getsize(pairs[kind][1]) for kind in ("in-process", "forked")]
    assert sizes[0] < empirical._FORK_MIN_BYTES <= sizes[1]
    return pairs


class TestReadTrainAndTarget:
    """``read_train_and_target`` gives what ``read_labeled_csv`` and then
    ``read_score_csv`` give, values and errors, and leaves no child behind."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("kind, forks", [("in-process", 0), ("forked", 1)])
    def test_matches_a_sequential_read_bit_for_bit(self, paired_files, kind, forks, monkeypatch):
        pids = []
        real_fork = os.fork

        def counted_fork():
            pids.append(pid := real_fork())
            return pid
        monkeypatch.setattr(os, "fork", counted_fork)
        train_path, target_path = paired_files[kind]
        train, target = read_train_and_target(train_path, target_path)
        assert len(pids) == forks
        expected_train, expected_target = read_labeled_csv(train_path), read_score_csv(target_path)
        assert np.array_equal(train.scores().view(np.uint64),
                              expected_train.scores().view(np.uint64))
        assert np.array_equal(train.labels(), expected_train.labels())
        assert np.array_equal(target.scores.view(np.uint64),
                              expected_target.scores.view(np.uint64))

    @pytest.mark.parametrize("kind", ["in-process", "forked"])
    @pytest.mark.parametrize("train_first", [True, False])
    def test_train_error_wins_when_both_files_are_faulty(self, paired_files, kind, train_first,
                                                         tmp_path):
        """Whether the train fault is on its second line or its last, and the target's on
        its last or its second, the train file's error is raised."""
        faulty = []
        for path, text, early in zip(paired_files[kind], ("1.0,7", "abc"),
                                     (train_first, not train_first)):
            lines = Path(path).read_text().splitlines()
            line = 2 if early else len(lines)
            lines[line - 1] = text
            faulty.append((str(tmp_path / Path(path).name), line))
            Path(faulty[-1][0]).write_text("\n".join(lines) + "\n")
        (train, line), (target, _) = faulty
        with pytest.raises(CsvFormatError) as caught:
            read_train_and_target(train, target)
        assert str(caught.value) == f"{train}:{line}: label must be -1 or 1, got '7'"


class TestFitBinormal:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(model=_models(), n=st.integers(1, 5000), seed=st.integers(0, 2**63 - 1))
    @example(**_LARGE)
    def test_matches_a_boolean_indexing_reference_bit_for_bit(self, model, n, seed):
        """The fit equals the textbook estimates, each class taken by boolean indexing, or
        raises where they give no model."""
        sample = sample_binormal(model, n, seed)
        scores, positive = sample.scores(), sample.labels() == POSITIVE_LABEL
        n_pos = int(np.count_nonzero(positive))
        if 0 < n_pos < n:
            nu, mu = float(np.mean(scores[positive])), float(np.mean(scores[~positive]))
            pooled_ss = (float(np.sum((scores[positive] - nu) ** 2))
                         + float(np.sum((scores[~positive] - mu) ** 2)))
            if mu < nu and pooled_ss > 0.0 and n > 2:
                expected = BinormalModel(mu=mu, nu=nu, sigma=math.sqrt(pooled_ss / (n - 2)),
                                         p=n_pos / n)
                assert repr(fit_binormal(sample)) == repr(expected)
                return
        with pytest.raises(ValueError):
            fit_binormal(sample)

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

    def test_requires_within_class_spread(self):
        sample = LabeledSample([0.0, 0.0, 1.0, 1.0], [-1, -1, 1, 1])
        with pytest.raises(ValueError, match="^model fitting needs within-class score spread$"):
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

    def test_unpickled_score_sample_is_read_only(self):
        """``quantify`` receives its target sample pickled from a child process."""
        target = pickle.loads(pickle.dumps(ScoreSample(scores=[0.5, -0.0])))
        assert np.array_equal(target.scores.view(np.uint64), np.array([0.5, -0.0]).view(np.uint64))
        with pytest.raises(ValueError):
            target.scores[0] = 1

    def test_unpickled_labeled_sample_is_read_only(self):
        sample = pickle.loads(pickle.dumps(LabeledSample([1.0, -0.0], [1, -1])))
        assert np.array_equal(sample.scores().view(np.uint64), np.array([1.0, -0.0]).view(np.uint64))
        assert sample.labels().tolist() == [1, -1] and sample.labels().dtype == np.int8
        for array in (sample.scores(), sample.labels()):
            assert not array.flags.writeable
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


# Finite float64 scores, with the signed zero, subnormals and values near the top of
# the range drawn often.
_SCORES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_ROWS = st.lists(st.tuples(_SCORES, st.sampled_from([-1, 1])), min_size=1, max_size=40)


@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round-trip")


def _check_round_trip(directory, rows, past_first_chunk: bool) -> None:
    """Written then read, scores and labels come back bit for bit (``-0.0`` included);
    ``past_first_chunk`` repeats the rows until both files exceed 1 MiB."""
    scores, labels = (np.array(column) for column in zip(*rows))
    if past_first_chunk:
        width = sum(len(repr(float(score))) + 1 for score in scores)  # the score file's
        scores, labels = (np.tile(column, (1 << 20) // width + 2) for column in (scores, labels))
    labeled, unlabeled = directory / "labeled.csv", directory / "scores.csv"
    write_labeled_csv(LabeledSample(scores, labels), str(labeled))
    write_score_csv(ScoreSample(scores=scores), str(unlabeled))
    assert (min(labeled.stat().st_size, unlabeled.stat().st_size) > 1 << 20) == past_first_chunk
    back = read_labeled_csv(str(labeled))
    assert np.array_equal(back.scores().view(np.uint64), scores.view(np.uint64))
    assert np.array_equal(back.labels(), labels)
    assert np.array_equal(read_score_csv(str(unlabeled)).scores.view(np.uint64),
                          scores.view(np.uint64))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=_ROWS)
def test_csv_round_trip_is_bit_exact(round_trip_dir, rows):
    _check_round_trip(round_trip_dir, rows, past_first_chunk=False)


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(rows=_ROWS)
def test_csv_round_trip_is_bit_exact_past_the_first_chunk(round_trip_dir, rows):
    _check_round_trip(round_trip_dir, rows, past_first_chunk=True)


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


_BAD_BYTE_AT_4 = "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"


def _csv_error(tmp_path, text, reader=read_labeled_csv):
    """Write ``text`` (str or bytes) to a file and return (path, the reader's error text)."""
    path = tmp_path / "data.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(CsvFormatError) as exc:
        reader(str(path))
    return str(path), str(exc.value)


def _pipe_error(data: bytes, reader) -> tuple[str, str]:
    """Pipe ``data`` to the reader through ``/dev/fd/N`` and return (that path, the
    reader's error text); ``data`` must fit in the pipe's buffer."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        with pytest.raises(CsvFormatError) as exc:
            reader(path)
    finally:
        os.close(read_end)
    return path, str(exc.value)


class TestCsvErrorText:
    """The full ``CsvFormatError`` text of every message kind, and the order of
    competing faults: the first faulty line of the file wins."""

    @pytest.mark.parametrize(
        "text, reader, message",
        [
            ("score,label\n1.0,1\nabc,1\n", read_labeled_csv, "3: invalid score 'abc'"),
            ("score\n\n0.5\n1.5x\n", read_score_csv, "4: invalid score '1.5x'"),
            ("score,label\n,1\n", read_labeled_csv, "2: invalid score ''"),
            ("score\n1.0\ninf\n", read_score_csv, "3: non-finite score 'inf'"),
            ("score,label\nnan,1\n", read_labeled_csv, "2: non-finite score 'nan'"),
            ("score,label\n1e400,-1\n", read_labeled_csv, "2: non-finite score '1e400'"),
            ("score,label\n1.0,x\n", read_labeled_csv, "2: invalid label 'x'"),
            ("score,label\n1.0,1.0\n", read_labeled_csv, "2: invalid label '1.0'"),
            ("score,label\n1.0,\n", read_labeled_csv, "2: invalid label ''"),
            ("score,label\n1.0,1\n2.0,5\n", read_labeled_csv, "3: label must be -1 or 1, got '5'"),
            ("score,label\n1.0,0\n", read_labeled_csv, "2: label must be -1 or 1, got '0'"),
            ("score,label\n1.0,300\n", read_labeled_csv, "2: label must be -1 or 1, got '300'"),
            ("score,label\n1.0,-129\n", read_labeled_csv, "2: label must be -1 or 1, got '-129'"),
            ("score,label\n1.0,1,extra\n", read_labeled_csv, "2: expected 2 fields, got 3"),
            ("score,label\n1.0,1\n1.0\n", read_labeled_csv, "3: expected 2 fields, got 1"),
            ("score\n1.0,1\n", read_score_csv, "2: expected 1 field, got 2"),
            ("value,label\n1.0,1\n", read_labeled_csv,
             "1: expected header 'score,label', got 'value,label'"),
            ("# note\n\nscore,label\n", read_score_csv,
             "3: expected header 'score', got 'score,label'"),
            # a byte that is not UTF-8 is a fault of its line, comment or header line
            # included, and its position counts from the line's first byte
            (b"score\n  \xff\n", read_score_csv,
             "2: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
            pytest.param(
                b"score\n" + b"0.5\n" * 300_000 + b"# \xe2\x82\n0.6\n", read_score_csv,
                "300002: 'utf-8' codec can't decode bytes in position 2-3: "
                "invalid continuation byte",
                id="cut-sequence-in-a-comment-past-the-first-chunk"),
            (b"score\xff\n0.5\n", read_score_csv,
             "1: 'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"),
        ],
    )
    def test_line_messages(self, tmp_path, text, reader, message):
        path, error = _csv_error(tmp_path, text, reader)
        assert error == f"{path}:{message}"

    @pytest.mark.parametrize(
        "text, reader, message",
        [
            ("", read_score_csv, "missing 'score' header"),
            ("# only a comment\n\n", read_labeled_csv, "missing 'score,label' header"),
            ("score\n", read_score_csv, "no data rows"),
            ("score,label\n# nothing yet\n\n", read_labeled_csv, "no data rows"),
        ],
    )
    def test_file_messages(self, tmp_path, text, reader, message):
        path, error = _csv_error(tmp_path, text, reader)
        assert error == f"{path}: {message}"

    def test_invalid_utf8_names_the_file(self, tmp_path):
        path, error = _csv_error(tmp_path, b"score\n0.5\n\xff\n", read_score_csv)
        assert error == (f"{path}:3: 'utf-8' codec can't decode byte 0xff in position 0: "
                         "invalid start byte")

    @pytest.mark.parametrize("head, message", [
        # a faulty line before the bad byte wins, also past the first 1 MiB chunk
        (b"score\n0.5\nabc\n0.7\n", "3: invalid score 'abc'"),
        pytest.param(b"score\n" + b"0.5\n" * 300_000 + b"abc\n" + b"0.7\n" * 10,
                     "300002: invalid score 'abc'", id="fault-past-the-first-chunk-wins"),
        (b"score\n0.5\n0.7,1\n", "3: expected 1 field, got 2"),
        (b"# no header yet\nscores\n", "2: expected header 'score', got 'scores'"),
        # otherwise the bad byte's line is named, counted as the reader splits lines,
        # and the byte's position is counted from the start of that line
        (b"score\n0.5\n0.7\n", f"4: {_BAD_BYTE_AT_4}"),
        (b"\xef\xbb\xbfscore\r\n0.5\r\n0.7\r", f"4: {_BAD_BYTE_AT_4}"),
        pytest.param(b"score\n" + b"0.5\n" * 300_000, f"300002: {_BAD_BYTE_AT_4}",
                     id="bad-byte-past-the-first-chunk"),
        (b"# \xe2\x82\xac\n", f"2: {_BAD_BYTE_AT_4}"),
    ])
    def test_invalid_utf8_after_other_lines(self, tmp_path, head, message):
        """The reader meets the bad byte in the 1 MiB chunk it is reading, before it
        checks that chunk's lines; what it reports still follows file order."""
        path, error = _csv_error(tmp_path, head + b"0.8 \xff9\n0.9\n", read_score_csv)
        assert error == f"{path}:{message}"

    @pytest.mark.parametrize("data, message", [
        pytest.param(b"score\n0.5\nabc\n\xff\n", "3: invalid score 'abc'",
                     id="earlier-fault-wins"),
        pytest.param(b"score\n0.5\n\xff\n",
                     "3: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
                     id="bad-byte-first"),
    ])
    def test_invalid_utf8_from_a_pipe_names_its_line(self, data, message):
        """A pipe, which cannot be read again, gives the text a file gives."""
        path, error = _pipe_error(data, read_score_csv)
        assert error == f"{path}:{message}"

    @pytest.mark.parametrize("data, reader, message", [
        (b"value,label\n1.0,1\n", read_labeled_csv,
         ":1: expected header 'score,label', got 'value,label'"),
        (b"# note\n\nscore,label\n", read_score_csv,
         ":3: expected header 'score', got 'score,label'"),
        (b"score\xff\n0.5\n", read_score_csv,
         ":1: 'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"),
        (b"# caf\xe9\nscore\n0.5\n", read_score_csv,
         ":1: 'utf-8' codec can't decode byte 0xe9 in position 5: invalid continuation byte"),
        (b"", read_score_csv, ": missing 'score' header"),
        (b"# only a comment\n\n", read_labeled_csv, ": missing 'score,label' header"),
        (b"score\n", read_score_csv, ": no data rows"),
        (b"score,label\n# nothing yet\n\n", read_labeled_csv, ": no data rows"),
    ])
    def test_header_faults_from_a_pipe_read_as_from_a_file(self, tmp_path, data, reader,
                                                           message):
        """The header is checked once, before either read path, so a pipe and a file
        give the same text."""
        path, error = _csv_error(tmp_path, data, reader)
        assert error == f"{path}{message}"
        path, error = _pipe_error(data, reader)
        assert error == f"{path}{message}"

    @pytest.mark.parametrize(
        "rows, message",
        [
            # a bad value on an earlier line beats a structural fault on a later one
            ("1.0,1\nabc,1\n2.0,1,3\n", "3: invalid score 'abc'"),
            ("1.0,1\n2.0,1,3\nabc,1\n", "3: expected 2 fields, got 3"),
            # a range fault numpy converts beats a later conversion fault, and vice versa
            ("1.0,5\nabc,1\n", "2: label must be -1 or 1, got '5'"),
            ("abc,1\n1.0,5\n", "2: invalid score 'abc'"),
            ("inf,1\n2.0,1,3\n", "2: non-finite score 'inf'"),
            ("1.0\ninf,1\n", "2: expected 2 fields, got 1"),
            # within one line the score is checked before the label
            ("inf,abc\n", "2: non-finite score 'inf'"),
            ("abc,7\n", "2: invalid score 'abc'"),
            ("nan,300\n", "2: non-finite score 'nan'"),
        ],
    )
    def test_first_fault_in_file_order_wins(self, tmp_path, rows, message):
        path, error = _csv_error(tmp_path, "score,label\n" + rows)
        assert error == f"{path}:{message}"

    @pytest.mark.parametrize("fault", ["abc,1", "1.0,2", "1.0,1,1", "inf,-1"])
    def test_line_numbers_hold_past_the_first_megabyte(self, tmp_path, fault):
        """A 2.5 MB file with comments and blank lines: the fault on line 150003
        is reported there, and an earlier one on line 99999 wins over it."""
        rows = ["# generated", "score,label"]
        rows += ["" if i % 7 == 0 else "# note" if i % 11 == 0 else "0.123456789012345,1"
                 for i in range(150_000)]
        path, error = _csv_error(tmp_path, "\n".join(rows + [fault, "1.0,1"]) + "\n")
        assert error.startswith(f"{path}:150003: ")
        rows[99_998] = "0.5,0"
        path, error = _csv_error(tmp_path, "\n".join(rows + [fault, "1.0,1"]) + "\n")
        assert error == f"{path}:99999: label must be -1 or 1, got '0'"



class TestRawChunks:
    """Past the header, numpy converts each 1 MiB chunk of lines as read, and only a
    chunk it rejects is stripped, filtered and bisected.  An oddity in chunk 2 or later
    of a file over 2 MiB gives the same rows or error text as anywhere else."""

    ROW = "0.123456789012345,1"  # 20 bytes a line, so 110,000 rows make 2.2 MB
    ROWS = 110_000
    AT = 80_000  # line AT + 1 of the file lies in the second chunk

    def _lines(self):
        return ["score,label"] + [self.ROW] * self.ROWS

    @staticmethod
    def _write(tmp_path, lines, newline="\n") -> str:
        path = tmp_path / "data.csv"
        path.write_bytes((newline.join(lines) + newline).encode())
        assert path.stat().st_size > 2 << 20
        return str(path)

    def _assert_rows(self, path, n):
        sample = read_labeled_csv(path)
        assert np.array_equal(sample.scores(), np.full(n, 0.123456789012345))
        assert np.array_equal(sample.labels(), np.ones(n))

    def test_form_feed_inside_a_line_is_one_line_of_three_fields(self, tmp_path):
        lines = self._lines()
        lines[self.AT] = "1.0,1\x0c2.0,1"
        path, error = _csv_error(tmp_path, "\n".join(lines) + "\n")
        assert error == f"{path}:{self.AT + 1}: expected 2 fields, got 3"

    @pytest.mark.parametrize("odd", ["   ", "\t", "\x85", "# note", "#0.5,1"])
    def test_whitespace_and_comment_lines_are_skipped(self, tmp_path, odd):
        lines = self._lines()
        lines.insert(self.AT, odd)
        self._assert_rows(self._write(tmp_path, lines), self.ROWS)

    def test_padded_rows_are_stripped(self, tmp_path):
        lines = self._lines()
        lines[self.AT] = "\x85 \xa0" + self.ROW + "\x85\x0c"
        self._assert_rows(self._write(tmp_path, lines), self.ROWS)

    def test_cr_line_endings(self, tmp_path):
        lines = self._lines()
        self._assert_rows(self._write(tmp_path, lines, "\r"), self.ROWS)
        lines[self.AT] = "1.0,0"
        path = self._write(tmp_path, lines, "\r")
        with pytest.raises(CsvFormatError) as exc:
            read_labeled_csv(path)
        assert str(exc.value) == f"{path}:{self.AT + 1}: label must be -1 or 1, got '0'"

    @pytest.mark.parametrize("chunk, offset", [(2, -1), (3, 0)])
    def test_fault_at_a_chunk_edge(self, tmp_path, chunk, offset):
        """A fault on the last line of chunk 2 or the first of chunk 3: ``offset`` lines
        from the first line of chunk ``chunk - offset``.  The chunks start on the line
        below the header, which the reader reads first; the faulty line has the length
        of a sound one, so the chunks keep their edges."""
        lines = self._lines()
        path = self._write(tmp_path, lines)
        with open(path, encoding="utf-8") as handle:
            handle.readline()
            edge = 1 + sum(len(handle.readlines(1 << 20)) for _ in range(chunk - offset - 1))
        fault = self.ROW.replace("5,", "x,")
        lines[edge + offset] = fault
        path, error = _csv_error(tmp_path, "\n".join(lines) + "\n")
        assert error == f"{path}:{edge + offset + 1}: invalid score {fault.split(',')[0]!r}"

    def test_rows_before_the_header_are_not_data(self, tmp_path):
        """A first chunk numpy could convert whole still has its header checked."""
        path, error = _csv_error(tmp_path, "\n".join(self._lines()[1:]) + "\n")
        assert error == f"{path}:1: expected header 'score,label', got {self.ROW!r}"

    def test_a_chunk_of_empty_lines_alone(self, tmp_path):
        """A chunk holding nothing but empty lines gives no rows and no warning."""
        lines = self._lines()[:1000] + [""] * 2_200_000 + ["-0.5,-1"]  # chunk 2 all empty
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample = read_labeled_csv(str(path))
        assert np.array_equal(sample.scores(), [0.123456789012345] * 999 + [-0.5])
        assert np.array_equal(sample.labels(), [1] * 999 + [-1])


# Files that probe where numpy's read of a whole file by its path could part from the line
# filter's read: line endings, lines the filter skips, faulty lines and a bad byte late.
_EDGE_CORPUS = {
    "bom-crlf": (b"\xef\xbb\xbfscore,label\r\n0.5,1\r\n-0.25,-1\r\n", read_labeled_csv),
    "bom-crlf-comment": (b"\xef\xbb\xbf# c\r\nscore\r\n0.5\r\n# mid\r\n0.75\r\n", read_score_csv),
    "lone-cr": (b"score\r0.5\r1e-3\r\r-2\r", read_score_csv),
    "leading-comments": (b"# one\n\n  # two\nscore,label\n0.5,1\n1.5,-1\n", read_labeled_csv),
    "bad-byte-in-a-leading-comment": (b"# caf\xe9\nscore\n0.5\n", read_score_csv),
    "blank-lines-mid-file": (b"score\n0.5\n\n\n0.75\n\n", read_score_csv),
    "whitespace-only-line-mid-file": (b"score\n0.5\n \t \n0.75\n", read_score_csv),
    "comment-mid-file": (b"score,label\n0.5,1\n# note\n0.75,-1\n", read_labeled_csv),
    "hash-in-a-field": (b"score,label\n0.5,1#x\n", read_labeled_csv),
    "label-300": (b"score,label\n0.5,1\n0.5,300\n", read_labeled_csv),
    "nan": (b"score\n0.5\nnan\n", read_score_csv),
    "three-fields": (b"score,label\n0.5,1\n0.5,1,1\n", read_labeled_csv),
    "padded-fields": (b"score,label\n  0.5 , 1 \n\t-2\t,\t-1\n", read_labeled_csv),
    "form-feed-inside-a-line": (b"score,label\n1.0,1\x0c2.0,1\n", read_labeled_csv),
    "bad-byte-on-line-400002": (b"score\n" + b"0.5\n" * 400_000 + b"0.8 \xff9\n", read_score_csv),
    "empty-body": (b"score,label\n\n\n", read_labeled_csv),
}


def _read_outcome(reader, path: str):
    """The bits of what ``reader`` reads from ``path``, or its error text, with every
    warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sample = reader(path)
        except CsvFormatError as exc:
            return str(exc)
    if isinstance(sample, LabeledSample):
        return sample.scores().tobytes() + sample.labels().tobytes()
    return sample.scores.tobytes()


@pytest.fixture
def numpy_sources(monkeypatch):
    """What each numpy conversion of the readers is handed: a path, or a list of lines."""
    sources = []
    loadtxt = empirical._loadtxt

    def spy(source, **options):
        sources.append(source)
        return loadtxt(source, **options)
    monkeypatch.setattr(empirical, "_loadtxt", spy)
    return sources


class TestWholeFileRead:
    """numpy converts the lines below the header of a seekable file in one call that reads
    the file by its path.  A stream, a file whose lines below the header that call cannot
    convert, and a name numpy would not open as plain text are read by the line filter,
    with the same bits or the same error text."""

    @pytest.mark.parametrize("name", _EDGE_CORPUS)
    def test_edge_files_read_as_the_line_filter_reads_them(self, name, tmp_path, monkeypatch):
        data, reader = _EDGE_CORPUS[name]
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        whole = _read_outcome(reader, str(path))
        monkeypatch.setattr(empirical, "_whole_body", lambda *args: None)
        assert whole == _read_outcome(reader, str(path))

    def test_clean_file_is_converted_by_one_numpy_call(self, tmp_path, numpy_sources):
        path = str(tmp_path / "data.csv")
        sample = sample_binormal(DEFAULT_MODEL, 50_000, seed=3)
        write_labeled_csv(sample, path, comment="clean")
        back = read_labeled_csv(path)
        assert numpy_sources == [path]
        assert np.array_equal(back.scores().view(np.uint64), sample.scores().view(np.uint64))
        assert np.array_equal(back.labels(), sample.labels())

    @staticmethod
    def _clean_and_noisy(tmp_path) -> tuple[str, str, np.ndarray]:
        scores = sample_binormal(DEFAULT_MODEL, 20_000, seed=4).scores()
        clean, noisy = str(tmp_path / "clean.csv"), tmp_path / "noisy.csv"
        write_score_csv(ScoreSample(scores=scores), clean)
        lines = Path(clean).read_text().splitlines()
        lines.insert(10_000, "# a note below the header")
        noisy.write_text("\n".join(lines) + "\n")
        return clean, str(noisy), scores

    def test_comment_below_the_header_reads_to_the_same_bits(self, tmp_path, numpy_sources):
        clean, noisy, scores = self._clean_and_noisy(tmp_path)
        for path in (clean, noisy):
            assert np.array_equal(read_score_csv(path).scores.view(np.uint64),
                                  scores.view(np.uint64))
        assert numpy_sources[:2] == [clean, noisy]  # the noisy file's call fails,
        assert all(isinstance(source, list) for source in numpy_sources[2:])  # the filter reads

    def test_pipe_reads_to_the_same_bits(self, tmp_path, numpy_sources):
        clean, _, scores = self._clean_and_noisy(tmp_path)
        read_end, write_end = os.pipe()

        def write():  # the file is larger than the pipe holds
            with open(write_end, "wb") as pipe:
                pipe.write(Path(clean).read_bytes())
        writer = threading.Thread(target=write)
        writer.start()
        try:
            back = read_score_csv(f"/dev/fd/{read_end}")
        finally:
            writer.join()
            os.close(read_end)
        assert np.array_equal(back.scores.view(np.uint64), scores.view(np.uint64))
        assert numpy_sources and all(isinstance(source, list) for source in numpy_sources)

    @pytest.mark.parametrize("name", ["data.csv.gz", "data.bz2", "data.xz", "data.lzma",
                                      "http://host/data.csv"])
    def test_names_numpy_would_unpack_or_fetch_are_read_as_text(self, name, tmp_path,
                                                               monkeypatch):
        """np.loadtxt opens a path with such a name through a decompressor or as a URL,
        so it is never handed one."""
        loadtxt = empirical._loadtxt

        def lines_only(source, **options):
            assert not isinstance(source, str), f"numpy was handed the path {source!r}"
            return loadtxt(source, **options)
        monkeypatch.setattr(empirical, "_loadtxt", lines_only)
        monkeypatch.chdir(tmp_path)
        Path(name).parent.mkdir(parents=True, exist_ok=True)
        Path(name).write_text("score\n0.5\n-1.5\n")
        assert np.array_equal(read_score_csv(name).scores, [0.5, -1.5])


class TestStrictNumberSyntax:
    """numpy's parser reads the fields: underscores and non-ASCII digits, which
    Python's float() and int() accept, are invalid; signs, leading zeros and
    whitespace around a field are accepted."""

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11.5", "1_000.5"])
    def test_score_syntax_outside_ascii_decimals_is_invalid(self, tmp_path, token):
        path, error = _csv_error(tmp_path, f"score\n0.5\n{token}\n", read_score_csv)
        assert error == f"{path}:3: invalid score {token!r}"
        path, error = _csv_error(tmp_path, f"score,label\n{token},1\n")
        assert error == f"{path}:2: invalid score {token!r}"

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "1.5", "1_000_000_000_000_000_000_000",
                                       "\u0661" * 25, "99999999999999999999.0"])
    def test_label_syntax_outside_ascii_integers_is_invalid(self, tmp_path, token):
        path, error = _csv_error(tmp_path, f"score,label\n0.5,1\n1.5,{token}\n")
        assert error == f"{path}:3: invalid label {token!r}"

    @pytest.mark.parametrize("token", ["99999999999999999999", "-99999999999999999999",
                                       "+9223372036854775808", "-9223372036854775809",
                                       " 99999999999999999999"])
    def test_label_beyond_int64_is_a_value_fault(self, tmp_path, token):
        """numpy cannot read it as int64, but its syntax is an ASCII integer."""
        path, error = _csv_error(tmp_path, f"score,label\n0.5,1\n0.7,{token}\n")
        assert error == f"{path}:3: label must be -1 or 1, got {token!r}"

    def test_signs_leading_zeros_and_spaces_are_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("score,label\n+1.5,+1\n -2 , -1\n.5,01\n1e-3,-01\n")
        sample = read_labeled_csv(str(path))
        assert np.array_equal(sample.scores(), [1.5, -2.0, 0.5, 0.001])
        assert np.array_equal(sample.labels(), [1, -1, 1, -1])

    def test_crlf_endings_match_lf(self, tmp_path):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        text = "# note\nscore,label\n1.5,1\n\n-0.25,-1\n"
        lf.write_text(text)
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        a, b = read_labeled_csv(str(lf)), read_labeled_csv(str(crlf))
        assert np.array_equal(a.scores(), b.scores()) and np.array_equal(a.labels(), b.labels())


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
