"""Finite-sample workflows: seeded score generation, rate estimation and
file-based prevalence estimation.

Sampling is reproducible from the seed alone.  The generator is numpy's
PCG64 (see ``RNG_ALGORITHM``); each record consumes one uniform draw for
the class label and one for the score, and scores are
``where(positive, nu, mu) + sigma * scipy.special.ndtri(u)`` over the
second stream.  A reimplementation that matches the uniform stream
therefore matches the samples bit for bit.

CSV formats, both with UTF-8 text (a leading byte-order mark is
accepted), LF line endings and plain decimal numbers:

* labeled scores: header ``score,label`` with label -1 (negative) or
  1 (positive), one record per line;
* bare scores: header ``score``.

Readers skip blank lines and lines starting with ``#``; parse failures
raise ``CsvFormatError`` naming the file, line number and offending
token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binormal import BinormalModel, Rates, ThresholdClassifier, std_normal_quantile
from .quantifiers import QuantificationEstimate, adjusted_count

__all__ = [
    "RNG_ALGORITHM",
    "POSITIVE_LABEL",
    "NEGATIVE_LABEL",
    "LabeledSample",
    "ScoreSample",
    "CsvFormatError",
    "sample_binormal",
    "estimate_rates",
    "quantify_sample",
    "fit_binormal",
    "read_labeled_csv",
    "write_labeled_csv",
    "read_score_csv",
    "write_score_csv",
]

RNG_ALGORITHM = "numpy-pcg64, ndtri inverse-cdf scores"

POSITIVE_LABEL = 1
NEGATIVE_LABEL = -1


class CsvFormatError(ValueError):
    """A score file does not follow the documented CSV format."""


def _score_array(scores, unit: str) -> np.ndarray:
    """Read-only float64 copy of a non-empty, one-dimensional run of finite scores."""
    array = np.array(scores, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"scores must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"sample must contain at least one {unit}")
    finite = np.isfinite(array)
    if not finite.all():
        raise ValueError(f"scores must be finite, got {array[np.argmin(finite)].item()!r}")
    array.flags.writeable = False
    return array


class LabeledSample:
    """Finite labeled sample: read-only float64 scores and int8 labels -1 or 1."""

    __slots__ = ("_scores", "_labels")

    def __init__(self, scores, labels) -> None:
        scores = _score_array(scores, "record")
        labels = np.asarray(labels)
        if labels.shape != scores.shape:
            raise ValueError(f"expected {scores.size} labels, one per score, got shape {labels.shape}")
        # Checked before the int8 cast, so that 255 or 1.5 cannot pass as -1 or 1.
        bad = (labels != NEGATIVE_LABEL) & (labels != POSITIVE_LABEL)
        if bad.any():
            raise ValueError(f"labels must be -1 or 1, got {labels[np.argmax(bad)].item()!r}")
        self._scores = scores
        self._labels = labels.astype(np.int8)
        self._labels.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self._scores)

    def scores(self) -> np.ndarray:
        return self._scores

    def labels(self) -> np.ndarray:
        return self._labels


@dataclass(frozen=True, eq=False)
class ScoreSample:
    """Finite unlabeled sample: a read-only float64 array of scores."""

    scores: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", _score_array(self.scores, "score"))

    @property
    def n(self) -> int:
        return len(self.scores)


def sample_binormal(model: BinormalModel, n: int, seed: int) -> LabeledSample:
    """Draw n labeled scores from the model, reproducibly from the seed.

    Labels come from one uniform stream (u < p means positive), scores
    from a second via the inverse standard-normal transform shifted to
    the class mean.  Identical (model, n, seed) give identical samples.
    """
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    u_label = rng.random(n)
    u_score = rng.random(n)
    is_positive = u_label < model.p
    z = std_normal_quantile(u_score)
    scores = np.where(is_positive, model.nu, model.mu) + model.sigma * z
    labels = np.where(is_positive, POSITIVE_LABEL, NEGATIVE_LABEL)
    return LabeledSample(scores, labels)


def _class_split(sample: LabeledSample, task: str) -> tuple[np.ndarray, int, int]:
    """Positive mask and the two class counts; ``task`` needs both classes present."""
    positive = sample.labels() == POSITIVE_LABEL
    n_pos = int(np.count_nonzero(positive))
    n_neg = sample.n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"{task} needs at least one record of each class")
    return positive, n_pos, n_neg


def estimate_rates(sample: LabeledSample, classifier: ThresholdClassifier) -> Rates:
    """Empirical error-rate pair of a cut-point rule on a labeled sample.

    Scores equal to the threshold count as negative predictions, matching
    the strict inequality of the rule.  Requires both classes present.
    """
    positive, n_pos, n_neg = _class_split(sample, "rate estimation")
    flagged = sample.scores() > classifier.threshold
    tpr = float(np.count_nonzero(flagged & positive)) / n_pos
    fpr = float(np.count_nonzero(flagged & ~positive)) / n_neg
    return Rates(tpr=tpr, fpr=fpr)


def quantify_sample(
    target: ScoreSample, classifier: ThresholdClassifier, rates: Rates
) -> QuantificationEstimate:
    """Estimate the positive prevalence of an unlabeled sample.

    The raw flagged fraction is the classify-and-count estimate; the
    supplied rates (empirical or model-exact) drive the count adjustment.
    Propagates ``DegenerateClassifierError`` when the rates carry no
    signal.
    """
    return adjusted_count(_flagged_fraction(target, classifier), rates)


def _flagged_fraction(target: ScoreSample, classifier: ThresholdClassifier) -> float:
    """Share of the sample the rule flags positive: the classify-and-count estimate."""
    flagged = target.scores > classifier.threshold
    return float(np.count_nonzero(flagged)) / target.n


def fit_binormal(sample: LabeledSample) -> BinormalModel:
    """Fit the equal-variance two-normal model to a labeled sample.

    Class means from per-class averages, common sigma from the pooled
    within-class variance, prior from the positive fraction.  Requires
    both classes present and enough spread for a positive sigma.
    """
    positive, n_pos, _ = _class_split(sample, "model fitting")
    scores = sample.scores()
    nu = float(np.mean(scores[positive]))
    mu = float(np.mean(scores[~positive]))
    pooled_ss = float(np.sum((scores[positive] - nu) ** 2)) + float(
        np.sum((scores[~positive] - mu) ** 2)
    )
    dof = sample.n - 2
    if dof <= 0 or pooled_ss <= 0.0:
        raise ValueError("model fitting needs within-class score spread")
    sigma = math.sqrt(pooled_ss / dof)
    if not mu < nu:
        raise ValueError(
            f"fitted class means are not ordered (mu={mu!r}, nu={nu!r}); "
            "scores do not separate the classes"
        )
    return BinormalModel(mu=mu, nu=nu, sigma=sigma, p=n_pos / sample.n)


_LABELED_HEADER = "score,label"
_SCORE_HEADER = "score"


def _parse_score(token: str, path: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise CsvFormatError(f"{path}:{lineno}: invalid score {token!r}") from None
    if not math.isfinite(value):
        raise CsvFormatError(f"{path}:{lineno}: non-finite score {token!r}")
    return value


def _data_rows(path: str, header: str):
    """Yield (line number, fields) of each data row after ``header``, skipping blank
    lines and ``#`` comments; format violations raise ``CsvFormatError``."""
    n_fields = header.count(",") + 1
    header_seen = row_seen = False
    with open(path, encoding="utf-8-sig") as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if not header_seen:
                    if line != header:
                        raise CsvFormatError(
                            f"{path}:{lineno}: expected header {header!r}, got {line!r}"
                        )
                    header_seen = True
                    continue
                fields = line.split(",")
                if len(fields) != n_fields:
                    plural = "s" if n_fields > 1 else ""
                    raise CsvFormatError(
                        f"{path}:{lineno}: expected {n_fields} field{plural}, got {len(fields)}"
                    )
                row_seen = True
                yield lineno, fields
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: {exc}") from None
    if not header_seen:
        raise CsvFormatError(f"{path}: missing {header!r} header")
    if not row_seen:
        raise CsvFormatError(f"{path}: no data rows")


def read_labeled_csv(path: str) -> LabeledSample:
    """Read a labeled sample from a ``score,label`` CSV file."""
    scores: list[float] = []
    labels: list[int] = []
    for lineno, (score, label) in _data_rows(path, _LABELED_HEADER):
        scores.append(_parse_score(score, path, lineno))
        try:
            value = int(label)
        except ValueError:
            raise CsvFormatError(f"{path}:{lineno}: invalid label {label!r}") from None
        if value not in (NEGATIVE_LABEL, POSITIVE_LABEL):
            raise CsvFormatError(f"{path}:{lineno}: label must be -1 or 1, got {label!r}")
        labels.append(value)
    return LabeledSample(scores, labels)


def read_score_csv(path: str) -> ScoreSample:
    """Read an unlabeled sample from a ``score`` CSV file."""
    rows = _data_rows(path, _SCORE_HEADER)
    return ScoreSample(scores=[_parse_score(score, path, lineno) for lineno, (score,) in rows])


def write_labeled_csv(sample: LabeledSample, path: str, comment: str | None = None) -> None:
    """Write a labeled sample; floats use shortest round-trip notation."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if comment:
            handle.write(f"# {comment}\n")
        handle.write(_LABELED_HEADER + "\n")
        for score, label in zip(sample.scores().tolist(), sample.labels().tolist()):
            handle.write(f"{score!r},{label}\n")


def write_score_csv(sample: ScoreSample, path: str, comment: str | None = None) -> None:
    """Write an unlabeled sample; floats use shortest round-trip notation."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if comment:
            handle.write(f"# {comment}\n")
        handle.write(_SCORE_HEADER + "\n")
        for score in sample.scores.tolist():
            handle.write(f"{score!r}\n")
