"""Finite-sample workflows: seeded score generation, rate estimation and
file-based prevalence estimation.

Sampling is reproducible from the seed alone.  The generator is numpy's
PCG64 (see ``RNG_ALGORITHM``); each record consumes one uniform draw for
the class label and one for the score, and scores are
``where(positive, nu, mu) + sigma * scipy.special.ndtri(u)`` over the
second stream.  A reimplementation that matches the uniform stream
therefore matches the samples bit for bit.

CSV formats, both with UTF-8 text, LF line endings and plain decimal
numbers:

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


@dataclass(frozen=True)
class LabeledSample:
    """Finite labeled sample: (score, label) records with labels -1 or 1."""

    records: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        records = tuple((float(s), int(l)) for s, l in self.records)
        object.__setattr__(self, "records", records)
        if not records:
            raise ValueError("sample must contain at least one record")
        for score, label in records:
            if not math.isfinite(score):
                raise ValueError(f"scores must be finite, got {score!r}")
            if label not in (NEGATIVE_LABEL, POSITIVE_LABEL):
                raise ValueError(f"labels must be -1 or 1, got {label!r}")

    @property
    def n(self) -> int:
        return len(self.records)

    def scores(self) -> np.ndarray:
        return np.array([s for s, _ in self.records])

    def labels(self) -> np.ndarray:
        return np.array([l for _, l in self.records])


@dataclass(frozen=True)
class ScoreSample:
    """Finite unlabeled sample of scores."""

    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        scores = tuple(float(s) for s in self.scores)
        object.__setattr__(self, "scores", scores)
        if not scores:
            raise ValueError("sample must contain at least one score")
        for score in scores:
            if not math.isfinite(score):
                raise ValueError(f"scores must be finite, got {score!r}")

    @property
    def n(self) -> int:
        return len(self.scores)

    def scores_array(self) -> np.ndarray:
        return np.array(self.scores)


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
    return LabeledSample(records=tuple(zip(scores.tolist(), labels.tolist())))


def estimate_rates(sample: LabeledSample, classifier: ThresholdClassifier) -> Rates:
    """Empirical error-rate pair of a cut-point rule on a labeled sample.

    Scores equal to the threshold count as negative predictions, matching
    the strict inequality of the rule.  Requires both classes present.
    """
    scores = sample.scores()
    labels = sample.labels()
    positive = labels == POSITIVE_LABEL
    n_pos = int(np.count_nonzero(positive))
    n_neg = sample.n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("rate estimation needs at least one record of each class")
    flagged = scores > classifier.threshold
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
    flagged = target.scores_array() > classifier.threshold
    return float(np.count_nonzero(flagged)) / target.n


def fit_binormal(sample: LabeledSample) -> BinormalModel:
    """Fit the equal-variance two-normal model to a labeled sample.

    Class means from per-class averages, common sigma from the pooled
    within-class variance, prior from the positive fraction.  Requires
    both classes present and enough spread for a positive sigma.
    """
    scores = sample.scores()
    labels = sample.labels()
    positive = labels == POSITIVE_LABEL
    n_pos = int(np.count_nonzero(positive))
    n_neg = sample.n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("model fitting needs at least one record of each class")
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


def _data_lines(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                yield lineno, line
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: {exc}") from None


def read_labeled_csv(path: str) -> LabeledSample:
    """Read a labeled sample from a ``score,label`` CSV file."""
    records: list[tuple[float, int]] = []
    header_seen = False
    for lineno, line in _data_lines(path):
        if not header_seen:
            if line != _LABELED_HEADER:
                raise CsvFormatError(
                    f"{path}:{lineno}: expected header {_LABELED_HEADER!r}, got {line!r}"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise CsvFormatError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        score = _parse_score(parts[0], path, lineno)
        try:
            label = int(parts[1])
        except ValueError:
            raise CsvFormatError(f"{path}:{lineno}: invalid label {parts[1]!r}") from None
        if label not in (NEGATIVE_LABEL, POSITIVE_LABEL):
            raise CsvFormatError(f"{path}:{lineno}: label must be -1 or 1, got {parts[1]!r}")
        records.append((score, label))
    if not header_seen:
        raise CsvFormatError(f"{path}: missing {_LABELED_HEADER!r} header")
    if not records:
        raise CsvFormatError(f"{path}: no data rows")
    return LabeledSample(records=tuple(records))


def read_score_csv(path: str) -> ScoreSample:
    """Read an unlabeled sample from a ``score`` CSV file."""
    scores: list[float] = []
    header_seen = False
    for lineno, line in _data_lines(path):
        if not header_seen:
            if line != _SCORE_HEADER:
                raise CsvFormatError(
                    f"{path}:{lineno}: expected header {_SCORE_HEADER!r}, got {line!r}"
                )
            header_seen = True
            continue
        if "," in line:
            raise CsvFormatError(f"{path}:{lineno}: expected 1 field, got {line.count(',') + 1}")
        scores.append(_parse_score(line, path, lineno))
    if not header_seen:
        raise CsvFormatError(f"{path}: missing {_SCORE_HEADER!r} header")
    if not scores:
        raise CsvFormatError(f"{path}: no data rows")
    return ScoreSample(scores=tuple(scores))


def write_labeled_csv(sample: LabeledSample, path: str, comment: str | None = None) -> None:
    """Write a labeled sample; floats use shortest round-trip notation."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if comment:
            handle.write(f"# {comment}\n")
        handle.write(_LABELED_HEADER + "\n")
        for score, label in sample.records:
            handle.write(f"{score!r},{label}\n")


def write_score_csv(sample: ScoreSample, path: str, comment: str | None = None) -> None:
    """Write an unlabeled sample; floats use shortest round-trip notation."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if comment:
            handle.write(f"# {comment}\n")
        handle.write(_SCORE_HEADER + "\n")
        for score in sample.scores:
            handle.write(f"{score!r}\n")
