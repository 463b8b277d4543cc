"""Finite-sample workflows: seeded score generation, rate estimation and
file-based prevalence estimation.

Sampling is reproducible from the seed alone.  The generator is numpy's
PCG64 (see ``RNG_ALGORITHM``); each record consumes one uniform draw for
the class label and one for the score, and scores are
``where(positive, nu, mu) + sigma * scipy.special.ndtri(u)`` over the
second stream.  A reimplementation that matches the uniform stream
therefore matches the samples bit for bit.

CSV formats, both UTF-8 text (a leading byte-order mark is accepted)
with LF or CRLF line endings and one record per line:

* labeled scores: header ``score,label`` with label -1 (negative) or
  1 (positive);
* bare scores: header ``score``.

Readers skip blank lines and lines starting with ``#``, and numpy's
parser reads the fields, ignoring spaces around them.  A score is an
ASCII decimal such as ``-1.5`` or ``2e-3`` (``nan`` and ``inf`` parse but
are rejected), a label an ASCII integer, so ``+1``, `` -1`` and ``01``
are labels; ``1_0`` and non-ASCII digits are invalid.  The first faulty
line raises ``CsvFormatError`` naming the file, the line and the token.
"""

from __future__ import annotations

import functools
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

    def __reduce__(self):  # unpickle through the constructor, so the array stays read-only
        return ScoreSample, (self.scores,)

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
_CHUNK_CHARS = 1 << 20  # the reader filters and converts about 1 MiB of lines at a time
# Per field: its numpy type in a chunk and on one faulty line (labels as any int64 there,
# so that 300 fails the value test and not the syntax), the value test and its fault.
_FIELDS = {"score": ("f8", "f8", np.isfinite, "non-finite score"),
           "label": ("i1", "i8", lambda label: np.isin(label, (NEGATIVE_LABEL, POSITIVE_LABEL)),
                     "label must be -1 or 1, got")}
_loadtxt = functools.partial(np.loadtxt, delimiter=",", comments=None, ndmin=1)


def _sound_rows(lines: list[str], dtype: np.dtype) -> np.ndarray | None:
    """The lines converted by numpy, or None if one fails to convert or a value its test."""
    try:
        rows = _loadtxt(lines, dtype=dtype)
    except ValueError:
        return None
    return rows if all(_FIELDS[name][2](rows[name]).all() for name in dtype.names) else None


def _line_fault(line: str, names: list[str]) -> str:
    """What is wrong with one faulty data line: its field count, or the first field
    whose syntax or value fails when numpy reads that field alone."""
    tokens = line.split(",")
    if len(tokens) != len(names):
        return f"expected {len(names)} field{'s' if len(names) > 1 else ''}, got {len(tokens)}"
    for column, (name, token) in enumerate(zip(names, tokens)):
        _, dtype, test, fault = _FIELDS[name]
        try:
            value = _loadtxt([line], dtype=dtype, usecols=column)
        except ValueError:
            return f"invalid {name} {token!r}"
        if not test(value).all():
            return f"{fault} {token!r}"


def _data_rows(path: str, header: str) -> np.ndarray:
    """Every data row after ``header``, with a field per header name.  The file is read
    a chunk of lines at a time.  Once the header is seen, numpy converts each chunk as
    read, field count included.  Python filters a chunk only when numpy rejects it or
    the header is still to come: it strips the lines, skips blank lines and ``#``
    comments, checks the header and hands the rest to numpy.  Comments, whitespace-only
    lines and faulty lines all fail numpy's conversion, so they always reach the filter.
    A faulty chunk is bisected, so the first faulty line in file order raises
    ``CsvFormatError``."""
    names = header.split(",")
    dtype = np.dtype([(name, _FIELDS[name][0]) for name in names])
    lineno, header_seen, parts = 1, False, []
    with open(path, encoding="utf-8-sig") as handle:
        try:
            # readlines splits only on "\n" after newline translation; str.splitlines
            # would also split on "\x0c", "\x1c" or "\x85" inside a line.  A chunk of
            # empty lines alone goes to the filter, as numpy warns on input with no rows.
            while chunk := handle.readlines(_CHUNK_CHARS):
                if (header_seen and any(map("\n".__ne__, chunk))
                        and (rows := _sound_rows(chunk, dtype)) is not None):
                    lineno += len(chunk)
                    parts.append(rows)
                    continue
                lines = list(map(str.strip, chunk))
                numbers = [n for n, line in enumerate(lines, lineno) if line and line[0] != "#"]
                if len(numbers) < len(lines):
                    lines = [lines[n - lineno] for n in numbers]
                lineno += len(chunk)
                if lines and not header_seen:
                    if lines[0] != header:
                        raise CsvFormatError(
                            f"{path}:{numbers[0]}: expected header {header!r}, got {lines[0]!r}")
                    header_seen = True
                    del numbers[0], lines[0]
                rows = _sound_rows(lines, dtype) if lines else np.empty(0, dtype)
                lo, hi = 0, len(lines)  # bisect: lines[:lo] are sound, lines[:hi] are not
                while rows is None and hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (lo, mid) if _sound_rows(lines[lo:mid], dtype) is None else (mid, hi)
                if rows is None:
                    raise CsvFormatError(f"{path}:{numbers[lo]}: {_line_fault(lines[lo], names)}")
                parts.append(rows)
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: {exc}") from None
    if not header_seen:
        raise CsvFormatError(f"{path}: missing {header!r} header")
    if not sum(map(len, parts)):
        raise CsvFormatError(f"{path}: no data rows")
    return np.concatenate(parts)


def read_labeled_csv(path: str) -> LabeledSample:
    """Read a labeled sample from a ``score,label`` CSV file."""
    rows = _data_rows(path, _LABELED_HEADER)
    return LabeledSample(rows["score"], rows["label"])


def read_score_csv(path: str) -> ScoreSample:
    """Read an unlabeled sample from a ``score`` CSV file."""
    return ScoreSample(scores=_data_rows(path, _SCORE_HEADER)["score"])


def write_labeled_csv(sample: LabeledSample, path: str, comment: str | None = None) -> None:
    """Write a labeled sample; floats use shortest round-trip notation."""
    rows = zip(sample.scores().tolist(), sample.labels().tolist())
    _write_csv(path, comment, _LABELED_HEADER, (f"{score!r},{label}" for score, label in rows))


def write_score_csv(sample: ScoreSample, path: str, comment: str | None = None) -> None:
    """Write an unlabeled sample; floats use shortest round-trip notation."""
    _write_csv(path, comment, _SCORE_HEADER, map(repr, sample.scores.tolist()))


def _write_csv(path: str, comment: str | None, header: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if comment:
            handle.write(f"# {comment}\n")
        handle.write(header + "\n")
        handle.writelines(line + "\n" for line in lines)
