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
A byte that is not UTF-8 counts as a fault of its line.

Python reads and checks the lines up to the header of every file.  One
numpy call converts every line below it in a regular file, reading the
file by its path.  A stream such as a pipe, and a file with ``#`` or
whitespace-only lines below its header or a fault, are read from the line
below the header a chunk of lines at a time through a line filter, which
skips the lines ``_read_indices`` skips and names the first faulty line.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
import stat
import sys
import threading
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
    "classify_and_count",
    "quantify_sample",
    "fit_binormal",
    "read_labeled_csv",
    "write_labeled_csv",
    "read_score_csv",
    "write_score_csv",
    "read_train_and_target",
]

RNG_ALGORITHM = "numpy-pcg64, ndtri inverse-cdf scores"

POSITIVE_LABEL = 1
NEGATIVE_LABEL = -1


class CsvFormatError(ValueError):
    """A score file does not follow the documented CSV format."""


def _is_label(labels) -> np.ndarray:
    """Whether each of ``labels`` is -1 or 1, elementwise."""
    return (labels == NEGATIVE_LABEL) | (labels == POSITIVE_LABEL)


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
        if not (valid := _is_label(labels)).all():
            raise ValueError(f"labels must be -1 or 1, got {labels[np.argmin(valid)].item()!r}")
        self._scores = scores
        self._labels = labels.astype(np.int8)
        self._labels.flags.writeable = False

    def __reduce__(self):  # unpickle through the constructor, so the arrays stay read-only
        return LabeledSample, (self._scores, self._labels)

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
    # The positive mask as int8 0/1 picks each class mean and label without a
    # branch per record.  The scores are the published sum, added in the other
    # order, so they keep their bits.
    positive = (u_label < model.p).view(np.int8)
    scores = std_normal_quantile(u_score)
    scores *= model.sigma
    scores += np.array([model.mu, model.nu])[positive]
    return LabeledSample(scores, positive * 2 - 1)


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
    flagged = classifier.predicts_positive(sample.scores())
    tpr = float(np.count_nonzero(flagged & positive)) / n_pos
    fpr = float(np.count_nonzero(flagged & ~positive)) / n_neg
    return Rates(tpr=tpr, fpr=fpr)


def classify_and_count(target: ScoreSample, classifier: ThresholdClassifier) -> float:
    """Classify & Count: the share of the sample the rule flags positive, where a score
    equal to the threshold counts as negative, as in ``estimate_rates``."""
    return float(np.count_nonzero(classifier.predicts_positive(target.scores))) / target.n


def quantify_sample(
    target: ScoreSample, classifier: ThresholdClassifier, rates: Rates
) -> QuantificationEstimate:
    """Estimate the positive prevalence of an unlabeled sample.

    ``classify_and_count`` gives the raw estimate; the supplied rates
    (empirical or model-exact) drive the count adjustment.  Propagates
    ``DegenerateClassifierError`` when the rates carry no signal.
    """
    return adjusted_count(classify_and_count(target, classifier), rates)


def fit_binormal(sample: LabeledSample) -> BinormalModel:
    """Fit the equal-variance two-normal model to a labeled sample.

    Class means from per-class averages, common sigma from the pooled
    within-class variance, prior from the positive fraction.  Requires
    both classes present and enough spread for a positive sigma.
    """
    positive, n_pos, _ = _class_split(sample, "model fitting")
    scores = sample.scores()
    pos, neg = scores.compress(positive), scores.compress(~positive)
    nu, mu = float(np.mean(pos)), float(np.mean(neg))
    pooled_ss = float(np.sum((pos - nu) ** 2)) + float(np.sum((neg - mu) ** 2))
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
_WRITE_ROWS = 1 << 14  # the writer hands its target this many lines per write call
# read_train_and_target reads its target in a forked child only from this size on.  The
# fork costs about 6 ms whatever the size, and on a 2-vCPU host forking and reading in
# process break even for targets of 256-350 KiB next to a train file of the same length,
# each file converted whole by numpy (medians of 41-61 alternating pairs per size).
_FORK_MIN_BYTES = 1 << 18
# Per field: its numpy type in a chunk and on one faulty line (labels as any int64 there,
# so that 300 fails the value test and not the syntax), the value test and its fault.
_FIELDS = {"score": ("f8", "f8", np.isfinite, "non-finite score"),
           "label": ("i1", "i8", _is_label, "label must be -1 or 1, got")}
_loadtxt = functools.partial(np.loadtxt, delimiter=",", comments=None, ndmin=1)
# np.loadtxt opens a path with one of these endings through a decompressor and fetches a
# path with a URL scheme, so the line filter reads such a file as the text it holds.
_NUMPY_OPENS_OTHERWISE = (".gz", ".bz2", ".xz", ".lzma")


def _sound_rows(source, dtype: np.dtype, **options) -> np.ndarray | None:
    """The rows numpy converts from ``source``, a list of lines or a path read with
    ``options``, or None if one fails to convert (a byte that is not UTF-8 included) or a
    value its test."""
    try:
        rows = _loadtxt(source, dtype=dtype, **options)
    except ValueError:
        return None
    return rows if all(_FIELDS[name][2](rows[name]).all() for name in dtype.names) else None


def _decode_fault(line: str) -> str | None:
    """The decoding error of a line read with ``errors="surrogateescape"``, its position
    counted from the start of the line, or None if every byte of the line is UTF-8."""
    if line.isascii():
        return None
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)
    return None


def _line_fault(raw: str, names: list[str]) -> str:
    """What is wrong with one faulty data line as read: a byte that is not UTF-8, its
    field count, or the first field whose syntax or value fails when numpy reads that
    field alone."""
    if fault := _decode_fault(raw):
        return fault
    line = raw.strip()
    tokens = line.split(",")
    if len(tokens) != len(names):
        return f"expected {len(names)} field{'s' if len(names) > 1 else ''}, got {len(tokens)}"
    for column, (name, token) in enumerate(zip(names, tokens)):
        _, dtype, test, fault = _FIELDS[name]
        try:
            value = _loadtxt([line], dtype=dtype, usecols=column)
        except ValueError:
            # numpy rejects an ASCII integer beyond int64 as it rejects bad syntax, but
            # only the label's value is at fault; numpy strips the whitespace str.strip does
            if name == "label" and re.fullmatch(r"[+-]?[0-9]+", token.strip()):
                return f"{fault} {token!r}"
            return f"invalid {name} {token!r}"
        if not test(value).all():
            return f"{fault} {token!r}"


def _read_indices(lines: list[str]) -> list[int]:
    """The indices of the stripped ``lines`` that are read: a blank line or ``#`` comment
    is skipped, unless it holds a byte that is not UTF-8, which makes it a faulty line."""
    return [n for n, line in enumerate(lines) if line and (line[0] != "#" or _decode_fault(line))]


def _head_lines(handle, path: str, header: str) -> int:
    """Read the lines of ``handle`` up to the header, the first stripped line that
    ``_read_indices`` reads, and check it; return how many lines there are."""
    head = 0
    while raw := handle.readline():
        head += 1
        if _read_indices([line := raw.strip()]):
            if line != header:
                fault = _decode_fault(raw) or f"expected header {header!r}, got {line!r}"
                raise CsvFormatError(f"{path}:{head}: {fault}")
            return head
    raise CsvFormatError(f"{path}: missing {header!r} header")


def _whole_body(handle, path: str, head: int, dtype: np.dtype) -> np.ndarray | None:
    """The rows below the ``head`` lines of the seekable file open as ``handle``,
    converted by one numpy call that reads the file again by its path, or None if the
    line filter must read them.  A comment or a whitespace-only line below the header, a
    faulty line and a byte that is not UTF-8 all fail that call.  A body of empty lines
    alone never reaches numpy, which would warn that it holds no data."""
    while (raw := handle.readline()).isspace():
        pass
    if not raw:
        return None
    handle.seek(0)  # numpy reads from the start even where its open shares this offset
    return _sound_rows(path, dtype, skiprows=head, encoding="utf-8-sig")


def _data_rows(path: str, header: str) -> np.ndarray:
    """Every data row below ``header``, with a field per header name.  ``_head_lines``
    reads and checks the lines up to the header, once for every file.  The lines below
    it in a seekable file go to numpy whole, through ``_whole_body``.  A stream, such as
    a pipe, or a file that one call cannot convert is read from the line below the header
    a chunk of lines at a time.  numpy converts each chunk as read, field count included,
    and Python filters a chunk only when numpy rejects it: it strips the lines, keeps
    those ``_read_indices`` reads and hands them to numpy.  Comments,
    whitespace-only lines and faulty lines all fail numpy's conversion, so they always
    reach the filter.  A byte that is not UTF-8 is read as a lone surrogate (U+DC80 to
    U+DCFF), which numpy never converts and the filter keeps, comment or not, so it
    makes its line faulty.  A faulty chunk is bisected, so the first faulty line in
    file order raises ``CsvFormatError``."""
    names = header.split(",")
    dtype = np.dtype([(name, _FIELDS[name][0]) for name in names])
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        head = _head_lines(handle, path, header)
        if handle.seekable() and not ("://" in path or path.endswith(_NUMPY_OPENS_OTHERWISE)):
            body = handle.tell()
            if (rows := _whole_body(handle, path, head, dtype)) is not None:
                return rows
            handle.seek(body)
        lineno, parts = head + 1, []
        # readlines splits only on "\n" after newline translation; str.splitlines
        # would also split on "\x0c", "\x1c" or "\x85" inside a line.  A chunk of
        # empty lines alone goes to the filter, as numpy warns on input with no rows.
        while chunk := handle.readlines(_CHUNK_CHARS):
            first, lineno = lineno, lineno + len(chunk)
            if any(map("\n".__ne__, chunk)) and (rows := _sound_rows(chunk, dtype)) is not None:
                parts.append(rows)
                continue
            lines = list(map(str.strip, chunk))
            kept = _read_indices(lines)
            lines = [lines[n] for n in kept]
            rows = _sound_rows(lines, dtype) if lines else np.empty(0, dtype)
            lo, hi = 0, len(lines)  # bisect: lines[:lo] are sound, lines[:hi] are not
            while rows is None and hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if _sound_rows(lines[lo:mid], dtype) is None else (mid, hi)
            if rows is None:
                n = kept[lo]
                raise CsvFormatError(f"{path}:{first + n}: {_line_fault(chunk[n], names)}")
            parts.append(rows)
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


def read_train_and_target(train_path: str, target_path: str) -> tuple[LabeledSample, ScoreSample]:
    """Read a labeled train file and an unlabeled target file, as ``read_labeled_csv``
    and ``read_score_csv`` do: the target in a forked child while this process reads the
    train file, where the target is a regular file of at least ``_FORK_MIN_BYTES``, the
    platform can fork and this process runs one thread (forking a threaded process can
    deadlock).  Otherwise, or when the fork fails, both are read here, one after the
    other: a smaller file reads faster than a fork costs, and a pipe or FIFO target may
    be the train file's own stream, where two readers of one stream would split its lines
    between them.

    Either way the train file's error wins, as in a sequential read.  The child sends
    back only the sample, through a pipe, and exits non-zero on any failure without
    writing to stdout or stderr.  On that exit this process reads the target itself, so
    the same error comes out in file order.
    """
    try:
        info = os.stat(target_path)
        large = stat.S_ISREG(info.st_mode) and info.st_size >= _FORK_MIN_BYTES
    except OSError:  # reading the target raises it again, in file order
        large = False
    pid = -1  # no child: this process reads both files
    if large and hasattr(os, "fork") and threading.active_count() == 1:
        import pickle
        import signal
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
    if pid < 0:
        return read_labeled_csv(train_path), read_score_csv(target_path)
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            sample = read_score_csv(target_path)
            with open(write_end, "wb") as pipe:
                pipe.write(pickle.dumps(sample, protocol=pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)  # runs no atexit handler and flushes no inherited buffer
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            train = read_labeled_csv(train_path)
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return train, read_score_csv(target_path)
    return train, pickle.loads(data)


def write_labeled_csv(sample: LabeledSample, path: str, comment: str | None = None) -> None:
    """Write a labeled sample; floats use shortest round-trip notation."""
    _write_csv(path, comment, _LABELED_HEADER.split(","), [sample.scores(), sample.labels()])


def write_score_csv(sample: ScoreSample, path: str, comment: str | None = None) -> None:
    """Write an unlabeled sample; floats use shortest round-trip notation."""
    _write_csv(path, comment, [_SCORE_HEADER], [sample.scores])


def _write_csv(path: str | None, comment: str | None, header: list[str], columns) -> None:
    """Write the CSV text of a sample file or a command's artifact to ``path``, or to
    stdout when ``path`` is None.

    The text is a ``# comment`` line (none when ``comment`` is None or empty), the
    ``header`` line and one line per row of ``columns``, equal-length columns in
    ``header`` order.  A column of ``str`` (the ``optimize`` row names) is written as
    is; any other goes through one ``np.asarray(column).tolist()`` and each value is
    written as its ``repr``: a label as its digits, a float as the shortest text that
    reads back as the same float, so every file round-trips bit for bit.

    The lines are joined and written in blocks of ``_WRITE_ROWS``, one write call
    each: far fewer calls than one per line, while a sample file never holds all its
    text in memory at once.
    """
    cells = [column if isinstance(column[0], str) else map(repr, np.asarray(column).tolist())
             for column in columns]
    head = [f"# {comment}", ",".join(header)] if comment else [",".join(header)]
    lines = itertools.chain(head, map(",".join, zip(*cells)))
    blocks = iter(lambda: list(itertools.islice(lines, _WRITE_ROWS)), [])
    text = ("\n".join(block) + "\n" for block in blocks)
    if path is None:
        sys.stdout.writelines(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(text)
