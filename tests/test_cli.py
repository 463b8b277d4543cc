"""End-to-end command checks: artifacts, reports, exit codes.

Commands run in-process through ``main(argv)``; files go to pytest tmp
directories.  Determinism assertions compare bytes, not parsed values.
"""

import hashlib
import io
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from binquant import cli, discrete_oracle, empirical
from binquant.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from binquant.empirical import (RNG_ALGORITHM, LabeledSample, ScoreSample, write_labeled_csv,
                                write_score_csv)
from binquant.binormal import BinormalModel, ThresholdClassifier
from binquant.empirical import (estimate_rates, quantify_sample, read_labeled_csv, read_score_csv,
                                sample_binormal)
from binquant.metrics import QConfig, prediction_error
from binquant.quantifiers import (locally_best_classifier, minimax_classifier, q_measure_of_mass,
                                  q_optimal_classifier)


def _read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True, comments="#", skip_header=1)


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory):
    """Labeled training file (prior 0.25) and score-only target (prior 0.6)."""
    root = tmp_path_factory.mktemp("samples")
    train_model = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.25)
    target_model = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.6)
    train = sample_binormal(train_model, 4000, seed=5)
    target = sample_binormal(target_model, 4000, seed=11)
    train_path = str(root / "train.csv")
    target_path = str(root / "target.csv")
    write_labeled_csv(train, train_path, comment=f"{RNG_ALGORITHM}; seed=5 p=0.25")
    write_score_csv(
        ScoreSample(scores=target.scores()),
        target_path,
        comment=f"{RNG_ALGORITHM}; seed=11 p=0.6",
    )
    return train_path, target_path


class TestQcurveFigure:
    def test_byte_identical_reruns(self, tmp_path):
        p1 = str(tmp_path / "a.csv")
        p2 = str(tmp_path / "b.csv")
        assert main(["figure-qcurve", "--out", p1]) == EXIT_OK
        assert main(["figure-qcurve", "--out", p2]) == EXIT_OK
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_header_comment_carries_parameters(self, tmp_path):
        path = str(tmp_path / "q.csv")
        main(["figure-qcurve", "--out", path])
        with open(path) as handle:
            first = handle.readline()
        assert first.startswith("# ")
        for token in ("mu=0", "nu=2", "sigma=1", "p=0.25", "beta=1,2", "nas=nas-star"):
            assert token in first

    def test_default_curve_maxima(self, tmp_path):
        path = str(tmp_path / "q.csv")
        main(["figure-qcurve", "--out", path])
        data = _read_csv(path)
        assert data.dtype.names == ("u", "q_beta_1", "q_beta_2")
        assert data["u"][np.argmax(data["q_beta_2"])] == 0.25
        assert data["u"][np.argmax(data["q_beta_1"])] > 0.25

    def test_values_stay_in_unit_interval(self, tmp_path):
        path = str(tmp_path / "q.csv")
        main(["figure-qcurve", "--out", path, "--beta", "0.5"])
        data = _read_csv(path)
        assert np.all(data["q_beta_05"] >= 0.0)
        assert np.all(data["q_beta_05"] <= 1.0)

    def test_prior_mass_row_inserted_on_coarse_grids(self, tmp_path):
        # 100 grid points skip u = 0.25, so the row must be added.
        path = str(tmp_path / "q.csv")
        main(["figure-qcurve", "--out", path, "--grid", "100"])
        data = _read_csv(path)
        assert len(data["u"]) == 101
        assert np.any(data["u"] == 0.25)

    def test_custom_model_flags(self, tmp_path):
        path = str(tmp_path / "q.csv")
        assert main(
            ["figure-qcurve", "--out", path, "--mu", "-1", "--nu", "1", "--sigma", "2", "--p", "0.4"]
        ) == EXIT_OK
        data = _read_csv(path)
        assert np.any(data["u"] == 0.4)


class TestErrorFigure:
    def test_zero_crossings_of_reference_rules(self, tmp_path):
        path = str(tmp_path / "err.csv")
        assert main(["figure-error", "--out", path]) == EXIT_OK
        data = _read_csv(path)
        assert data.dtype.names == ("w", "err_qopt", "err_minimax", "err_locallybest")
        at = lambda col, w: data[col][np.argmin(np.abs(data["w"] - w))]
        assert at("err_minimax", 0.5) <= 1e-9
        assert at("err_locallybest", 0.25) <= 1e-9

    def test_curves_are_v_shaped(self, tmp_path):
        path = str(tmp_path / "err.csv")
        main(["figure-error", "--out", path])
        data = _read_csv(path)
        for col in ("err_qopt", "err_minimax", "err_locallybest"):
            diffs = np.diff(data[col])
            signs = np.sign(diffs[np.abs(diffs) > 1e-13])
            changes = int(np.sum(np.diff(signs) != 0))
            assert changes == 1, col

    def test_qopt_curve_tracks_minimax(self, tmp_path):
        """The two error curves stay close over the whole prior range
        (observed maximum gap just under 0.015 for the defaults)."""
        path = str(tmp_path / "err.csv")
        main(["figure-error", "--out", path])
        data = _read_csv(path)
        gap = float(np.max(np.abs(data["err_qopt"] - data["err_minimax"])))
        assert gap <= 0.02


class TestOptimize:
    def test_stdout_report(self, capsys):
        assert main(["optimize"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("bayes", "minimax", "locally_best", "q_optimal_beta=1", "f_optimal_beta=2"):
            assert name in out
        minimax_row = next(line for line in out.splitlines() if line.startswith("minimax"))
        assert "1.000000" in minimax_row

    def test_csv_report(self, tmp_path):
        path = str(tmp_path / "opt.csv")
        assert main(["optimize", "--out", path]) == EXIT_OK
        rows = Path(path).read_text().splitlines()
        assert rows[1] == "name,threshold,u_star,tpr,fpr,objective"
        lb = next(r for r in rows if r.startswith("locally_best"))
        assert lb.split(",")[1].startswith("1.35957314")

    def test_costs_shape_the_bayes_row(self, capsys):
        main(["optimize", "--cost-fn", "4", "--cost-fp", "1"])
        cheap_misses = capsys.readouterr().out
        main(["optimize", "--cost-fn", "1", "--cost-fp", "4"])
        dear_misses = capsys.readouterr().out
        row = lambda text: next(l for l in text.splitlines() if l.startswith("bayes"))
        t_cheap = float(row(cheap_misses).split()[1])
        t_dear = float(row(dear_misses).split()[1])
        assert t_cheap < t_dear

    def test_zero_cost_is_a_usage_error(self, capsys):
        assert main(["optimize", "--cost-fn", "0", "--cost-fp", "0"]) == EXIT_USAGE

    def test_comment_keeps_every_digit(self, tmp_path):
        """Six significant digits wrote nu=1e+06 for 1000002 and cost-fp=1 for 1.0000001."""
        path = tmp_path / "opt.csv"
        argv = ["optimize", "--mu", "1e6", "--nu", "1000002", "--cost-fp", "1.0000001"]
        assert main([*argv, "--out", str(path)]) == EXIT_OK
        assert path.read_text().splitlines()[0] == (
            "# binquant optimize mu=1e+06 nu=1000002.0 sigma=1 p=0.25 beta=1,2 nas=nas-star "
            "cost-fn=1 cost-fp=1.0000001")

    def test_close_betas_name_their_own_rows_and_columns(self, tmp_path, capsys):
        """Six significant digits named both betas 1, in two rows each and two columns."""
        betas = ["--beta", "1", "--beta", "1.0000001"]
        assert main(["optimize", *betas]) == EXIT_OK
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert names[-4:] == ["q_optimal_beta=1", "q_optimal_beta=1.0000001",
                              "f_optimal_beta=1", "f_optimal_beta=1.0000001"]
        path = tmp_path / "q.csv"
        assert main(["figure-qcurve", *betas, "--grid", "2", "--out", str(path)]) == EXIT_OK
        assert path.read_text().splitlines()[:2] == [
            "# binquant figure-qcurve mu=0 nu=2 sigma=1 p=0.25 beta=1,1.0000001 nas=nas-star "
            "grid=2", "u,q_beta_1,q_beta_1.0000001"]


class TestQuantify:
    def test_named_rule_recovers_shifted_prior(self, sample_files, capsys):
        train, target = sample_files
        assert main(["quantify", train, target, "--rule", "locally-best"]) == EXIT_OK
        out = capsys.readouterr().out
        ac = float(next(l for l in out.splitlines() if l.startswith("ac=")).split()[0][3:])
        assert abs(ac - 0.6) < 0.05

    def test_explicit_threshold(self, sample_files, capsys):
        train, target = sample_files
        assert main(["quantify", train, target, "--threshold", "1.0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "threshold=1.0" in out
        assert "cc=" in out and "ac=" in out

    def test_cc_method_skips_adjustment(self, sample_files, capsys):
        train, target = sample_files
        assert main(["quantify", train, target, "--threshold", "1.0", "--method", "cc"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cc=" in out
        assert "ac=" not in out

    @pytest.mark.parametrize("method", ["ac", "cc"])
    def test_cut_without_signal(self, method, sample_files, capsys):
        """A cut above every score has tpr = fpr = 0.  The count adjustment then fails
        after the threshold and rate lines, before the cc line; --method cc runs."""
        train, target = sample_files
        code = main(["quantify", train, target, "--threshold", "1e9", "--method", method])
        out, err = capsys.readouterr()
        lines = f"threshold=1000000000.0\ntpr=0.0 fpr=0.0 (estimated from {train})\n"
        if method == "ac":
            assert (code, out) == (EXIT_DATA, lines)
            assert err == ("error: tpr and fpr agree to within 1e-12; "
                           "flagged counts carry no prevalence signal\n")
        else:
            assert (code, out, err) == (EXIT_OK, f"{lines}cc=0.0\n", "")

    def test_target_equal_to_train_scores(self, sample_files, tmp_path, capsys):
        train, _ = sample_files
        from binquant.empirical import read_labeled_csv

        sample = read_labeled_csv(train)
        same = str(tmp_path / "same.csv")
        write_score_csv(ScoreSample(scores=sample.scores()), same)
        main(["quantify", train, same, "--threshold", "1.0", "--method", "cc"])
        out = capsys.readouterr().out
        cc = float(next(l for l in out.splitlines() if l.startswith("cc=")).split("=")[1])
        expected = float(np.mean(sample.scores() > 1.0))
        assert cc == expected

    def test_rule_and_threshold_conflict(self, sample_files):
        train, target = sample_files
        code = main(["quantify", train, target, "--threshold", "1.0", "--rule", "minimax"])
        assert code == EXIT_USAGE

    def test_missing_rule_and_threshold(self, sample_files):
        train, target = sample_files
        assert main(["quantify", train, target]) == EXIT_USAGE

    def test_partial_model_flags_rejected(self, sample_files):
        train, target = sample_files
        code = main(["quantify", train, target, "--rule", "minimax", "--mu", "0.0"])
        assert code == EXIT_USAGE

    def test_byte_order_mark_accepted(self, sample_files, tmp_path, capsys):
        """Files that start with a UTF-8 BOM give the same estimates."""
        with_bom = []
        for source, name in zip(sample_files, ("train.csv", "target.csv")):
            path = tmp_path / name
            path.write_bytes(b"\xef\xbb\xbf" + Path(source).read_bytes())
            with_bom.append(str(path))
        assert main(["quantify", *sample_files, "--rule", "locally-best"]) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(["quantify", *with_bom, "--rule", "locally-best"]) == EXIT_OK
        assert capsys.readouterr().out.replace(with_bom[0], sample_files[0]) == plain

    def test_parse_error_exits_with_data_code(self, sample_files, tmp_path):
        _, target = sample_files
        bad = tmp_path / "bad.csv"
        bad.write_text("score,label\noops,1\n")
        assert main(["quantify", str(bad), target, "--threshold", "1.0"]) == EXIT_DATA


class TestQuantifyFlagsFirst:
    """Every ``quantify`` flag is checked before a file is read."""

    @pytest.mark.parametrize("flags", [
        ["--rule", "minimax", "--mu", "0"],
        ["--rule", "minimax", "--mu", "0", "--nu", "2", "--sigma", "-1", "--p", "0.5"],
        ["--threshold", "inf"],
        ["--threshold", "1", "--p", "0.5"],
    ])
    def test_flag_errors_win_over_missing_files(self, tmp_path, flags, capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["quantify", missing, missing, *flags]) == EXIT_USAGE
        assert missing not in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--mu", "--nu", "--sigma", "--p"])
    def test_model_flags_with_threshold_are_a_usage_error(self, sample_files, flag, capsys):
        assert main(["quantify", *sample_files, "--threshold", "1", flag, "0.5"]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: give none of --mu/--nu/--sigma/--p with "
                                           "--threshold (they set the model of --rule)\n")

    @pytest.mark.parametrize("flags, used", [
        (["--threshold", "1", "--beta", "3"], "--threshold"),
        (["--threshold", "1", "--beta", "3", "--nas", "nas"], "--threshold"),
        (["--threshold", "1", "--nas", "nas-star"], "--threshold"),
        (["--rule", "minimax", "--beta", "3"], "--rule minimax"),
        (["--rule", "locally-best", "--nas", "nas"], "--rule locally-best"),
    ])
    def test_measure_flags_without_q_optimal_are_a_usage_error(self, tmp_path, flags, used,
                                                               capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["quantify", missing, missing, *flags]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: give neither --beta nor --nas with {used} "
                                           "(they set the measure of --rule q-optimal)\n")

    def test_invalid_beta_wins_over_the_unused_flag(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["quantify", missing, missing, "--rule", "minimax", "--beta", "0"]) == EXIT_USAGE
        assert "beta must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("betas", [("1", "3"), ("3", "1"), ("2", "2")])
    def test_repeated_beta_with_q_optimal_is_a_usage_error(self, sample_files, tmp_path, betas,
                                                           capsys):
        """Each order once gave the threshold of its first --beta and dropped the rest."""
        flags = ["--rule", "q-optimal", *(arg for beta in betas for arg in ("--beta", beta))]
        missing = str(tmp_path / "missing.csv")
        for files in (sample_files, (missing, missing)):
            assert main(["quantify", *files, *flags]) == EXIT_USAGE
            assert capsys.readouterr() == ("", "error: --rule q-optimal takes one --beta, got 2\n")

    def test_q_optimal_reads_both_flags(self, sample_files, capsys):
        base = ["quantify", *sample_files, "--rule", "q-optimal"]
        assert main(base) == EXIT_OK
        default = capsys.readouterr().out
        assert main([*base, "--nas", "nas-star", "--beta", "1"]) == EXIT_OK
        assert capsys.readouterr().out == default
        assert main([*base, "--nas", "nas", "--beta", "3"]) == EXIT_OK
        assert capsys.readouterr().out != default


@pytest.fixture(scope="module")
def large_files(tmp_path_factory):
    """Train and target files of about 1.5 MiB each, so each spans two read chunks."""
    root = tmp_path_factory.mktemp("large")
    train = sample_binormal(BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.25), 70_000, seed=21)
    target = sample_binormal(BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.6), 70_000, seed=22)
    paths = str(root / "train.csv"), str(root / "target.csv")
    write_labeled_csv(train, paths[0])
    write_score_csv(ScoreSample(scores=target.scores()), paths[1])
    assert min(map(os.path.getsize, paths)) > 1 << 20
    return paths


def _with_fault(tmp_path, source: str, line: int, text: str) -> str:
    """A copy of ``source`` with its line ``line`` (1-based) replaced by ``text``."""
    lines = Path(source).read_text().splitlines()
    lines[line - 1] = text
    path = tmp_path / f"faulty-{Path(source).name}"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestConcurrentRead:
    """``quantify`` reads a regular target file of at least ``_FORK_MIN_BYTES`` in a
    forked child while it reads the train file.  Results and errors match a sequential
    read, the child writes nothing and no child is left behind."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _expected(train_path: str, target_path: str) -> str:
        classifier = ThresholdClassifier(1.0)
        rates = estimate_rates(read_labeled_csv(train_path), classifier)
        estimate = quantify_sample(read_score_csv(target_path), classifier, rates)
        return (f"threshold=1.0\n"
                f"tpr={rates.tpr!r} fpr={rates.fpr!r} (estimated from {train_path})\n"
                f"cc={estimate.cc!r}\nac={estimate.ac!r} ac_clamped={estimate.ac_clamped!r}\n")

    def test_stdout_matches_a_sequential_read(self, large_files, capfd):
        assert main(["quantify", *large_files, "--threshold", "1.0"]) == EXIT_OK
        assert capfd.readouterr() == (self._expected(*large_files), "")

    @pytest.mark.parametrize("flags", [["--threshold", "1.0"], ["--rule", "locally-best"]])
    def test_in_process_read_gives_the_same_stdout(self, large_files, flags, monkeypatch, capfd):
        assert main(["quantify", *large_files, *flags]) == EXIT_OK
        forked = capfd.readouterr()
        monkeypatch.delattr(os, "fork")
        assert main(["quantify", *large_files, *flags]) == EXIT_OK
        assert capfd.readouterr() == forked

    def test_large_target_is_forked(self, large_files, monkeypatch, capfd):
        forks = []
        real_fork = os.fork

        def counted_fork():
            pid = real_fork()
            forks.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", counted_fork)
        assert main(["quantify", *large_files, "--threshold", "1.0"]) == EXIT_OK
        assert len(forks) == 1 and forks[0] > 0
        assert capfd.readouterr() == (self._expected(*large_files), "")

    def test_small_target_is_read_in_process(self, sample_files, monkeypatch, capfd):
        """A fork costs more than reading a file below the size gate."""
        assert os.path.getsize(sample_files[1]) < empirical._FORK_MIN_BYTES

        def fork():
            raise AssertionError(f"forked to read a {os.path.getsize(sample_files[1])}-byte file")
        monkeypatch.setattr(os, "fork", fork)
        assert main(["quantify", *sample_files, "--threshold", "1.0"]) == EXIT_OK
        assert capfd.readouterr() == (self._expected(*sample_files), "")

    def test_failed_fork_reads_in_process(self, large_files, monkeypatch, capfd):
        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", fork)
        assert main(["quantify", *large_files, "--threshold", "1.0"]) == EXIT_OK
        assert capfd.readouterr() == (self._expected(*large_files), "")

    def test_no_fork_while_other_threads_run(self, large_files, monkeypatch, capfd):
        def fork():
            raise AssertionError("forked a process that runs two threads")
        monkeypatch.setattr(os, "fork", fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert main(["quantify", *large_files, "--threshold", "1.0"]) == EXIT_OK
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert capfd.readouterr() == (self._expected(*large_files), "")

    def test_child_without_reply_reads_in_process(self, large_files, monkeypatch, capfd):
        parent = os.getpid()

        def read_score_csv_or_die(path):
            if os.getpid() != parent:
                os._exit(1)
            return read_score_csv(path)
        monkeypatch.setattr(empirical, "read_score_csv", read_score_csv_or_die)
        assert main(["quantify", *large_files, "--threshold", "1.0"]) == EXIT_OK
        assert capfd.readouterr() == (self._expected(*large_files), "")

    @pytest.mark.parametrize("train_line, target_line", [(60_000, 2), (2, 65_000)])
    def test_train_error_wins_over_target_error(self, large_files, tmp_path, capfd,
                                                train_line, target_line):
        """Whichever read fails first, the train file's error is reported."""
        train = _with_fault(tmp_path, large_files[0], train_line, "1.0,7")
        target = _with_fault(tmp_path, large_files[1], target_line, "abc")
        assert main(["quantify", train, target, "--threshold", "1.0"]) == EXIT_DATA
        assert capfd.readouterr() == (
            "", f"error: {train}:{train_line}: label must be -1 or 1, got '7'\n")

    def test_target_error_past_the_first_mebibyte(self, large_files, tmp_path, capfd):
        target = _with_fault(tmp_path, large_files[1], 65_000, "1.5x")
        assert main(["quantify", large_files[0], target, "--threshold", "1.0"]) == EXIT_DATA
        assert capfd.readouterr() == ("", f"error: {target}:65000: invalid score '1.5x'\n")

    @staticmethod
    def _quantify_stdin(train: str, data: bytes) -> subprocess.CompletedProcess:
        """``quantify train /dev/stdin`` in a fresh interpreter, with ``data`` piped in."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "binquant.cli", "quantify", train, "/dev/stdin",
                "--threshold", "1.0"]
        return subprocess.run(argv, input=data, capture_output=True, env=env, timeout=60)

    def test_pipe_target_matches_the_file(self, large_files):
        proc = self._quantify_stdin(large_files[0], Path(large_files[1]).read_bytes())
        assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (
            EXIT_OK, self._expected(*large_files), b"")

    def test_one_pipe_for_both_files_gives_one_message(self, large_files):
        """A pipe target is read after the train file, in this process, so when both
        paths name the one pipe the train read takes every line, and the target read
        meets the pipe's end on every run."""
        data = Path(large_files[0]).read_bytes()
        runs = [self._quantify_stdin("/dev/stdin", data) for _ in range(4)]
        assert {(proc.returncode, proc.stdout, proc.stderr) for proc in runs} == {
            (EXIT_DATA, b"", b"error: /dev/stdin: missing 'score' header\n")}

    def test_missing_target_names_the_path(self, large_files, tmp_path, capfd):
        missing = str(tmp_path / "missing.csv")
        assert main(["quantify", large_files[0], missing, "--threshold", "1.0"]) == EXIT_DATA
        out, err = capfd.readouterr()
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


class TestOracle:
    def test_small_run_passes(self, capsys):
        assert main(["oracle", "--trials", "3", "--max-atoms", "8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "violations=0" in out

    def test_reproducible_report(self, capsys):
        main(["oracle", "--trials", "2", "--seed", "42"])
        first = capsys.readouterr().out
        main(["oracle", "--trials", "2", "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second

    def test_atom_bound_enforced(self):
        assert main(["oracle", "--max-atoms", "21"]) == EXIT_USAGE
        assert main(["oracle", "--max-atoms", "1"]) == EXIT_USAGE

    def test_stray_arithmetic_error_is_a_data_error(self, monkeypatch, capsys):
        def overflow(rng, n_atoms, tied=False):
            raise OverflowError("result too large")

        monkeypatch.setattr(cli, "random_population", overflow)
        assert main(["oracle", "--trials", "1"]) == EXIT_DATA
        assert capsys.readouterr() == ("", "error: result too large\n")

    def test_population_failure_is_a_data_error(self, monkeypatch, capsys):
        def give_up(rng, n_atoms, tied=False):
            raise RuntimeError("could not separate atom posteriors")

        monkeypatch.setattr(cli, "random_population", give_up)
        assert main(["oracle", "--trials", "1"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "could not separate atom posteriors" in err

    def test_violations_are_reported_line_by_line(self, monkeypatch, capsys):
        """A negative tolerance fails every check, so each kind prints its line."""
        monkeypatch.setattr(discrete_oracle, "_VERDICT_TOL", -1.0)
        argv = ["oracle", "--trials", "1", "--max-atoms", "2", "--beta", "1"]
        assert main(argv) == EXIT_VIOLATION
        distinct = ("atoms=[[0.3748898678414097, 0.2806167400881057], "
                    "[0.22555066079295155, 0.11894273127753303]]")
        tied = ("atoms=[[0.22767857142857142, 0.27232142857142855], "
                "[0.22767857142857142, 0.27232142857142855]]")
        assert capsys.readouterr().out == f"""\
oracle: trials=1 max-atoms=2 seed=0 beta=1
violation: trial=0 distinct fbeta beta=1: brute=0.7503440682631435 threshold=0.7503440682631435 {distinct}
violation: trial=0 distinct local-bayes cut=0.3031120176783564: cut_cost=0.03285533153195286 best=0.03285533153195286 {distinct}
violation: trial=0 distinct local-bayes cut=0.9212994307615885: cut_cost=0.07799624695762779 best=0.07799624695762779 {distinct}
violation: trial=0 distinct minimax: brute=0.6243580337490828 threshold=0.6243580337490828 {distinct}
violation: trial=0 tied fbeta beta=1: brute=0.6257668711656442 threshold=0.6257668711656442 {tied}
violation: trial=0 tied local-bayes cut=0.4924621688980286: cut_cost=0.5054777267967527 best=0.5054777267967527 {tied}
violation: trial=0 tied local-bayes cut=0.6474464615551975: cut_cost=0.5054777267967527 best=0.5054777267967527 {tied}
violation: trial=0 tied minimax: brute=0.5 threshold=0.9999999999999998 {tied}
oracle: checks=8 violations=8
"""

    def test_trials_must_be_positive(self):
        assert main(["oracle", "--trials", "0"]) == EXIT_USAGE

    def test_seed_must_not_be_negative(self, capsys):
        assert main(["oracle", "--seed", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --seed must be at least 0\n"


class TestUsageErrors:
    def test_unknown_flag(self):
        assert main(["figure-qcurve", "--bogus"]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_invalid_model_parameters(self):
        assert main(["figure-qcurve", "--p", "1.5"]) == EXIT_USAGE
        assert main(["figure-qcurve", "--sigma", "-1"]) == EXIT_USAGE
        assert main(["figure-qcurve", "--mu", "3", "--nu", "0"]) == EXIT_USAGE

    def test_invalid_beta(self):
        assert main(["figure-qcurve", "--beta", "0"]) == EXIT_USAGE

    def test_invalid_grid(self):
        assert main(["figure-qcurve", "--grid", "1"]) == EXIT_USAGE


README_OPTIMIZE_TABLE = """\
name                       threshold        u_star           tpr           fpr     objective
bayes                       1.549306      0.213964      0.673895      0.060654      0.127017
minimax                     1.000000      0.329328      0.841345      0.158655      0.158655
locally_best                1.359573      0.250000      0.739052      0.086983      0.260948
q_optimal_beta=1            1.059664      0.315106      0.826477      0.144649      0.867674
q_optimal_beta=2            1.359573      0.250000      0.739052      0.086983      0.934041
f_optimal_beta=1            1.283374      0.265560      0.763198      0.099681      0.740164
f_optimal_beta=2            0.721919      0.401227      0.899390      0.235172      0.802324
"""


class TestOptimizeReadmeExample:
    def test_stdout_matches_readme_table(self, capsys):
        assert main(["optimize"]) == EXIT_OK
        assert capsys.readouterr().out == README_OPTIMIZE_TABLE

    def test_long_cells_stay_apart(self, capsys):
        """A 22-character name and a 15-character threshold once ran together."""
        assert main(["optimize", "--mu=-1e7", "--nu=-9999998", "--beta", "1.5e-15"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[4] == ("q_optimal_beta=1.5e-15 -10000005.950903      1.000000      "
                            "1.000000      1.000000      1.000000")
        assert lines[3] == ("locally_best          -9999998.640427      0.250000      "
                            "0.739052      0.086983      0.260948")
        assert all(len(line.split()) == 6 for line in lines)

    @pytest.mark.parametrize("flag", ["--cost-fn", "--cost-fp"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_cost_is_a_usage_error(self, flag, value, capsys):
        assert main(["optimize", flag, value]) == EXIT_USAGE
        assert "costs must be finite" in capsys.readouterr().err


class TestCsvWriter:
    """The one CSV writer, of the commands and the sample files, takes columns and
    writes each float as its ``repr`` and each label as its digits."""

    def test_string_column_passes_through(self, tmp_path):
        path = tmp_path / "t.csv"
        empirical._write_csv(str(path), "note", ["name", "x", "y"],
                             [("a", "b=2"), [1.0, np.float64(0.1)], np.array([-0.0, 1e-300])])
        assert path.read_text() == "# note\nname,x,y\na,1.0,-0.0\nb=2,0.1,1e-300\n"

    def test_one_row(self, capsys):
        empirical._write_csv(None, "c", ["u", "q"], [np.array([0.5]), [1 / 3]])
        assert capsys.readouterr().out == f"# c\nu,q\n0.5,{1 / 3!r}\n"

    @staticmethod
    def _row_by_row(comment, header, columns) -> str:
        """The writer's text built one line at a time: the reference of the block writes."""
        lines = [f"# {comment}"] if comment else []
        lines.append(",".join(header))
        rows = zip(*(np.asarray(column).tolist() for column in columns))
        lines += [",".join(map(repr, row)) for row in rows]
        return "".join(line + "\n" for line in lines)

    @staticmethod
    def _sample_columns(rows: int) -> list:
        rng = np.random.default_rng(rows)
        scores = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        scores[::7] = -0.0
        return [scores, np.where(rng.random(rows) < 0.5, -1, 1)]

    B = empirical._WRITE_ROWS

    @pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("comment", ["c", None])
    def test_blocks_match_a_row_by_row_write(self, rows, comment, tmp_path, capsys):
        columns = self._sample_columns(rows)
        expected = self._row_by_row(comment, ["score", "label"], columns)
        path = tmp_path / "b.csv"
        empirical._write_csv(str(path), comment, ["score", "label"], columns)
        assert path.read_bytes() == expected.encode()
        empirical._write_csv(None, comment, ["score", "label"], columns)
        assert capsys.readouterr().out == expected

    def test_one_write_call_per_block(self, monkeypatch):
        sizes = []

        class CountingStdout(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        columns = self._sample_columns(2 * self.B + 1)
        empirical._write_csv(None, "c", ["score", "label"], columns)
        assert len(sizes) == 3  # 2 B + 3 lines
        assert out.getvalue() == self._row_by_row("c", ["score", "label"], columns)

    def test_labeled_sample_bytes(self, tmp_path):
        path = tmp_path / "l.csv"
        write_labeled_csv(LabeledSample([0.5, -0.0], [1, -1]), str(path), comment="c")
        assert path.read_bytes() == b"# c\nscore,label\n0.5,1\n-0.0,-1\n"

    def test_score_sample_without_comment(self, tmp_path):
        path = tmp_path / "s.csv"
        write_score_csv(ScoreSample(scores=[0.5, 1e-300]), str(path))
        assert path.read_bytes() == b"score\n0.5\n1e-300\n"

    def test_grid_two_error_figure(self, tmp_path):
        path = tmp_path / "e.csv"
        assert main(["figure-error", "--grid", "2", "--out", str(path)]) == EXIT_OK
        model = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.25)
        rules = [q_optimal_classifier(model, QConfig(beta=1.0)), minimax_classifier(model),
                 locally_best_classifier(model)]
        rows = [",".join(repr(float(v)) for v in [w, *(prediction_error(r.rates, w) for r in rules)])
                for w in (0.0, 1.0)]
        assert path.read_text().splitlines()[1:] == ["w,err_qopt,err_minimax,err_locallybest", *rows]

    @pytest.mark.parametrize("argv", [
        ["figure-qcurve", "--grid", "2"],
        ["figure-qcurve", "--beta", "0.5", "--beta", "3", "--nas", "nas", "--p", "0.7"],
        ["figure-error", "--grid", "5"],
    ])
    def test_stdout_equals_out_file(self, argv, tmp_path, capsys):
        path = tmp_path / "f.csv"
        assert main([*argv, "--out", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == path.read_text()

    def test_qcurve_grid_two_rows(self, tmp_path):
        path = tmp_path / "q.csv"
        assert main(["figure-qcurve", "--grid", "2", "--p", "0.3", "--out", str(path)]) == EXIT_OK
        model = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.3)
        lines = path.read_text().splitlines()
        assert lines[1] == "u,q_beta_1,q_beta_2"
        assert lines[2:] == [",".join(repr(float(v)) for v in
                                      [u, q_measure_of_mass(model, u, 1.0),
                                       q_measure_of_mass(model, u, 2.0)])
                             for u in (0.0, 0.3, 1.0)]


# sha256 of the analytic artifacts, recorded with numpy 2.4 and scipy 1.17 on x86-64
# before the CSV writer took columns; figure-qcurve's stdout has its file's digest.
# offset-1e6's were recorded again when its comment came to read nu=1000002.0, not 1e+06.
GOLDEN_MODELS = {
    "readme-default": ["--mu", "0", "--nu", "2", "--sigma", "1", "--p", "0.25"],
    "tiny-sigma": ["--mu", "0", "--nu", "2e-9", "--sigma", "1e-9", "--p", "0.25"],
    "offset-1e6": ["--mu", "1000000", "--nu", "1000002", "--sigma", "1", "--p", "0.25"],
    "p-above-half-nas": ["--mu", "0", "--nu", "2", "--sigma", "1", "--p", "0.7",
                         "--nas", "nas", "--beta", "0.5"],
}
# Further betas of optimize and figure-qcurve.  figure-error takes one --beta, and its
# digest is the one recorded with both, since its comment always named the first alone.
GOLDEN_MORE_BETAS = {"p-above-half-nas": ["--beta", "3"]}
GOLDEN_SHA256 = {
    "readme-default": {
        "optimize": "25240e9b29745b6a9e42f5e5fe4f89d1a71e13b729c43fcf15598d95ab8a3716",
        "figure-qcurve": "24a5d1686ac02f93a5933dcfe7d8ebb8aebf1b467f1838325c4dbfc33744e8a3",
        "figure-error": "291d20f0db7b6cf0dbe5de2dd89f8724f7b92fbf90accade99f6f789a65ed9bb",
    },
    "tiny-sigma": {
        "optimize": "5be528d86d8d4b205a0f17ef3bbd827eb2d66c273b8ae182e6c8f3159ca21903",
        "figure-qcurve": "20ae490b305f084782049bef5f28190f416b7b20783fbef4bf9a2f583a1eb8ab",
        "figure-error": "9604b952356380b4795939544534aae165fc749a31c6f9aba816d2b0356303e3",
    },
    "offset-1e6": {
        "optimize": "d7656c55d5b84f1bf6f18b5c4f09f2fff9287c6c5d27f958fd06b3864258989d",
        "figure-qcurve": "937ade7a3468e1d517acd214219fa69558b39dd3f03f29f5b9d0aee66c85aa2d",
        "figure-error": "0ba491027c34670a49e00bddb6dd0d422c869f83de894c46610bc32837c957db",
    },
    "p-above-half-nas": {
        "optimize": "6c1b325ca39ad75881382b07ddd953783f14708d99f8a8fb676d8df36f825417",
        "figure-qcurve": "5a5d0c776511961eb5bc1f4df206d2aebf7ba762e85032d64625d4bfcf597bf0",
        "figure-error": "d4e47ed2e23ada66586c542e6f4c9b931a06fcc3d3bce9ab23758dabef1fdce2",
    },
}


# sha256 of quantify's stdout with the train path replaced by "TRAIN", recorded with numpy
# 2.4 and scipy 1.17 on x86-64.  sample_files are read in process, large_files through the
# forked target read.
GOLDEN_QUANTIFY_SHA256 = {
    "sample_files": {
        "--threshold 1.0":
            "edd897f15dbdd9961e9090876af038febecd03a56fdcfd9f757d6b725d1f4f8f",
        "--threshold 1.0 --method cc":
            "e028ee13b059e9a480374491af327a3ffac71070c81363b5f984a57836e22b69",
        "--rule locally-best":
            "88fc7149261c88edde201d8b8ae41b0c184d9a0b8af2ebd178399f57a5267669",
        "--rule minimax":
            "c97aad8db6947eba5aa91e73a05086e8356061e855eaacb45b49d9eda16564bf",
        "--rule q-optimal --beta 2 --nas nas":
            "88fc7149261c88edde201d8b8ae41b0c184d9a0b8af2ebd178399f57a5267669",
        "--rule locally-best --mu 0 --nu 2 --sigma 1 --p 0.25":
            "eedcffae1940e2ade30690e012e24731a9919d031047fc96db15fe2b4c1bb17a",
    },
    "large_files": {
        "--threshold 1.0":
            "e2acbb1dfec5d0740720307a16a6a58863a714cc2d063fa0017a606b2d76bd43",
        "--threshold 1.0 --method cc":
            "6e2f2580ab15a6bd58e2a87062e9ac0437d9aa85322af2b1d6f3d2c70cecc387",
        "--rule locally-best":
            "85db9a1c4ac70c8f029c527f84f7c851d04f67c5478deea5b5a2c1ec7321e082",
        "--rule minimax":
            "4563f95cb3673b04785761ceb9a66e7f9c34d6d178b80cd474f0c6d6f38f8abe",
        "--rule q-optimal --beta 2 --nas nas":
            "85db9a1c4ac70c8f029c527f84f7c851d04f67c5478deea5b5a2c1ec7321e082",
        "--rule locally-best --mu 0 --nu 2 --sigma 1 --p 0.25":
            "ba9657edcf6daf61e6058e642ed270ff6bb0400e4c1db78d9cd7616cdffdf144",
    },
}


class TestGoldenOutput:
    """The artifacts stay byte for byte what they were.  Another numpy or scipy
    release may move a last digit of ``ndtr`` or ``log``, so the digests are
    compared only under the releases that recorded them."""

    @pytest.fixture(autouse=True)
    def _recorded_releases(self):
        import scipy
        releases = tuple(".".join(v.split(".")[:2]) for v in (np.__version__, scipy.__version__))
        if releases != ("2.4", "1.17"):
            pytest.skip(f"digests recorded with numpy 2.4 and scipy 1.17, not {releases}")

    @pytest.mark.parametrize("name", GOLDEN_MODELS)
    def test_artifacts_match_recorded_digests(self, name, tmp_path, capsys):
        flags = [*GOLDEN_MODELS[name], *GOLDEN_MORE_BETAS.get(name, [])]
        for command, digest in GOLDEN_SHA256[name].items():
            path = tmp_path / f"{command}.csv"
            argv = [command, *(GOLDEN_MODELS[name] if command == "figure-error" else flags)]
            assert main([*argv, "--out", str(path)]) == EXIT_OK
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, command
        assert main(["figure-qcurve", *flags]) == EXIT_OK
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == GOLDEN_SHA256[name]["figure-qcurve"]

    @pytest.mark.parametrize("flags, digest", [
        ("--trials 20 --max-atoms 20 --seed 0",
         "9058fb53450a33a5fa2292fdea7571d546ac9936d85130294781b914f590ec3d"),
        ("--trials 200 --max-atoms 12 --seed 1",
         "014700696ad22c8e8b7867249e0a18a2f101645bd89927a202e5e0c5b6613d05"),
    ])
    def test_oracle_stdout_matches_recorded_digest(self, flags, digest, capsys):
        assert main(["oracle", *flags.split()]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("files, flags", [(files, flags)
                                              for files, runs in GOLDEN_QUANTIFY_SHA256.items()
                                              for flags in runs])
    def test_quantify_stdout_matches_recorded_digest(self, files, flags, request, capsys):
        train, target = request.getfixturevalue(files)
        assert main(["quantify", train, target, *flags.split()]) == EXIT_OK
        stdout = capsys.readouterr().out.replace(train, "TRAIN").encode()
        digest = hashlib.sha256(stdout).hexdigest()
        assert digest == GOLDEN_QUANTIFY_SHA256[files][flags], digest


class TestFileErrors:
    def test_missing_train_file(self, sample_files, tmp_path, capsys):
        _, target = sample_files
        missing = str(tmp_path / "missing.csv")
        assert main(["quantify", missing, target, "--threshold", "1"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err

    def test_unwritable_out_path(self, tmp_path, capsys):
        out = str(tmp_path / "no" / "such" / "x.csv")
        assert main(["optimize", "--out", out]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err

    def test_invalid_utf8_target_names_the_file(self, sample_files, tmp_path, capsys):
        train, _ = sample_files
        bad = tmp_path / "target.csv"
        bad.write_bytes(b"score\n1.0\n\xff\n")
        assert main(["quantify", train, str(bad), "--threshold", "1"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:3: ") and "utf-8" in err


_BAYES_BEYOND_FLOATS = ("--mu/--nu/--sigma/--p/--cost-fn/--cost-fp: cannot build the "
                        "cost-optimal classifier: threshold must be finite, got inf")
_RULE_BEYOND_FLOATS = ("--mu/--nu/--sigma/--p: cannot build the --rule locally-best cut: "
                       "threshold must be finite, got inf")


class TestFlagSet:
    @pytest.mark.parametrize("command", ["figure-qcurve", "optimize", "quantify", "oracle"])
    @pytest.mark.parametrize("beta", ["inf", "nan"])
    def test_invalid_beta_is_a_usage_error(self, command, beta, sample_files, capsys):
        argv = [command, "--beta", beta]
        if command == "quantify":
            argv[1:1] = [*sample_files, "--threshold", "1"]
        assert main(argv) == EXIT_USAGE
        assert "beta must be finite and positive" in capsys.readouterr().err

    @staticmethod
    def _beta_argv(command: str, beta: str, sample_files) -> list[str]:
        flags = {"figure-qcurve": ["--grid", "11"], "figure-error": ["--grid", "11"],
                 "optimize": [], "oracle": ["--trials", "2", "--max-atoms", "6"],
                 "quantify": [*sample_files, "--rule", "q-optimal", "--method", "cc"]}[command]
        return [command, *flags, "--beta", beta]

    @pytest.mark.parametrize("command", ["figure-qcurve", "figure-error", "optimize",
                                         "quantify", "oracle"])
    @pytest.mark.parametrize("beta, square", [("1e200", "inf"), ("1e-200", "0.0"),
                                              ("2e-162", "5e-324"), ("1e-155", "1e-310")])
    def test_beta_with_a_square_out_of_range_is_a_usage_error(self, command, beta, square,
                                                              sample_files, capsys):
        """Such a beta once wrote nan into the Q column or failed with a data error."""
        assert main(self._beta_argv(command, beta, sample_files)) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: --beta: beta^2 must be a normal positive "
                                           f"float, got {float(beta)!r} ** 2 = {square}\n")

    @pytest.mark.parametrize("command", ["figure-qcurve", "figure-error", "optimize",
                                         "quantify", "oracle"])
    @pytest.mark.parametrize("beta", ["1.3e154", "1.5e-154"])
    def test_beta_with_a_square_near_the_float_range_runs(self, command, beta, sample_files,
                                                          capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(self._beta_argv(command, beta, sample_files)) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["optimize", "--nu", "12", "--p", "0.9", "--beta", "1e-20"],
        ["optimize", "--beta", "1e-100", "--p", "1e-300"],
        ["optimize", "--nu", "0.003869", "--p", "2.36e-33", "--beta", "4.67e-149"],
        ["optimize", "--p", "0.9999999999999999", "--beta", "1e-15"],
        ["optimize", "--p", "1e-300", "--cost-fn", "1", "--cost-fp", "9e15"],
        ["optimize", "--cost-fn", "1e-16", "--cost-fp", "1"],
        ["figure-error", "--nu", "0.1", "--p", "2.2250738585072014e-308"],
    ])
    def test_extreme_model_and_beta_run(self, argv, capsys):
        """The F search once divided by zero at a posterior cut of 1 and printed F = nan
        at a cut flagging mass 0; the Q search took the log of beta^2 p after it
        underflowed to 0, and of 0 where its far mass (p + 1) / 2 rounded to 1.  The
        Bayes cut's odds ratio overflowed to an infinite threshold, a cost ratio beyond
        2^53 was taken for a free miss, and the smallest normal prior failed in a log."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and "nan" not in out

    @pytest.mark.parametrize("command", ["optimize", "figure-error", "figure-qcurve", "quantify"])
    @pytest.mark.parametrize("flags, message", [
        (["--p", "5e-324"], "--p: positive prior must be a normal float, got 5e-324"),
        (["--p", "1e-312"], "--p: positive prior must be a normal float, got 1e-312"),
        (["--p", "1"], "--p: positive prior must lie in (0, 1), got 1.0"),
        (["--mu=1e8", "--nu=1e8", "--sigma", "1e-12"],
         "--mu/--nu: negative-class mean must lie below positive-class mean, "
         "got mu=100000000.0, nu=100000000.0"),
        (["--mu", "nan"], "--mu/--nu: component means must be finite, got mu=nan, nu=2.0"),
        (["--sigma", "0"], "--sigma: sigma must be positive, got 0.0"),
        (["--nu", "1e-300", "--sigma", "1e300"],
         "--mu/--nu/--sigma: separation (nu - mu) / sigma must be a finite normal float, "
         "got 0.0 from mu=0.0, nu=1e-300, sigma=1e+300"),
        (["--nu", "1e300", "--sigma", "1e-300"],
         "--mu/--nu/--sigma: separation (nu - mu) / sigma must be a finite normal float, "
         "got inf from mu=0.0, nu=1e+300, sigma=1e-300"),
    ])
    def test_model_flag_errors_name_their_flag(self, command, flags, message, sample_files,
                                               capsys):
        """A subnormal prior once raised ZeroDivisionError or a math domain error, and a
        model error named neither the flag nor, for a non-finite mean, the value.  A
        separation that underflowed to 0 once raised ZeroDivisionError in the Bayes cut,
        and an infinite one was reported as a fault of the cost-optimal classifier."""
        argv = [command]
        if command == "quantify":
            argv += [*sample_files, "--rule", "minimax", "--mu", "0", "--nu", "2", "--sigma", "1",
                     "--p", "0.25"]
        assert main([*argv, *flags]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["optimize", "--cost-fn", "nan"], "--cost-fn/--cost-fp: costs must be finite"),
        (["optimize", "--cost-fn", "0", "--cost-fp", "1"],
         "--cost-fn/--cost-fp: misses cost nothing; predicting all negative is optimal"),
        (["quantify", "--threshold", "inf"], "--threshold: threshold must be finite, got inf"),
        (["optimize", "--nu=1e280", "--sigma=1e300"], _BAYES_BEYOND_FLOATS),
        (["optimize", "--nu", "2.2250738585072014e-308", "--p", "1e-300"], _BAYES_BEYOND_FLOATS),
        (["optimize", "--mu=-3", "--nu=1e-308", "--sigma=1e200", "--p=0.5"],
         "--mu/--nu/--sigma/--p/--beta: cannot build the f_optimal_beta=1 row: "
         "threshold must be finite, got -inf"),
        (["figure-error", "--mu=-3", "--nu=0", "--sigma=1e308", "--p=1e-10", "--grid", "5"],
         "--mu/--nu/--sigma/--p: cannot build the err_locallybest column: "
         "threshold must be finite, got inf"),
        (["quantify", "--rule", "locally-best", "--mu=-3", "--nu=0", "--sigma=1e308",
          "--p=1e-10"], _RULE_BEYOND_FLOATS),
        (["quantify", "no-such-dir/train.csv", "no-such-dir/target.csv", "--rule",
          "locally-best", "--mu=-3", "--nu=0", "--sigma=1e308", "--p=1e-10"],
         _RULE_BEYOND_FLOATS),
        (["quantify", "--rule", "q-optimal", "--mu=-3", "--nu=0", "--sigma=1e308",
          "--p=0.9999999"], "--mu/--nu/--sigma/--p/--beta: cannot build the --rule q-optimal "
         "cut: threshold must be finite, got -inf"),
    ])
    def test_cost_and_threshold_errors_name_their_flag(self, argv, message, sample_files,
                                                       capsys):
        """Such errors once named no flag, among them a cut-point beyond the float range:
        the Bayes row's, and an F-optimal row's or a locally best column's, which once
        exited 2.  A --rule cut set by the model flags once exited 2 too, after reading
        both files, or on the first that was missing; it is now checked before either."""
        if argv[0] == "quantify" and argv[1].startswith("--"):  # the sample files go first
            argv = [argv[0], *sample_files, *argv[1:]]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("betas", [("3", "5"), ("5", "3"), ("1", "1")])
    def test_repeated_beta_with_figure_error_is_a_usage_error(self, betas, tmp_path, capsys):
        """figure-error once wrote the figure of its first --beta and dropped the rest."""
        path = tmp_path / "e.csv"
        flags = [arg for beta in betas for arg in ("--beta", beta)]
        assert main(["figure-error", *flags, "--out", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: figure-error takes one --beta, got 2\n")
        assert not path.exists()
        assert main(["figure-error", "--beta", betas[0], "--out", str(path)]) == EXIT_OK
        assert f" beta={betas[0]} " in path.read_text().splitlines()[0]

    @pytest.mark.parametrize("argv", [
        ["figure-qcurve", "--seed", "1"],
        ["figure-error", "--seed", "1"],
        ["optimize", "--seed", "1"],
        ["optimize", "--grid", "11"],
    ])
    def test_unread_flags_are_gone(self, argv):
        assert main(argv) == EXIT_USAGE


class TestSolveCounts:
    """Each command builds one model and solves its anchors once: the mass-p cut-point,
    both the locally best cut and the Q kink, and the far end of the Q search.
    ``figure-qcurve`` solves its whole grid in one call."""

    @pytest.mark.parametrize("argv", [
        ["optimize"],
        ["optimize", "--beta", "0.5", "--beta", "1", "--beta", "2", "--beta", "3"],
        ["figure-error"],
    ])
    def test_two_scalar_solves(self, argv, mass_solves, tmp_path):
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_OK
        assert mass_solves == [1, 1]

    def test_qcurve_solves_its_grid_once(self, mass_solves, tmp_path):
        path = tmp_path / "q.csv"
        assert main(["figure-qcurve", "--grid", "101", "--out", str(path)]) == EXIT_OK
        rows = len(path.read_text().splitlines()) - 2
        assert mass_solves == [rows - 2]  # every u but 0 and 1


class TestParserReuse:
    """``build_parser`` is cached, so all ``main`` calls in a process share one
    parser; each call must still behave as if it ran alone."""

    SEQUENCES = {
        "beta-then-defaults": [
            ["oracle", "--trials", "2", "--max-atoms", "5", "--beta", "0.5", "--beta", "3"],
            ["oracle", "--trials", "2", "--max-atoms", "5"],
            ["optimize", "--beta", "3", "--beta", "4"],
            ["optimize"],
        ],
        "usage-error-then-valid": [
            ["oracle", "--bogus"],
            ["oracle", "--trials", "0"],
            ["oracle", "--trials", "2", "--max-atoms", "5"],
        ],
    }

    @staticmethod
    def _run(argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_calls_in_a_row_match_single_calls(self, name, capsys):
        sequence = self.SEQUENCES[name]
        alone = []
        for argv in sequence:
            cli.build_parser.cache_clear()  # a fresh parser, as in a new process
            alone.append(self._run(argv, capsys))
        cli.build_parser.cache_clear()
        in_a_row = [self._run(argv, capsys) for argv in sequence]
        assert cli.build_parser.cache_info().currsize == 1
        assert in_a_row == alone


class TestStartup:
    def test_scipy_is_imported_only_for_the_normal_model(self, sample_files):
        """In a fresh interpreter, importing the CLI, a ``quantify --threshold`` run
        and an ``oracle`` run leave scipy unimported; a fitted rule imports it."""
        train, target = sample_files
        script = "\n".join([
            "import sys",
            "from binquant.cli import main",
            "loaded = lambda: any(name.split('.')[0] == 'scipy' for name in sys.modules)",
            "assert not loaded(), 'import binquant.cli'",
            f"assert main(['quantify', {train!r}, {target!r}, '--threshold', '1', '--method', 'cc']) == 0",
            "assert not loaded(), 'quantify --threshold'",
            "assert main(['oracle', '--trials', '2', '--max-atoms', '6']) == 0",
            "assert not loaded(), 'oracle'",
            f"assert main(['quantify', {train!r}, {target!r}, '--rule', 'locally-best']) == 0",
            "assert loaded(), 'quantify --rule'",
        ])
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
