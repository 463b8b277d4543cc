"""End-to-end command checks: artifacts, reports, exit codes.

Commands run in-process through ``main(argv)``; files go to pytest tmp
directories.  Determinism assertions compare bytes, not parsed values.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from binquant import cli
from binquant.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from binquant.empirical import RNG_ALGORITHM, ScoreSample, write_labeled_csv, write_score_csv
from binquant.binormal import BinormalModel, ThresholdClassifier
from binquant.empirical import (estimate_rates, quantify_sample, read_labeled_csv, read_score_csv,
                                sample_binormal)


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
    """``quantify`` reads the target in a forked child while it reads the train file.
    Results and errors match a sequential read, the child writes nothing and no
    child is left behind."""

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
        monkeypatch.setattr(cli, "read_score_csv", read_score_csv_or_die)
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

    def test_population_failure_is_a_data_error(self, monkeypatch, capsys):
        def give_up(rng, n_atoms, tied=False):
            raise RuntimeError("could not separate atom posteriors")

        monkeypatch.setattr(cli, "random_population", give_up)
        assert main(["oracle", "--trials", "1"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "could not separate atom posteriors" in err

    def test_trials_must_be_positive(self):
        assert main(["oracle", "--trials", "0"]) == EXIT_USAGE


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

    @pytest.mark.parametrize("flag", ["--cost-fn", "--cost-fp"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_cost_is_a_usage_error(self, flag, value, capsys):
        assert main(["optimize", flag, value]) == EXIT_USAGE
        assert "costs must be finite" in capsys.readouterr().err


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
        assert err.startswith(f"error: {bad}: ") and "utf-8" in err


class TestFlagSet:
    @pytest.mark.parametrize("command", ["figure-qcurve", "optimize", "quantify", "oracle"])
    @pytest.mark.parametrize("beta", ["inf", "nan"])
    def test_invalid_beta_is_a_usage_error(self, command, beta, sample_files, capsys):
        argv = [command, "--beta", beta]
        if command == "quantify":
            argv[1:1] = [*sample_files, "--threshold", "1"]
        assert main(argv) == EXIT_USAGE
        assert "beta must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["figure-qcurve", "--seed", "1"],
        ["figure-error", "--seed", "1"],
        ["optimize", "--seed", "1"],
        ["optimize", "--grid", "11"],
    ])
    def test_unread_flags_are_gone(self, argv):
        assert main(argv) == EXIT_USAGE


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
