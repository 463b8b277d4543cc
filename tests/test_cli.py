"""End-to-end command checks: artifacts, reports, exit codes.

Commands run in-process through ``main(argv)``; files go to pytest tmp
directories.  Determinism assertions compare bytes, not parsed values.
"""

from pathlib import Path

import numpy as np
import pytest

from binquant import cli
from binquant.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from binquant.empirical import RNG_ALGORITHM, ScoreSample, write_labeled_csv, write_score_csv
from binquant.binormal import BinormalModel
from binquant.empirical import sample_binormal


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
