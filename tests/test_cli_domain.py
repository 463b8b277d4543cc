"""The analytic commands over the whole model, beta and cost domain.

Models are drawn with sigma from 1e-12 to 1e8, separations d = (nu - mu) / sigma
from 1e-3 to 40, offsets mu up to 1e8 in size and priors from the smallest
subnormal float, 5e-324, to the largest float below 1; betas and the two costs of
``optimize`` run from 1e-150 to 1e150.  With every warning turned into an error, a
run of ``optimize``, ``figure-error``, ``figure-qcurve`` or ``quantify --rule`` with
the model flags must exit 0 with no ``nan`` in its output, or exit 1 with an
``error: --flag`` line that names the flag at fault (a subnormal prior, a drawn nu
that rounds onto mu, or a cut-point beyond the float range), and never exit 2 or
raise.  The search is derandomized, so every run of the suite tries the same models.
"""

import contextlib
import io
import math
import traceback
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from binquant.binormal import BinormalModel
from binquant.cli import EXIT_OK, EXIT_USAGE, main
from binquant.empirical import ScoreSample, sample_binormal, write_labeled_csv, write_score_csv

_P_MIN = 5e-324  # the smallest subnormal float
_P_MAX = 1.0 - 2.0 ** -53  # the largest float below 1


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# Priors spread in log10 p toward 0 and in log10 (1 - p) toward 1, ends included.
_PRIORS = st.one_of(
    _log_uniform(math.log10(_P_MIN), -0.3),
    st.floats(-16.0, -0.3).map(lambda e: min(1.0 - 10.0 ** e, _P_MAX)),
    st.sampled_from([_P_MIN, 1e-300, _P_MAX]),
)
_SIGMAS = _log_uniform(-12.0, 8.0)
_SEPARATIONS = _log_uniform(-3.0, math.log10(40.0))
_OFFSETS = st.floats(-1e8, 1e8)
_COMMANDS = [["optimize"], ["figure-error", "--grid", "33"], ["figure-qcurve", "--grid", "33"]]


def _run(argv: list[str]) -> tuple[object, str, str]:
    """Exit code, stdout and stderr of one in-process run under warnings as errors;
    an escaped exception is recorded in stderr as its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except Exception:
            err.write(traceback.format_exc())
            code = None
    return code, out.getvalue(), err.getvalue()


def _model_flags(sigma: float, d: float, mu: float, p: float) -> list[str]:
    return [f"--mu={mu!r}", f"--nu={mu + d * sigma!r}", f"--sigma={sigma!r}", f"--p={p!r}"]


def _check_run(argv: list[str]) -> None:
    code, out, err = _run(argv)
    assert code in (EXIT_OK, EXIT_USAGE), (code, err)
    if code == EXIT_OK:
        assert "nan" not in out, out
    else:
        assert any(line.startswith("error: --") for line in err.splitlines()), err


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(_COMMANDS), sigma=_SIGMAS, d=_SEPARATIONS, mu=_OFFSETS,
       p=_PRIORS, beta=_log_uniform(-150.0, 150.0))
# The F search once reached a cut flagging mass 0 and reported F = 0 / 0 = nan.
@example(command=["optimize"], sigma=1.0, d=0.003869, mu=0.0, p=2.36e-33, beta=4.67e-149)
# The far end of the Q search once rounded to mass 1 and raised a math domain error.
@example(command=["optimize"], sigma=1.0, d=2.0, mu=0.0, p=_P_MAX, beta=1e-15)
# A subnormal prior once divided by zero in the posterior cut or failed in its log.
@example(command=["figure-error", "--grid", "33"], sigma=1.0, d=0.1, mu=0.0, p=1e-312,
         beta=1.0)
def test_analytic_commands_end_cleanly(command, sigma, d, mu, p, beta):
    _check_run([*command, *_model_flags(sigma, d, mu, p), f"--beta={beta!r}"])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sigma=_SIGMAS, d=_SEPARATIONS, mu=_OFFSETS, p=_PRIORS,
       cost_fn=_log_uniform(-150.0, 150.0), cost_fp=_log_uniform(-150.0, 150.0))
# The odds ratio of this Bayes cut once overflowed to inf and was reported as an
# infinite threshold, though the cut lies at z = 364.8.
@example(sigma=1.0, d=2.0, mu=0.0, p=1e-300, cost_fn=1.0, cost_fp=9e15)
def test_optimize_over_costs_ends_cleanly(sigma, d, mu, p, cost_fn, cost_fp):
    _check_run(["optimize", *_model_flags(sigma, d, mu, p), f"--cost-fn={cost_fn!r}",
                f"--cost-fp={cost_fp!r}"])


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory):
    """A 200-row labeled train file and score-only target."""
    root = tmp_path_factory.mktemp("domain")
    sample = sample_binormal(BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.25), 200, seed=5)
    write_labeled_csv(sample, str(root / "train.csv"))
    write_score_csv(ScoreSample(scores=sample.scores()), str(root / "target.csv"))
    return str(root / "train.csv"), str(root / "target.csv")


# --method cc: a cut set by the flags may lie outside the sample, where the rates are
# rightly too close for the adjusted count, a data error.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rule=st.sampled_from(["minimax", "locally-best", "q-optimal"]), sigma=_SIGMAS,
       d=_SEPARATIONS, mu=_OFFSETS, p=_PRIORS, beta=_log_uniform(-150.0, 150.0))
# A locally best cut at +inf was once a data error, raised after reading both files.
@example(rule="locally-best", sigma=1e308, d=3e-308, mu=-3.0, p=1e-10, beta=1.0)
def test_quantify_rule_ends_cleanly(sample_files, rule, sigma, d, mu, p, beta):
    betas = [f"--beta={beta!r}"] if rule == "q-optimal" else []
    _check_run(["quantify", *sample_files, "--rule", rule, "--method", "cc",
                *_model_flags(sigma, d, mu, p), *betas])
