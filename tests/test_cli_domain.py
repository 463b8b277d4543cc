"""The analytic commands over the whole model and beta domain.

Models are drawn with sigma from 1e-12 to 1e8, separations d = (nu - mu) / sigma
from 1e-3 to 40, offsets mu up to 1e8 in size and priors from 1e-300 to the
largest float below 1; betas run from 1e-150 to 1e150.  With every warning
turned into an error, a run of ``optimize``, ``figure-error`` or
``figure-qcurve`` must exit 0 with no ``nan`` in its output, or exit 1 with an
``error:`` line (a drawn nu can round onto mu), and never exit 2 or raise.  The
search is derandomized, so every run of the suite tries the same models.
"""

import contextlib
import io
import math
import traceback
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from binquant.cli import EXIT_OK, EXIT_USAGE, main

_P_MAX = 1.0 - 2.0 ** -53  # the largest float below 1


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# Priors spread in log10 p toward 0 and in log10 (1 - p) toward 1, ends included.
_PRIORS = st.one_of(
    _log_uniform(-300.0, -0.3),
    st.floats(-16.0, -0.3).map(lambda e: min(1.0 - 10.0 ** e, _P_MAX)),
    st.sampled_from([1e-300, _P_MAX]),
)
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


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(_COMMANDS), sigma=_log_uniform(-12.0, 8.0),
       d=_log_uniform(-3.0, math.log10(40.0)), mu=st.floats(-1e8, 1e8), p=_PRIORS,
       beta=_log_uniform(-150.0, 150.0))
# The F search once reached a cut flagging mass 0 and reported F = 0 / 0 = nan.
@example(command=["optimize"], sigma=1.0, d=0.003869, mu=0.0, p=2.36e-33, beta=4.67e-149)
# The far end of the Q search once rounded to mass 1 and raised a math domain error.
@example(command=["optimize"], sigma=1.0, d=2.0, mu=0.0, p=_P_MAX, beta=1e-15)
def test_analytic_commands_end_cleanly(command, sigma, d, mu, p, beta):
    argv = [*command, f"--mu={mu!r}", f"--nu={mu + d * sigma!r}", f"--sigma={sigma!r}",
            f"--p={p!r}", f"--beta={beta!r}"]
    code, out, err = _run(argv)
    assert code in (EXIT_OK, EXIT_USAGE), (code, err)
    if code == EXIT_OK:
        assert "nan" not in out, out
    else:
        assert any(line.startswith("error: ") for line in err.splitlines()), err
