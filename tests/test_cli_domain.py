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
Beside that property, 48 seeded models with d <= 6 pin the exit codes, stderr and
``--out`` bytes of the three commands to recorded digests.
"""

import contextlib
import hashlib
import io
import math
import traceback
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np
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


_FIXED_PRIORS = (1e-300, _P_MAX, 1.0 - 1e-10, 1.0 - 1e-9)


def _domain_models() -> list[list[str]]:
    """Model flags of 48 seeded models with d <= 6 across the domain.

    d is log-uniform in [1e-3, 6] and sigma in [1e-12, 1e8]; every third model is
    offset by up to 1e8.  The priors take four families in turn: log-uniform toward 0
    down to 1e-300, toward 1 up to 1 - 2^-53, uniform in [0.01, 0.99], and the fixed
    priors ``_FIXED_PRIORS``, which put the far end of the Q search at 1 - 1e-9, at
    (p + 1) / 2 and at the kink.  Each model takes one beta, log-uniform in
    [1e-16, 100], so that Q still rises at the kink of some priors near 1 and the
    search reaches its far end.  The second half uses ``--nas nas``, where the
    search can return its far end.
    """
    rng = np.random.default_rng(2028)
    models = []
    for i in range(48):
        d = 10.0 ** rng.uniform(-3.0, math.log10(6.0))
        sigma = 10.0 ** rng.uniform(-12.0, 8.0)
        mu = rng.uniform(-1e8, 1e8) if i % 3 == 2 else 0.0
        p = (10.0 ** rng.uniform(-300.0, -0.3),
             min(1.0 - 10.0 ** rng.uniform(-16.0, -0.3), _P_MAX),
             rng.uniform(0.01, 0.99),
             _FIXED_PRIORS[i // 4 % 4])[i % 4]
        beta = 10.0 ** rng.uniform(-16.0, 2.0)
        nas = "nas" if i >= 24 else "nas-star"
        models.append([*_model_flags(float(sigma), float(d), float(mu), float(p)),
                       f"--beta={float(beta)!r}", f"--nas={nas}"])
    return models


_DOMAIN_MODELS = _domain_models()

# sha256 per model of _DOMAIN_MODELS over the exit code, stderr and --out bytes of
# optimize, figure-qcurve and figure-error, recorded with numpy 2.4 and scipy 1.17.
DOMAIN_SHA256 = [
    "9ad6329da1f08f64c1848e61e1f2a88d72e8f7ac32cd0f8ee9dae561041c2a0c",
    "6f794b517d3a92b2fb7a95ef8a888a325cc4ed7ab6b795c889a521f1623cbc53",
    "ff4168f6b9a910951f687c509602e54b5a82372147d1f710b50d2524abe4bcab",
    "e844a73869d039127ac887e6d2c8154752f8fea3fe26c08d2a8fbb951ac9442e",
    "c2d19eaecc98827a2b476de1c267b3c4761c1927b02362e71505109e6683c81a",
    "8cc9dab0bc12a43476798b4f2d4702830cd91ace4b77838666a0e79f23e4fca6",
    "3e3bc3980416f28bc3cbed16c11e8154ff0ec03afca200c13b3abd51562fbbbe",
    "a436f9e22c4d8a98e895f6a2b13eb78c8110c758a1f8a512a960f201c306623d",
    "66864a83509a5ad34da699f0d574d65c91eca41b7cbbe6d513cd8f90f7474990",
    "99969e36845cef3253c577cb78d081387885ee2d18fb84bb6dab8bda06f96ac9",
    "93a7fadf8e2802c1151b11e8714c21b5cfc1f84c009864e546e0e5a90b1842f3",
    "d6ea4600ce5df388830ed208bb20ee7ceb014bcdbfcb0abde33800c1bceba1f6",
    "f75c4e780c81e5bd31d8c7db3080605488320cf90145520b5c6e79a8ae77a1c4",
    "1f1e6c149f4145725c1174df4843304168992e497831296f30a7b08811d5af43",
    "7e8d22231a252d1ed1f91fbb5d24e16e478b3d58a0ee9ac2229485e33d1f45ea",
    "5ac0903b9735df892265b7e2c851d23cbe65f6e39d44230075fb3f0c2025cca8",
    "866cf0c0ab492ea5148a94fdd5c9ec1dd3f716dac809be9f19c760b35f344b6e",
    "b78c68223e7239b3a6b6b13b34db6ac7cc41652d1b3b48b3cd0213038c6580aa",
    "d4b1129b636f78c8d6159bf3dec182336ee5178596812201ec93c0c0ea383933",
    "fdf43850fd8964a2882d281c887b410149a684486508efcf9f9f9ca5c432ab1c",
    "57d28f5c640d77f0ab298ffd87d9b1a052ed74c995fef77aaa6e47b4b132b3ae",
    "f9ae3dca23bebaeafc73fa036eae39d6cdb2d0eded5fe7583679774d2768990e",
    "fa77e2c16bb71e3dd8f84e1a93eb5c033c1a28e11aa7055f01d4c44e3f625cf5",
    "3beb8912b2d54e6d7f0e80ee6c3fced7c9f1cd2a6db4bd874b59a566622de657",
    "4c06c4f64b1f5f4b13ddb92291915492e217473a21cf85a4a77f35df74ac431a",
    "fafc4032f663755900f89026c54be934106df6b6f25dd92acd73ef75424afc7e",
    "f4ea355d5cdf4d83e3c6b7ef3503fe8b9bcebf373bd83b6ff50eda0f361c49c2",
    "e829c58546dd44aa557c4c67cfd1af4cbd040d1d356c87c434feedde8bf4eb6f",
    "36dbbdd664061fb111f42cc3e861d381e8d7794f4d9baf1cec0545bd9e66fb5b",
    "f131233ec36f0a4b1e186fe45e3b8e9a27e89a5f1f9ba7c7d17eaa85bd42b098",
    "b694a64c62c8d77a1be6984d724f024e55b4da3c53e838c50910fb731b1c01d7",
    "a60c1b046cd8e5ced031218c2c0768446e47375e056ce7bcf78d8d07f171244d",
    "720dfee939535baa77193e9d3c74da158e638bd1bdef5787300ae4a3dac2b010",
    "9100f2c3a48aff4a0facce438849e14be826ba583be6b530b6430fb47ea9a09b",
    "9ffb8e8ac7c1db9d62cc77bbf0165eaa9f0b2240b8c1ac9d6eff92653f324e58",
    "90466f4b8a1ddc45807dc7149762162c2cbc4e788c4191f7416e2233d9b55605",
    "3ffc815791ad7c579e5b8460c426268c6a1c95e04dedc03a17421a60065270b7",
    "6193a822ba1e534d0a27fbc2e5537c7eab2d7623d6da6dadbc17d87b12f08e1b",
    "e2158a014b9be9cfcae6d6684b5728ed0628dac4fd62a1f74f5ff124a5663d40",
    "69a2ed2bb48731cc00ae84dfacc17338d17e3dbfe68403c1b10ab948e50139b1",
    "e0ca2391f5f2afbf61ce96277072b42cb658bc0451d5ecd9bd7fa9b4722e5cb6",
    "f61d113027926fa84621c81867addbfa613b55c6a78d862e08594f2745b85b70",
    "6b510145c1f5c5ef4ef2e208ccb726be640e31d02653e351027038db820797fb",
    "10f432a0ce6e76d9b0e1ec4975b5648d0c6220b9b56a1a3d620dde3ee86df1b5",
    "b98e1fc07e5310fddf0bf8ebf0d46279d3e334c3eab06ed0af97b28acfa4f324",
    "c37c558cecdf2ab5647dac7a8d1e53246247e4b39df913830a2ba49745a8f36a",
    "cbf91360d4a3bff684e0daf87c10586dc12a739231231bc5f65e844b06edcac2",
    "8b49ef751210ea560c05257e9f502592d8a03aeedec97c163140f7d9a6ea6b0e",
]


@pytest.mark.parametrize("index", range(len(_DOMAIN_MODELS)))
def test_domain_outputs_match_recorded_digests(index, tmp_path):
    """The three analytic commands keep their bits, or their usage errors, over
    the domain.  Another numpy or scipy release may move a last digit of ``ndtr``
    or ``log``, so the digests are compared only under the releases that recorded
    them."""
    import scipy
    releases = tuple(".".join(v.split(".")[:2]) for v in (np.__version__, scipy.__version__))
    if releases != ("2.4", "1.17"):
        pytest.skip(f"digests recorded with numpy 2.4 and scipy 1.17, not {releases}")
    digest = hashlib.sha256()
    for command in ("optimize", "figure-qcurve", "figure-error"):
        path = tmp_path / f"{command}.csv"
        code, _, err = _run([command, *_DOMAIN_MODELS[index], "--out", str(path)])
        out = path.read_bytes() if path.exists() else b""
        digest.update(f"{command} {code} {len(err)} {len(out)}\n{err}".encode() + out)
    assert digest.hexdigest() == DOMAIN_SHA256[index], _DOMAIN_MODELS[index]
