"""Random bytes and mutated valid files fed to ``binquant quantify``.

Whatever the input files hold, a run must end in a documented exit code (0
success, 1 usage error, 2 data error, 3 oracle violation), never in an
uncaught exception, and a data error must print an ``error:`` line.  The
searches are derandomized, so every run of the suite tries the same inputs.
"""

import contextlib
import io
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binquant.cli import EXIT_DATA, main

VALID_TRAIN = b"# generated\nscore,label\n1.5,1\n-0.5,-1\n0.75,1\n-1.25,-1\n2.0,1\n0.0,-1\n"
VALID_TARGET = b"score\n1.0\n-0.5\n\n0.25\n"
# Bytes and tokens a mutation splices in: separators, line ends, comment and BOM
# markers, invalid UTF-8, and numbers on and beyond the edges of the format.
FRAGMENTS = [b",", b"\n", b"\r\n", b"\r", b"#", b" ", b"\x00", b"\xff", b"\xef\xbb\xbf",
             b"nan", b"inf", b"-inf", b"1e400", b"1e-400", b"1_0", "١".encode(), b"+1",
             b"01", b"300", b"0", b"-1", b"1", b"1.0", b"abc", b"score", b"score,label"]
COMMANDS = [
    ["--threshold", "0.5", "--method", "cc"],
    ["--threshold", "0.5"],
    ["--rule", "locally-best"],
    ["--rule", "minimax"],
    ["--rule", "q-optimal", "--beta", "2"],
]
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def _mutated(draw, valid: bytes) -> bytes:
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        if kind == "delete":
            del data[at:at + draw(st.integers(1, 6))]
        elif kind == "replace" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        else:
            data[at:at] = draw(st.sampled_from(FRAGMENTS))
    return bytes(data)


def _run(argv: list[str]) -> tuple[object, str]:
    """Exit code and stderr of one in-process run; an escaped exception is recorded
    in stderr as the traceback a user would see."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except Exception:
            err.write(traceback.format_exc())
            code = None
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _check(workdir, train: bytes, target: bytes, command: list[str]) -> None:
    (workdir / "train.csv").write_bytes(train)
    (workdir / "target.csv").write_bytes(target)
    code, err = _run(["quantify", str(workdir / "train.csv"), str(workdir / "target.csv"), *command])
    assert "Traceback" not in err, err
    assert code in (0, 1, 2, 3), (code, err)
    if code == EXIT_DATA:
        assert any(line.startswith("error: ") for line in err.splitlines()), err


@FUZZ
@given(train=st.binary(max_size=200), target=st.binary(max_size=120),
       command=st.sampled_from(COMMANDS))
def test_random_bytes(workdir, train, target, command):
    _check(workdir, train, target, command)


@FUZZ
@given(train=_mutated(VALID_TRAIN), target=_mutated(VALID_TARGET),
       command=st.sampled_from(COMMANDS))
def test_mutated_valid_files(workdir, train, target, command):
    _check(workdir, train, target, command)


@FUZZ
@given(train=_mutated(VALID_TRAIN), command=st.sampled_from(COMMANDS))
def test_mutated_train_with_valid_target(workdir, train, command):
    _check(workdir, train, VALID_TARGET, command)
