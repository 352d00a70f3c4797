"""Each command loads only what it runs.

numpy loads only when an array kernel runs, that is over a prime field (in
`certify` and `length`, at every prime), and of the sweepwords modules a
command loads only those it calls into.  Each case
runs a fresh interpreter, so modules that earlier tests imported cannot leak
into it, and reports the modules in sys.modules at the end: whether numpy
is among them, which sweepwords modules are, and that OpenSSL's `_hashlib`
is not.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from sweepwords.genericity import CERTIFY_MAX_N, LENGTH_MAX_N, TRIALS_MAX
from sweepwords.witness import WITNESS_MAX_N
from sweepwords.words import WORDS_MAX_N

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import contextlib, io, json, sys
import sweepwords, sweepwords.cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            code = sweepwords.cli.main(argv)
print(json.dumps([code, sorted(sys.modules)]))
"""

# the sweepwords modules loaded by importing sweepwords.cli, and by each
# command on top of those
BASE = {"errors", "cli"}
LOADS = {
    "words": BASE | {"words"},
    "graph": BASE | {"words", "graphs"},
    "witness": BASE | {"words", "exactalg", "witness"},
    "certify": BASE | {"words", "exactalg", "genericity"},
    "length": BASE | {"words", "exactalg", "genericity"},
}


def loaded_modules(argv=None) -> tuple[int | None, set[str]]:
    """(exit code, every module in sys.modules) after importing sweepwords
    and sweepwords.cli and then, when argv is given, running cli.main(argv)."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


def probe(argv=None) -> tuple[int | None, bool, set[str]]:
    """(exit code, numpy loaded, sweepwords submodules loaded), as
    `loaded_modules` finds them."""
    code, modules = loaded_modules(argv)
    ours = {m.removeprefix("sweepwords.") for m in modules if m.startswith("sweepwords.")}
    return code, "numpy" in modules, ours


def test_import_loads_no_numpy():
    assert probe() == (None, False, BASE)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["certify", "--help"], 0),
        (["words"], 2),
        (["graph", "--d", "two"], 2),
        (["launch"], 2),
    ],
)
def test_help_and_argument_errors_load_only_the_cli(argv, code):
    assert probe(argv) == (code, False, BASE)


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--g", "2", "--d", "2", "--enumerate"],
        ["words", "--n", "8"],
    ],
)
def test_combinatorial_commands_load_no_numpy(argv):
    assert probe(argv) == (0, False, LOADS[argv[0]])


# a prime other than the default 2^61 - 1
P61M31 = str((1 << 61) - 31)


# the integers multiply with Python ints, whatever the alphabet or base
@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--n", "8"],
        ["witness", "--n", "8", "--g", "3"],
        ["witness", "--n", "8", "--base", "5", "--paper-constants"],
    ],
)
def test_python_int_rings_load_no_numpy(argv):
    assert probe(argv) == (0, False, LOADS[argv[0]])


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--n", "3", "--prime", "4"],
        ["certify", "--n", str(CERTIFY_MAX_N + 1)],
        ["certify", "--n", "3", "--trials", str(TRIALS_MAX + 1)],
        ["length", "--n", str(LENGTH_MAX_N + 1)],
        ["witness", "--n", str(WITNESS_MAX_N + 1)],
        ["words", "--n", str(WORDS_MAX_N + 1)],
        ["graph", "--g", "2", "--d", "17"],  # 2^17 vertices, twice the cap
    ],
)
def test_refusals_load_no_numpy(argv):
    # a refusal loads its own command's modules and no other command's
    assert probe(argv) == (2, False, LOADS[argv[0]])


def test_unwritable_out_loads_no_numpy(tmp_path):
    target = tmp_path / "missing" / "x"
    argv = ["certify", "--n", "3", "--out", str(target)]
    assert probe(argv) == (2, False, BASE)


def test_certify_loads_numpy():
    # the probe can tell: a kernel call does load numpy, at every prime
    for prime in ([], ["--prime", P61M31]):
        argv = ["certify", "--n", "3", "--trials", "1", *prime]
        assert probe(argv) == (0, True, LOADS["certify"])


def test_length_loads_numpy():
    # and so does span growth
    for prime in ([], ["--prime", P61M31]):
        argv = ["length", "--n", "3", "--trials", "1", *prime]
        assert probe(argv) == (0, True, LOADS["length"])


@pytest.mark.parametrize("command", ["certify", "length"])
def test_kernel_commands_load_no_openssl(command):
    # the word digest takes the interpreter's own sha256: hashlib would load
    # OpenSSL's libcrypto, which costs a few MB of RSS per job
    code, modules = loaded_modules([command, "--n", "3", "--trials", "1"])
    assert code == 0
    assert "_hashlib" not in modules


# standard-library modules that a call must not load: dataclasses nowhere
# (`words.record` builds the frozen records), inspect wherever numpy does not
# load it anyway, and fractions (which loads decimal) in `certify`, whose
# failure bound is a reduced (numerator, denominator) pair, in `length`,
# whose reports hold none, and in `graph`, whose certificate check runs in
# integers.
# `import dataclasses` alone took 6.4-7.0 ms, most of it importing inspect
@pytest.mark.parametrize(
    "argv, unwanted",
    [
        (["--help"], {"dataclasses", "inspect"}),
        (["words", "--n", "8"], {"dataclasses", "inspect"}),
        (
            ["graph", "--g", "2", "--d", "2", "--enumerate"],
            {"dataclasses", "inspect", "fractions"},
        ),
        (["witness", "--n", "8"], {"dataclasses", "inspect"}),
        (["certify", "--n", "3", "--trials", "1"], {"dataclasses", "fractions"}),
        (["length", "--n", "3", "--trials", "1"], {"dataclasses", "fractions"}),
        (["witness", "--n", str(WITNESS_MAX_N + 1)], {"dataclasses", "inspect"}),
        (["graph", "--g", "2", "--d", "17"], {"dataclasses", "inspect"}),
        (["certify", "--n", str(CERTIFY_MAX_N + 1)], {"dataclasses"}),
        (["length", "--n", str(LENGTH_MAX_N + 1)], {"dataclasses", "fractions"}),
    ],
)
def test_calls_skip_slow_standard_modules(argv, unwanted):
    _, modules = loaded_modules(argv)
    assert not modules & unwanted
