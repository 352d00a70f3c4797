"""Argument vectors drawn from a grammar of every command and flag.

Sizes are drawn at small values, at cap + 1, and at 0, negatives and
10^100; `length --n` also takes reversed and empty `A..B` ranges, and
`--prime` primes and non-primes.  `cli.main` runs in process.  Whatever the
input, the exit code is 0, 1, 2 or 3 and stderr holds no traceback; exit 2
writes nothing to stdout; exit 0 or 1 writes an envelope that parses in its
`--format` (JSON, CSV rows of the header's width, or `key: value` lines).
Inputs at the caps take seconds each, so they are left out: every in-cap
size drawn here is small.
"""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepwords.cli import main
from sweepwords.genericity import CERTIFY_MAX_N, LENGTH_MAX_N, TRIALS_MAX
from sweepwords.graphs import SEARCH_MAX_WALKS
from sweepwords.witness import WITNESS_MAX_BASE_BITS, WITNESS_MAX_N
from sweepwords.words import MAX_G, WORDS_MAX_D, WORDS_MAX_N

HUGE = 10**100
BAD = [0, -1, HUGE]  # sizes that no command admits


def values(good, bad=()) -> tuple[list[str], list[str]]:
    """The values of a flag that every command admits, and the others."""
    return [str(v) for v in good], [str(v) for v in bad]


ALPHABET = values([2, 3], [1, MAX_G + 1, *BAD])
SEED = values([0, 7, -1, 2**64, HUGE])
TRIALS = values([1, 2], [TRIALS_MAX + 1, *BAD])
# --prime: primes, and non-primes; certify takes only primes above 2^40
NOT_PRIME = [4, 1, (1 << 61) - 3, -7, *BAD]
PRIME = values([101, 2, (1 << 61) - 1, (1 << 61) - 31], NOT_PRIME)
LARGE_PRIME = values([(1 << 61) - 1, (1 << 61) - 31, (1 << 62) - 57], [101, *NOT_PRIME])
# half-degree d: grid words have degree 2d, 2d = 6 at most below the cap
HALF_DEGREE = values([1, 2, 3], [WORDS_MAX_D + 1, *BAD])

# command -> (required flags, optional flags, boolean flags)
GRAMMAR = {
    "words": (
        {"--n": values([2, 3, 5], [1, WORDS_MAX_N + 1, *BAD])},
        {"--g": ALPHABET, "--d": HALF_DEGREE},
        [],
    ),
    "certify": (
        {"--n": values([2, 3, 4], [1, CERTIFY_MAX_N + 1, *BAD])},
        {
            "--g": ALPHABET,
            "--d": HALF_DEGREE,
            "--prime": LARGE_PRIME,
            "--seed": SEED,
            "--trials": TRIALS,
        },
        ["--symmetric", "--inject-duplicate", "--random-words"],
    ),
    "graph": (
        # d = 3 at g = 3 has no dual certificate, and its search runs for
        # seconds before it exits 3, so d stays at most 2 below the cap
        {"--d": values([1, 2], [17, *BAD])},
        {
            "--g": ALPHABET,
            "--m-scale": values([1, 2], [SEARCH_MAX_WALKS + 1, *BAD]),
            "--budget": values([10, 2_000_000], BAD),
        },
        ["--enumerate"],
    ),
    "length": (
        {
            "--n": (
                ["1", "3", "2..3", "3..3", "1..2"],
                ["3..2", "..", "2..", "..3", "", "-3..-1", f"2..{LENGTH_MAX_N + 1}"]
                + [str(v) for v in [LENGTH_MAX_N + 1, *BAD]],
            )
        },
        {"--g": ALPHABET, "--prime": PRIME, "--seed": SEED, "--trials": TRIALS},
        ["--symmetric", "--include-identity"],
    ),
    "witness": (
        {"--n": values([2, 3, 4], [1, WITNESS_MAX_N + 1, *BAD])},
        {
            "--g": ALPHABET,
            "--base": values([2, 10], [1, 1 << WITNESS_MAX_BASE_BITS, *BAD]),
        },
        ["--paper-constants"],
    ),
}


@st.composite
def argvs(draw, out_dir):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    required, optional, switches = GRAMMAR[command]
    # half the vectors stay within every bound, so that most commands run
    admitted = draw(st.booleans())

    def value(flag_values):
        good, bad = flag_values
        return draw(st.sampled_from(good if admitted else good + bad))

    argv = [command]
    for flag, flag_values in required.items():
        argv += [flag, value(flag_values)]
    for flag, flag_values in optional.items():
        if draw(st.booleans()):
            argv += [flag, value(flag_values)]
    argv += [flag for flag in switches if draw(st.booleans())]
    argv += ["--format", draw(st.sampled_from(["json", "csv", "text"]))]
    # a writable file, or a path under a directory that does not exist
    paths = st.sampled_from([f"{out_dir}/out", f"{out_dir}/missing/out"])
    if draw(st.booleans()):
        argv += ["--out", draw(paths)]
    if command == "graph" and draw(st.booleans()):
        argv += ["--dot", draw(paths)]
    return argv


def check_parses(text: str, fmt: str) -> None:
    assert text.endswith("\n")
    if fmt == "json":
        envelope = json.loads(text)
        assert set(envelope) == {"command", "config", "result", "paper_refs"}
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert rows and all(len(row) == len(rows[0]) for row in rows)
    else:
        for line in text.splitlines():
            key, sep, _ = line.partition(": ")
            assert key and sep


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_every_argv_exits_cleanly(out_dir):
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(argvs(out_dir))
    def run(argv):
        out_path = out_dir / "out"
        out_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == ""
        if code in (0, 1):
            fmt = argv[argv.index("--format") + 1]
            if "--out" in argv:
                assert out.getvalue() == ""
                check_parses(out_path.read_text(encoding="utf-8"), fmt)
            else:
                check_parses(out.getvalue(), fmt)

    run()
