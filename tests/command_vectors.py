"""The argument vectors that the command tests run, and their envelope pins.

`REACHABILITY` is the matrix of `test_reachability.py`: every command,
every `--format` and flag, one over-cap refusal per command, and `--help`,
each with its expected exit code.  `ENVELOPE_VECTORS` runs each of those in
json, csv and text, plus the small console-script runs of CI, a certify
run whose duplicate row widens the elimination window, one refusal per cap
and the walk-partition search's paths.  `tests/envelopes.json`
pins what `envelope` records for each of them; `tools/pin_envelopes.py`
writes it.

Output paths are relative (`OUT`, `DOT`), so the envelope's `config.out`
is the same wherever the vectors run; run them in a scratch directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

from sweepwords import cli

OUT, DOT = "out.txt", "graph.dot"
# a prime other than the default 2^61 - 1
P61M31 = str((1 << 61) - 31)

REACHABILITY: list[tuple[list[str], int]] = [
    (["--help"], 0),
    (["words", "--n", "5"], 0),
    (["words", "--n", "4", "--g", "3", "--d", "2", "--format", "csv"], 0),
    (["words", "--n", "3", "--format", "text", "--out", OUT], 0),
    (["words", "--n", "257"], 2),
    (["certify", "--n", "3", "--trials", "1"], 0),
    (["certify", "--n", "3", "--format", "csv", "--symmetric"], 0),
    (["certify", "--n", "3", "--trials", "1", "--format", "text", "--d", "3"], 0),
    (["certify", "--n", "3", "--trials", "1", "--prime", P61M31, "--seed", "5"], 0),
    (["certify", "--n", "3", "--trials", "1", "--inject-duplicate"], 1),
    (["certify", "--n", "3", "--trials", "1", "--random-words"], 0),
    (["certify", "--n", "41"], 2),
    (["graph", "--d", "2", "--enumerate", "--dot", DOT, "--out", OUT], 0),
    (["graph", "--d", "3", "--enumerate", "--budget", "10"], 3),
    (["graph", "--g", "3", "--d", "1", "--m-scale", "2", "--format", "csv"], 0),
    (["graph", "--d", "1", "--format", "text"], 0),
    (["graph", "--d", "17"], 2),
    (["length", "--n", "2..3", "--trials", "1", "--include-identity"], 0),
    (["length", "--n", "3", "--trials", "1", "--format", "csv", "--symmetric"], 0),
    (["length", "--n", "3", "--trials", "1", "--format", "text", "--prime", "101"], 0),
    (["length", "--n", "49"], 2),
    (["witness", "--n", "8", "--paper-constants"], 0),
    (["witness", "--n", "3", "--g", "3", "--base", "10", "--format", "csv"], 0),
    (["witness", "--n", "3", "--format", "text"], 0),
    (["witness", "--n", "17"], 2),
]


def _in_format(argv: list[str], fmt: str) -> list[str]:
    """argv without its `--format` option, then `--format fmt`."""
    kept = []
    args = iter(argv)
    for arg in args:
        if arg == "--format":
            next(args)
        else:
            kept.append(arg)
    return [*kept, "--format", fmt]


# CI's console-script runs that take well under a second
_CONSOLE = [
    "words --n 4",
    "certify --n 4 --trials 1",
    "certify --n 9 --g 3 --d 2 --trials 1",
    "certify --n 8 --g 2 --d 4 --trials 1",
    "witness --n 4",
    "graph --g 2 --d 2 --enumerate",
    "graph --g 3 --d 2 --enumerate",
    "graph --g 2 --d 3 --enumerate",
    "graph --g 6 --d 1 --enumerate",
    "length --n 2..4 --trials 1",
    "length --n 2..6 --trials 1 --prime 101",
]

# a duplicate grid row that widens `_gauss_jordan`'s window: n = 6 is the
# smallest certify size where it does (n = 4 and n = 5 do not)
_WIDENING = [
    "certify --n 6 --trials 1 --inject-duplicate",
]

# one refusal per cap, each exit 2 with empty stdout: CI's (with the string
# form's g <= 26 in certify's digest and in the words grid), then the trial
# caps, the negative budget and the search's placed-walk cap
_REFUSALS = [
    "words --n 257",
    "words --n 2 --d 9",
    "certify --n 2 --d 9",
    "graph --g 2 --d 17",
    "witness --n 2 --g 257",
    "length --n 3 --g 257",
    "certify --n 20 --g 27 --trials 3",
    "words --n 4 --g 27",
    "length --n 2..48 --trials 9",
    "witness --n 16 --base 65536",
    "certify --n 3 --trials 65",
    "length --n 3 --trials 65",
    "graph --d 1 --enumerate --budget -1",
    "graph --d 1 --m-scale 400 --enumerate",
]

# the walk-partition search: a scaled level under a large budget, a level
# with many words, a level without a certificate (the full search), copies
# after the first, and a search that runs out of budget
_SEARCH = [
    "graph --g 2 --d 2 --m-scale 3 --enumerate --budget 100000000",
    "graph --g 5 --d 2 --enumerate",
    "graph --d 2 --m-scale 2 --enumerate",
    "graph --g 2 --d 3 --enumerate --budget 10",
]

ENVELOPE_VECTORS: list[list[str]] = [
    ["--help"],
    *(
        _in_format(argv, fmt)
        for argv, _ in REACHABILITY[1:]
        for fmt in ("json", "csv", "text")
    ),
    *(line.split() for line in _CONSOLE + _WIDENING + _REFUSALS + _SEARCH),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def envelope(argv: list[str]) -> dict:
    """argv, exit code, and the sha256 of stdout and of each written file.

    Runs `cli.main` in process in the current directory, and removes the
    `--out` and `--dot` files it wrote.  `--help` is pinned by its exit code
    alone: argparse lays its help out differently across Python versions
    and terminal widths.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if argv == ["--help"]:
        return {"argv": argv, "exit": code}
    files = {}
    for flag in ("--out", "--dot"):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            with open(path, "rb") as fh:
                files[path] = _sha256(fh.read())
            os.remove(path)
    record = {"argv": argv, "exit": code, "stdout": _sha256(out.getvalue().encode())}
    if files:
        record["files"] = files
    return record
