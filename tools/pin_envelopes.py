"""Pin every command's envelope bytes: write tests/envelopes.json.

    PYTHONPATH=src python tools/pin_envelopes.py

Runs each argument vector of `tests/command_vectors.py` through `cli.main`
in a temporary directory and writes, one line per vector, its exit code and
the sha256 of its stdout and of each `--out` or `--dot` file it wrote.
`tests/test_envelopes.py` checks the package against that file, so re-run
this only when an envelope is meant to change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

TESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
sys.path.insert(0, TESTS)

from command_vectors import ENVELOPE_VECTORS, envelope  # noqa: E402

PINS = os.path.join(TESTS, "envelopes.json")


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            records = [envelope(argv) for argv in ENVELOPE_VECTORS]
        finally:
            os.chdir(home)
    with open(PINS, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"pinned {len(records)} envelopes in {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
