"""Every function in `src/sweepwords` is reached by a command.

One fresh interpreter installs a profiler before it imports sweepwords, so
that calls made at import time (such as `words.record` building the record
classes) count, and then runs `cli.main` on `command_vectors.REACHABILITY`:
every command, every `--format`, every flag, one over-cap refusal per
command and `--help`.  Every function and method in the package's source (a code
object with `inspect.CO_OPTIMIZED`, which class bodies and modules lack)
must have been entered, unless the allowlist names it with its reason.
Lambdas and comprehensions are not counted: they are parts of the body of
the function that holds them, so whether they run is a question of its
branches.  New code that no command runs either gets a command or moves to
`tests/`.
"""

import inspect
import json
import os
import pathlib
import subprocess
import sys

from command_vectors import REACHABILITY

PKG = pathlib.Path(__file__).resolve().parent.parent / "src" / "sweepwords"

# qualified name -> why no command enters it
ALLOWED = {
    # perfbench/tracer.py wraps these by name, so a traced benchmark run
    # fails without them; no command calls them
    "Matrix.mul": "wrapped by perfbench/tracer.py",
    "span_insert": "wrapped by perfbench/tracer.py",
    "_echelon_rows": "called only by span_insert",
    # protocol and safety methods of the frozen records, pinned by
    # tests/test_record.py: no command hashes, prints or mutates a record
    "record.<locals>.__hash__": "frozen-record protocol",
    "record.<locals>.__repr__": "frozen-record protocol",
    "record.<locals>.__setattr__": "refuses mutation of a frozen record",
    "record.<locals>.__delattr__": "refuses deletion from a frozen record",
}

_PROBE = """
import contextlib, io, json, os, sys

pkg = sys.argv[1]
entered = set()


def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and os.path.dirname(code.co_filename) == pkg:
        name = os.path.basename(code.co_filename)
        entered.add((name, code.co_firstlineno, code.co_name))


sys.setprofile(profile)
from sweepwords import cli

codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps([codes, sorted(entered)]))
"""


def function_codes() -> dict[tuple[str, int, str], str]:
    """(file name, first line, name) -> qualified name, for every named
    function code object compiled from the package's source files."""
    found = {}

    def walk(code, filename, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            qualname = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:
                # lambdas and comprehensions are named "<lambda>", "<genexpr>", ...
                if not const.co_name.startswith("<"):
                    found[(filename, const.co_firstlineno, const.co_name)] = qualname
                walk(const, filename, qualname + ".<locals>.")
            else:  # a class body
                walk(const, filename, qualname + ".")

    for path in sorted(PKG.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        walk(compile(source, str(path), "exec"), path.name, "")
    return found


def test_every_function_is_reached_by_a_command(tmp_path):
    # the vectors name their --out and --dot files relative to the probe's
    # working directory
    argvs = json.dumps([argv for argv, _ in REACHABILITY])
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(PKG), argvs],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(PKG.parent)),
        capture_output=True,
        text=True,
        check=True,
    )
    codes, entered = json.loads(proc.stdout)
    assert codes == [code for _, code in REACHABILITY]
    functions = function_codes()
    # module and class bodies are entered too, but are not functions
    entered = {tuple(key) for key in entered}
    unreached = {functions[key] for key in functions.keys() - entered}
    assert unreached == ALLOWED.keys(), (
        f"unreached: {sorted(unreached - ALLOWED.keys())}; "
        f"allowlisted but reached: {sorted(ALLOWED.keys() - unreached)}"
    )
