"""Traced job: run one sweepwords CLI call with timing spans around its layers.

    python3 perfbench/tracer.py SPANS_PATH JOB_ID CLI_ARG...

The child installs wrappers on the public functions of `words`,
`genericity`, `exactalg`, `witness`, `graphs` and `cli`, then calls
`sweepwords.cli.main(CLI_ARG...)` exactly as the console script does.  Spans
(name, start, end, parent, job id and a few counts) stay in memory and are
written to SPANS_PATH as JSON when the CLI returns.  The envelope still goes
to stdout, so the caller can check it is byte-identical to an untraced run.

Every name is patched where its caller looks it up: `genericity.discriminant`
and `witness.discriminant` rather than `exactalg.discriminant`,
`cli.grid_certification` rather than `genericity.grid_certification`, and
`Matrix.mul` as a class attribute.  `build_and_verify` binds
`_verifier=verify_witness` as a default argument, so a wrapper on
`witness.verify_witness` would never fire; evaluation inside the witness
path shows up as `Matrix.mul` spans plus `witness.build_and_verify` self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Recorder:
    """In-memory span list with a parent stack (the CLI is single-threaded)."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, attrs=None):
        """Return fn wrapped in a span.

        `name` is a string or a function of the call's positional arguments;
        `attrs(args, result)` returns extra counts to store on the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "name": name if isinstance(name, str) else name(args),
                "job": self.job,
                "parent": self._stack[-1] if self._stack else None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return wrapper


def _nested_code(code, name: str):
    """The code object of the function `name` defined anywhere inside `code`."""
    for const in code.co_consts:
        if hasattr(const, "co_name"):
            if const.co_name == name:
                return const
            found = _nested_code(const, name)
            if found is not None:
                return found
    return None


class NodeCounter:
    """Counts calls of the search's node-expansion closure with sys.setprofile.

    The profile hook fires on every call and return inside the search, so
    it roughly doubles the search time; it runs in traced jobs only.
    """

    def __init__(self, search_fn):
        self.nodes = 0
        self._code = _nested_code(search_fn.__code__, "extend")

    def wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.nodes = 0
            code = self._code

            def hook(frame, event, arg):
                if event == "call" and frame.f_code is code:
                    self.nodes += 1

            sys.setprofile(hook)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setprofile(None)

        return counted


def install(rec: Recorder):
    """Patch the traced names in place and return the wrapped `cli.main`."""
    from sweepwords import cli, exactalg, genericity, witness

    def patch(owner, attr, name, attrs=None):
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name, attrs))

    patch(
        exactalg.Matrix,
        "mul",
        "exactalg.Matrix.mul",
        lambda a, r: {"ops": a[0].n_rows * a[0].n_cols * a[1].n_cols},
    )
    for owner in (genericity, witness):
        patch(
            owner,
            "discriminant",
            lambda a: "exactalg.discriminant." + a[0][0].ring.kind,
            lambda a, r: {
                "size": len(a[0]),
                "ops": len(a[0]) ** 3 // 3,
                "bits": abs(r).bit_length(),
            },
        )
    patch(
        genericity,
        "span_insert",
        "exactalg.span_insert",
        lambda a, r: {"inserted": int(r[1])},
    )
    for attr in ("evaluate_words", "sample_tuple", "subspace_length"):
        patch(genericity, attr, "genericity." + attr)
    for owner in (cli, genericity, witness):
        patch(owner, "build_word_grid", "words.build_word_grid")
    patch(witness, "certificate_monomial", "words.certificate_monomial")
    patch(witness, "build_witness", "witness.build_witness")
    patch(
        cli,
        "build_and_verify",
        "witness.build_and_verify",
        lambda a, r: {"escalations": r[0].escalations},
    )
    for attr in ("grid_certification", "generic_length_experiment"):
        patch(cli, attr, "genericity." + attr)
    for attr in ("build_graph", "derive_walks_from_certificate", "verify_partition"):
        patch(cli, attr, "graphs." + attr)
    counter = NodeCounter(cli.enumerate_partitions)
    cli.enumerate_partitions = rec.wrap(
        counter.wrap(cli.enumerate_partitions),
        "graphs.enumerate_partitions",
        lambda a, r: {"nodes": counter.nodes},
    )
    return rec.wrap(cli.main, "cli.main")


def main(argv: list[str]) -> int:
    spans_path, job, cli_args = argv[0], int(argv[1]), argv[2:]
    rec = Recorder(job)
    code = install(rec)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(rec.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
