"""Command-line surface: words, certify, graph, length, witness.

Every command emits one envelope {command, config, result, paper_refs} in
json, csv, or text form.  Identical (command, config, seed) produce
byte-identical output; there are no timestamps.  Exit codes: 0 when the
run's claims hold, 1 when a claim is violated, 2 on invalid input, 3 when
an exhaustive search exceeds its node budget.

Importing this module loads no other sweepwords module but `errors`, so
`--help`, argument errors and an unwritable `--out` load nothing more.  Each
command imports only the modules it runs: `words` loads `words`, `graph`
adds `graphs`, `witness` adds `exactalg` and `witness`, and `certify` and
`length` add `exactalg` and `genericity`.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import sys

from .errors import BudgetExceeded, InvalidInput, SweepwordsError

# Each name the handlers call, with the sweepwords module that defines it.
# The module is imported when the name is first read from this module (PEP
# 562 `__getattr__`), so a command loads only the modules it runs.  Handlers
# read the names as attributes of `_cli`, never as bare globals, so a wrapper
# set with `setattr(cli, name, ...)` is what they call.
_HOME = {
    "DEFAULT_PRIME": "genericity",
    "check_length_run": "genericity",
    "generic_length_experiment": "genericity",
    "grid_certification": "genericity",
    "random_words_certification": "genericity",
    "build_graph": "graphs",
    "derive_walks_from_certificate": "graphs",
    "enumerate_partitions": "graphs",
    "verify_partition": "graphs",
    "build_and_verify": "witness",
    "reported_constants": "witness",
    "build_word_grid": "words",
}


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __package__), name)
    globals()[name] = value
    return value


# this module itself; under `python -m sweepwords.cli` that is `__main__`
_cli = sys.modules[__name__]

_CLAIMS = {
    "words": [
        "an n-by-n grid of degree-2*ceil(log_g n) words supplies the n^2 spanning candidates",
    ],
    "certify": [
        "a nonzero discriminant at one sample point certifies local linear independence",
        "single-trial failure probability is at most (total word degree)/p",
    ],
    "graph": [
        "the level-d graph decomposes into edge-disjoint length-2d walks realizing every word exactly m times",
        "that walk partition is unique",
    ],
    "length": [
        "generic tuples generate the full matrix algebra within 2*ceil(log_g n) steps",
        "the classical conjectured bound for arbitrary generating sets is 2n-2",
    ],
    "witness": [
        "a deterministic integer tuple with nonzero exact grid discriminant spans the matrix algebra",
    ],
}

DEFAULT_BUDGET = 2_000_000


# the envelope's `config`: every key, with the value a command leaves unset;
# `main` fills in command, format and out, the handlers the rest
_CONFIG_DEFAULTS = {
    "command": None,
    "n": None,
    "g": None,
    "d": None,
    "d_overridden": False,
    "prime": None,
    "seed": None,
    "trials": None,
    "format": "json",
    "budget": None,
    "out": None,
    "symmetric": False,
    "include_identity": False,
    "enumerate": False,
    "m_scale": None,
    "base": None,
}


def _parse_n_range(spec: str) -> range:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if lo_i > hi_i:
            raise InvalidInput(f"empty range {spec!r}")
        return range(lo_i, hi_i + 1)
    n = int(spec)
    return range(n, n + 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweepwords",
        description="Build, certify, and stress-test log-degree sweeping word grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", default=None, help="write output to this path")

    p_words = sub.add_parser("words", help="dump the word grid")
    p_words.add_argument("--n", type=int, required=True)
    p_words.add_argument("--g", type=int, default=2)
    p_words.add_argument("--d", type=int, default=None, help="override ceil(log_g n)")
    common(p_words)

    p_cert = sub.add_parser("certify", help="randomized discriminant certification")
    p_cert.add_argument("--n", type=int, required=True)
    p_cert.add_argument("--g", type=int, default=2)
    p_cert.add_argument("--d", type=int, default=None)
    p_cert.add_argument("--prime", type=int, default=None, help="default 2^61 - 1")
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--trials", type=int, default=3)
    p_cert.add_argument("--symmetric", action="store_true")
    p_cert.add_argument(
        "--inject-duplicate",
        action="store_true",
        help="replace the second word with the first (negative control)",
    )
    p_cert.add_argument(
        "--random-words",
        action="store_true",
        help="certify n^2 random distinct degree-2d words instead of the grid "
        "(exploratory; inconclusive outcomes are data, not errors)",
    )
    common(p_cert)

    p_graph = sub.add_parser("graph", help="build the graph / count partitions")
    p_graph.add_argument("--g", type=int, default=2)
    p_graph.add_argument("--d", type=int, required=True)
    p_graph.add_argument("--m-scale", type=int, default=1)
    p_graph.add_argument("--enumerate", action="store_true")
    p_graph.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"node budget for --enumerate (default {DEFAULT_BUDGET}); a node "
        "is one partial partition expanded.  Levels without a shipped "
        "certificate, such as g=2 d=4 and g=3 d=3, exceed it and exit 3",
    )
    p_graph.add_argument("--dot", default=None, help="also write a DOT file here")
    common(p_graph)

    p_len = sub.add_parser("length", help="length chains at random tuples")
    p_len.add_argument("--n", required=True, help="a size like 8 or a sweep like 2..10")
    p_len.add_argument("--g", type=int, default=2)
    p_len.add_argument("--prime", type=int, default=None, help="default 2^61 - 1")
    p_len.add_argument("--seed", type=int, default=0)
    p_len.add_argument("--trials", type=int, default=5)
    p_len.add_argument("--symmetric", action="store_true")
    p_len.add_argument("--include-identity", action="store_true")
    common(p_len)

    p_wit = sub.add_parser("witness", help="deterministic integer witness")
    p_wit.add_argument("--n", type=int, required=True)
    p_wit.add_argument("--g", type=int, default=2)
    p_wit.add_argument("--base", type=int, default=None, help="override the base")
    p_wit.add_argument(
        "--paper-constants",
        action="store_true",
        help="include the reported comparison constants",
    )
    common(p_wit)

    return parser


def _cmd_words(args) -> tuple[dict, dict, int]:
    grid = _cli.build_word_grid(args.n, args.g, args.d)
    config = dict(n=str(args.n), g=args.g, d=grid.d, d_overridden=args.d is not None)
    return config, {"grid": grid.to_json()}, 0


def _cmd_certify(args) -> tuple[dict, dict, int]:
    prime = _cli.DEFAULT_PRIME if args.prime is None else args.prime
    if args.random_words:
        report = _cli.random_words_certification(
            args.n,
            args.g,
            p=prime,
            trials=args.trials,
            seed=args.seed,
            d=args.d,
            symmetric=args.symmetric,
        )
    else:
        report = _cli.grid_certification(
            args.n,
            args.g,
            p=prime,
            trials=args.trials,
            seed=args.seed,
            d=args.d,
            symmetric=args.symmetric,
            inject_duplicate=args.inject_duplicate,
        )
    config = dict(
        n=str(args.n),
        g=args.g,
        d=report.d // 2,
        d_overridden=args.d is not None,
        prime=str(prime),
        seed=args.seed,
        trials=args.trials,
        symmetric=args.symmetric,
    )
    return config, {"certification": report.to_json()}, 0 if report.certified else 1


def _cmd_graph(args) -> tuple[dict, dict, int]:
    graph = _cli.build_graph(args.g, args.d, args.m_scale)
    result: dict = {"graph": graph.to_json()}
    code = 0
    # the canonical-partition self-check stays cheap; skip it on big graphs
    if 1 <= args.d and graph.n_vertices <= 32 and args.m_scale <= 8:
        passes = _cli.verify_partition(graph, _cli.derive_walks_from_certificate(graph))
        result["derived_partition_passes"] = passes
        if not passes:
            code = 1
    if args.enumerate:
        count = _cli.enumerate_partitions(graph, cap=2, budget=args.budget)
        result["enumeration"] = {
            "count": count,
            "saturated_at_cap": count >= 2,
            "budget": args.budget,
        }
        if count != 1:
            code = 1
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.to_dot() + "\n")
    config = dict(
        g=args.g,
        d=args.d,
        m_scale=args.m_scale,
        enumerate=args.enumerate,
        budget=args.budget,
    )
    return config, result, code


def _cmd_length(args) -> tuple[dict, dict, int]:
    sizes = _parse_n_range(args.n)
    prime = _cli.DEFAULT_PRIME if args.prime is None else args.prime
    # refuse the whole range before running any of it
    _cli.check_length_run(sizes, args.g, args.trials)
    summaries = []
    code = 0
    for n in sizes:
        summary = _cli.generic_length_experiment(
            n,
            args.g,
            p=prime,
            trials=args.trials,
            seed=args.seed,
            symmetric=args.symmetric,
            include_identity=args.include_identity,
        )
        summaries.append(summary)
        if not summary.all_within_bounds:
            code = 1
    config = dict(
        n=args.n,
        g=args.g,
        prime=str(prime),
        seed=args.seed,
        trials=args.trials,
        symmetric=args.symmetric,
        include_identity=args.include_identity,
    )
    return config, {"experiments": [s.to_json() for s in summaries]}, code


def _cmd_witness(args) -> tuple[dict, dict, int]:
    report, t = _cli.build_and_verify(args.n, args.g, base_override=args.base)
    result = {
        "witness": report.to_json(),
        "matrices": {"matrices": [m.to_json() for m in t]},
    }
    if args.paper_constants:
        result["reported_constants"] = _cli.reported_constants(args.n, args.g)
    config = dict(n=str(args.n), g=args.g, base=str(report.spec.base))
    return config, result, 0 if report.certified else 1


_HANDLERS = {
    "words": _cmd_words,
    "certify": _cmd_certify,
    "graph": _cmd_graph,
    "length": _cmd_length,
    "witness": _cmd_witness,
}


def _flatten(prefix: str, value, lines: list[str]):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], lines)
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            lines.append(f"{prefix}: {' '.join(str(x) for x in value)}")
        else:
            for idx, item in enumerate(value):
                _flatten(f"{prefix}[{idx}]", item, lines)
    else:
        lines.append(f"{prefix}: {value}")


def _to_csv(envelope: dict) -> str:
    import csv

    command = envelope["command"]
    result = envelope["result"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if command == "words":
        writer.writerow(["i", "j", "word"])
        for i, row in enumerate(result["grid"]["grid"], start=1):
            for j, word in enumerate(row, start=1):
                writer.writerow([i, j, word])
    elif command == "certify":
        writer.writerow(["n", "g", "seed", "trial", "nonzero"])
        cert = result["certification"]
        for trial, flag in enumerate(cert["trial_nonzero"]):
            writer.writerow([cert["n"], cert["g"], cert["seed"], trial, flag])
    elif command == "graph":
        writer.writerow(["from", "to", "label", "mult"])
        for edge in result["graph"]["edges"]:
            writer.writerow([edge["from"], edge["to"], edge["label"], edge["mult"]])
    elif command == "length":
        writer.writerow(
            [
                "n", "g", "trial", "length", "terminal_dim",
                "log_bound", "paz_bound", "within_log", "within_paz", "dims",
            ]
        )
        for summary in result["experiments"]:
            for trial, rep in enumerate(summary["reports"]):
                writer.writerow(
                    [
                        rep["n"], rep["g"], trial, rep["length"],
                        rep["terminal_dim"], rep["log_bound"], rep["paz_bound"],
                        rep["within_log_bound"], rep["within_paz_bound"],
                        "|".join(str(x) for x in rep["dims"]),
                    ]
                )
    elif command == "witness":
        writer.writerow(["k", "i", "j", "exponent"])
        for entry in result["witness"]["spec"]["support"]:
            writer.writerow([entry["k"], entry["i"], entry["j"], entry["exponent"]])
    return buf.getvalue()


def _emit(envelope: dict, fmt: str, out: str | None):
    if fmt == "json":
        text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = _to_csv(envelope)
    else:
        lines: list[str] = []
        _flatten("", envelope, lines)
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be written, before any work runs."""
    target = path if os.path.exists(path) else os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise InvalidInput(f"cannot write {path!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for path in (args.out, getattr(args, "dot", None)):
            if path:
                _check_writable(path)
        config, result, code = _HANDLERS[args.command](args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 3
    except (SweepwordsError, ValueError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    envelope = {
        "command": args.command,
        "config": dict(
            _CONFIG_DEFAULTS,
            **config,
            command=args.command,
            format=args.format,
            out=args.out,
        ),
        "result": result,
        "paper_refs": _CLAIMS[args.command],
    }
    _emit(envelope, args.format, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
