"""Closed-loop benchmark of the sweepwords command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one job at a time: each job is a fresh
`python -m sweepwords.cli ...` process, and the next job starts only after
the previous one has exited, as a user at a shell would run them.  Every
job's exit code, claim fields and envelope sha256 are checked.

With `--trace 0` the run reports the end-to-end metrics (setup_s, job_s.p50,
jobs_per_s, peak_rss_mb).  With `--trace 1` it alternates an untraced job
with a traced job on the same input (see tracer.py) and reports per-layer
times and counts, the dominant layer and the tracing overhead.  Readable
lines go to stdout first; the last stdout line is one JSON object
{correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS_PATH = HERE / "digests.json"

SETUP_SAMPLES = 7
# a hung job is killed well inside the run's 180 s limit
JOB_TIMEOUT_S = 100.0
DEFAULT_SEED = 0
PINNED_JOBS = 12  # jobs of the default seed whose digests digests.json pins


@dataclass(frozen=True)
class Workload:
    dominant: tuple[str, ...]  # layers predicted to dominate self time
    draw: Callable[[random.Random], str]  # one job's input key
    args: Callable[[str], list[str]]  # CLI arguments for an input key

    def job(self, name: str, seed: int, index: int) -> tuple[str, list[str]]:
        """(input key, CLI arguments) of job `index`; a pure function of seed."""
        key = self.draw(random.Random(f"{name}:{seed}:{index}"))
        return key, self.args(key)


WORKLOADS = {
    "certify-n20": Workload(
        ("exactalg.Matrix.mul", "genericity.evaluate_words"),
        lambda rng: str(rng.getrandbits(32)),
        lambda s: ["certify", "--n", "20", "--trials", "1", "--seed", s],
    ),
    "witness-n8": Workload(
        ("exactalg.discriminant.big_integer",),
        # 385 = 2*d*n^2 + 1 is the default base; larger bases slow the job,
        # so the band stays narrow
        lambda rng: str(rng.randint(385, 400)),
        lambda b: ["witness", "--n", "8", "--base", b],
    ),
    "length-n14": Workload(
        ("exactalg.span_insert",),
        lambda rng: str(rng.getrandbits(32)),
        lambda s: ["length", "--n", "14", "--trials", "1", "--seed", s],
    ),
    "graph-d2m3": Workload(
        ("graphs.enumerate_partitions",),
        # no seeded input: every job is the same search.  It expands
        # 1,968,180 nodes, 1.6% under the CLI's default budget, so the budget
        # is explicit: a change in search order shows as slower, not as exit 3
        lambda rng: "fixed",
        lambda _: [
            "graph", "--g", "2", "--d", "2", "--m-scale", "3",
            "--enumerate", "--budget", "100000000",
        ],
    ),
}


def pin_keys(name: str) -> list[str]:
    """Input keys whose envelope digests digests.json pins."""
    if name == "witness-n8":
        return [str(b) for b in range(385, 401)]
    return sorted({WORKLOADS[name].job(name, DEFAULT_SEED, i)[0] for i in range(PINNED_JOBS)})


def _certify_ok(result: dict) -> bool:
    cert = result["certification"]
    return cert["status"] == "certified" and cert["successes"] == cert["trials"]


def _witness_ok(result: dict) -> bool:
    wit = result["witness"]
    return wit["certified"] is True and wit["escalations"] == 0


def _length_ok(result: dict) -> bool:
    return all(
        exp["all_within_bounds"]
        and all(r["terminal_dim"] == exp["n"] ** 2 for r in exp["reports"])
        for exp in result["experiments"]
    )


def _graph_ok(result: dict) -> bool:
    return result["enumeration"]["count"] == 1 and result["derived_partition_passes"]


CLAIM_CHECKS = {
    "certify": _certify_ok,
    "witness": _witness_ok,
    "length": _length_ok,
    "graph": _graph_ok,
}


# --- helpers with tests ------------------------------------------------------


def median_with_count(values: list[float]) -> tuple[float, int]:
    """Median of the samples and how many there were."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values), len(values)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        covered, reach = 0.0, lo
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append(hi - lo - covered)
    return out


def check_job(
    command: str, key: str, returncode: int, stdout: bytes, pinned: dict[str, str]
) -> tuple[str | None, str]:
    """(failure reason or None, envelope sha256) for one finished job."""
    digest = hashlib.sha256(stdout).hexdigest()
    if returncode != 0:
        return f"exit code {returncode}", digest
    try:
        envelope = json.loads(stdout)
        ok = CLAIM_CHECKS[command](envelope["result"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable envelope ({exc!r})", digest
    if not ok:
        return "claim check failed", digest
    if key in pinned and pinned[key] != digest:
        return f"envelope digest {digest[:12]} != pinned {pinned[key][:12]}", digest
    return None, digest


# --- running processes -------------------------------------------------------


@dataclass(frozen=True)
class Finished:
    wall_s: float
    returncode: int
    stdout: bytes
    stderr: str
    maxrss_mb: float


@contextlib.contextmanager
def work_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def spawn(argv: list[str], env: dict[str, str], scratch: Path) -> Finished:
    """Run one process to completion; time it from spawn to exit."""
    with tempfile.TemporaryFile(dir=scratch) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            timer.join()
            proc.stdout.close()
            # reap here rather than in Popen.wait to get this child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        errtext = err.read().decode("utf-8", "replace")
    return Finished(wall, proc.returncode, out, errtext, usage.ru_maxrss / 1024)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def measure_setup(env: dict[str, str], scratch: Path) -> list[float]:
    """Wall times of fresh interpreters that import sweepwords.cli and exit."""
    argv = [sys.executable, "-c", "import sweepwords.cli"]
    spawn(argv, env, scratch)  # untimed: writes bytecode caches, warms the file cache
    times = []
    for _ in range(SETUP_SAMPLES):
        done = spawn(argv, env, scratch)
        if done.returncode != 0:
            raise RuntimeError(f"importing sweepwords.cli failed:\n{done.stderr}")
        times.append(done.wall_s)
    return times


# --- per-layer aggregation ---------------------------------------------------


PER_LAYER_UNITS = {
    "exactalg.Matrix.mul.s": "s",
    "exactalg.Matrix.mul.calls": "count",
    "exactalg.Matrix.mul.ops": "count",
    "exactalg.Matrix.mul.ops_per_s": "1/s",
    "genericity.evaluate_words.self_s": "s",
    "exactalg.discriminant.prime_field.s": "s",
    "exactalg.discriminant.prime_field.size": "count",
    "exactalg.discriminant.prime_field.ops": "count",
    "exactalg.discriminant.prime_field.ops_per_s": "1/s",
    "exactalg.discriminant.big_integer.s": "s",
    "exactalg.discriminant.big_integer.bits": "bits",
    "witness.build_witness.s": "s",
    "witness.build_and_verify.self_s": "s",
    "witness.escalations": "count",
    "exactalg.span_insert.s": "s",
    "exactalg.span_insert.calls": "count",
    "exactalg.span_insert.useful_ratio": "ratio",
    "genericity.subspace_length.self_s": "s",
    "genericity.sample_tuple.s": "s",
    "graphs.enumerate_partitions.s": "s",
    "graphs.enumerate_partitions.nodes": "count",
    "graphs.enumerate_partitions.nodes_per_s": "1/s",
    "graphs.build_graph.s": "s",
    "graphs.derive_walks_from_certificate.s": "s",
    "graphs.verify_partition.s": "s",
    "words.build_word_grid.s": "s",
    "words.certificate_monomial.s": "s",
    "cli.main.self_s": "s",
    "cli.envelope_bytes": "bytes",
    "trace.job_s.p50": "s",
    "trace.overhead_s": "s",
}


# metrics read off another span name's totals
_ALIASES = {"witness.escalations": ("witness.build_and_verify", "escalations")}
# derived fields: (numerator, denominator) of a span name's totals
_RATIOS = {
    "ops_per_s": ("ops", "s"),
    "nodes_per_s": ("nodes", "s"),
    "useful_ratio": ("inserted", "calls"),
}


_SUMMED = ("ops", "inserted", "nodes", "escalations")  # counts the tracer records
_LARGEST = ("size", "bits")


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: time, self time, calls, summed counts and largest sizes."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        t = totals.setdefault(
            span["name"], dict.fromkeys(("s", "self_s", "calls", *_SUMMED, *_LARGEST), 0)
        )
        t["s"] += span["end"] - span["start"]
        t["self_s"] += own
        t["calls"] += 1
        for key in _SUMMED:
            t[key] += span.get(key, 0)
        for key in _LARGEST:
            t[key] = max(t[key], span.get(key, 0))
    return totals


def layer_metrics(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics of one traced job; layers it never entered are left out."""
    out = {}
    for metric in PER_LAYER_UNITS:
        name, field = _ALIASES.get(metric) or metric.rsplit(".", 1)
        t = totals.get(name)
        if t is None:
            continue
        if field in _RATIOS:
            num, den = _RATIOS[field]
            out[metric] = t[num] / t[den] if t[den] else 0.0
        else:
            out[metric] = t[field]
    return out


# --- the run -----------------------------------------------------------------


def machine_facts() -> dict[str, str]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = "present"
    except ImportError:
        has_gmpy2 = "absent"
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "gmpy2": has_gmpy2,
    }


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, scratch: Path):
        self.name = workload
        self.scratch = scratch
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.env = child_env()
        # an envelope depends only on the job's input key, whatever the seed
        self.pinned = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))[workload]
        self.attempted = 0
        self.failures: list[str] = []

    def job(self, index: int, traced: bool) -> tuple[Finished, bool, list[dict]]:
        """Run job `index`; returns (process result, passed, spans)."""
        key, args = self.workload.job(self.name, self.seed, index)
        spans_path = self.scratch / f"spans-{index}.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), str(index)]
        else:
            argv = [sys.executable, "-m", "sweepwords.cli"]
        done = spawn(argv + args, self.env, self.scratch)
        self.attempted += 1
        reason, digest = check_job(args[0], key, done.returncode, done.stdout, self.pinned)
        spans: list[dict] = []
        if traced and reason is None:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        if reason is not None:
            detail = done.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(f"job {index} ({' '.join(args)}): {reason} {detail[0]}")
        return done, reason is None, spans

    def untraced(self) -> dict[str, tuple[float, str]]:
        setup = measure_setup(self.env, self.scratch)
        job_s: list[float] = []
        peak_rss = 0.0
        passed = 0
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < self.seconds:
            done, ok, _ = self.job(index, traced=False)
            job_s.append(done.wall_s)
            peak_rss = max(peak_rss, done.maxrss_mb)
            passed += ok
            index += 1
        elapsed = time.perf_counter() - start
        setup_med, setup_n = median_with_count(setup)
        p50, n = median_with_count(job_s)
        metrics = {
            "setup_s": (setup_med, "s"),
            "job_s.p50": (p50, "s"),
            "jobs_per_s": (passed / elapsed, "1/s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
        notes = {"setup_s": f"median of {setup_n}", "job_s.p50": f"n={n}"}
        for key, (value, unit) in metrics.items():
            print(f"{key:<14} {value:>12.4f} {unit:<4} {notes.get(key, '')}")
        failed = len(self.failures)
        print(f"{'failed_ratio':<14} {failed / self.attempted:>12.4f} ratio "
              f"({failed} of {self.attempted})")
        return metrics

    def traced(self) -> dict[str, tuple[float, str]]:
        plain_s: list[float] = []
        traced_s: list[float] = []
        per_job: list[dict[str, float]] = []
        own_total: dict[str, float] = {}
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < self.seconds:
            plain, ok_plain, _ = self.job(index, traced=False)
            done, ok, spans = self.job(index, traced=True)
            index += 1
            if not (ok and ok_plain):
                continue
            if plain.stdout != done.stdout:
                self.failures.append(f"job {index - 1}: traced envelope differs from untraced")
                continue
            plain_s.append(plain.wall_s)
            traced_s.append(done.wall_s)
            totals = layer_totals(spans)
            per_job.append(layer_metrics(totals) | {"cli.envelope_bytes": len(done.stdout)})
            for name, t in totals.items():
                own_total[name] = own_total.get(name, 0.0) + t["self_s"]
        if not per_job:
            return {}
        metrics = {
            name: (statistics.median(job.get(name, 0) for job in per_job), unit)
            for name, unit in PER_LAYER_UNITS.items()
        }
        traced_p50, n = median_with_count(traced_s)
        plain_p50, _ = median_with_count(plain_s)
        metrics["trace.job_s.p50"] = (traced_p50, "s")
        metrics["trace.overhead_s"] = (traced_p50 - plain_p50, "s")
        for key, (value, unit) in metrics.items():
            print(f"{key:<45} {value:>16.6g} {unit}")
        busy = sum(own_total.values())
        ranked = sorted(own_total.items(), key=lambda kv: -kv[1])
        print(f"self time, share of traced job time (n={n} traced jobs):")
        for name, value in ranked[:6]:
            print(f"  {name:<43} {value / busy:>7.1%}")
        dominant = ranked[0][0]
        verdict = "matches" if dominant in self.workload.dominant else "DOES NOT match"
        print(f"dominant layer: {dominant} ({verdict} the prediction "
              f"{' + '.join(self.workload.dominant)})")
        print(f"tracing overhead: {traced_p50 - plain_p50:+.4f} s per job "
              f"(traced p50 {traced_p50:.4f} s, untraced p50 {plain_p50:.4f} s)")
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sweepwords" / "cli.py").is_file():
        sys.stderr.write(f"no sweepwords sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    facts = " ".join(f"{k}={v}" for k, v in machine_facts().items())
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {facts}")
    with work_dir() as scratch:
        run = Run(args.workload, args.seed, args.seconds, scratch)
        metrics = run.traced() if args.trace else run.untraced()
    for line in run.failures:
        sys.stderr.write(f"FAILED {line}\n")
    failed = len(run.failures)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
