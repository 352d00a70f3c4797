"""Rewrite digests.json: the envelope sha256 of every pinned job input.

    python3 perfbench/pin_digests.py

Pinned inputs are the first jobs of the default seed for certify-n20 and
length-n14, every base in [385, 400] for witness-n8, and the single
graph-d2m3 search.  Run it only when an envelope is meant to change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    env = run.child_env()
    table: dict[str, dict[str, str]] = {}
    with run.work_dir() as scratch:
        for name, workload in run.WORKLOADS.items():
            table[name] = {}
            for key in run.pin_keys(name):
                args = workload.args(key)
                argv = [sys.executable, "-m", "sweepwords.cli", *args]
                done = run.spawn(argv, env, scratch)
                reason, digest = run.check_job(args[0], key, done.returncode, done.stdout, {})
                if reason is not None:
                    sys.stderr.write(f"{name} {key}: {reason}\n{done.stderr}")
                    return 1
                table[name][key] = digest
                print(f"{name} {key} {digest}", flush=True)
    run.DIGESTS_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
