"""Run the checked-in mutants and fail on any that the tests do not kill.

    python tools/mutants.py

Each mutant is one exact text substitution in one source file: (name,
file, fragment, replacement, tests).  The runner copies `src/`, `tests/`,
`tools/` and `pyproject.toml` to a temporary directory, and there runs
each selection of tests once unmutated (a selection that fails then is an
error) and each mutant's selection once with the mutant in place, by
`python -m pytest -x -q` with a fixed hypothesis seed and no shrinking of
failing examples.  A mutant whose tests fail, or run past TIMEOUT_FACTOR
times their unmutated time, is killed; one whose tests pass survives.
The fragment must occur exactly once in its file, so a refactor that
rewrites the mutated code fails the runner until the list is updated.

A survivor is expected only when `EXPECTED_SURVIVORS` gives the reason it
is equivalent to the original code.  The exit code is 0 when every other
mutant is killed and every expected survivor survives, and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KERNEL = ("tests/test_echelon.py", "tests/test_evaluator.py")
SEARCH = (
    "tests/test_graphs.py",
    "tests/test_partition_search.py::TestAgainstOracle::test_finishing_graphs",
    "tests/test_partition_search.py::TestAgainstOracle::test_lister_on_shipped_levels",
    "tests/test_partition_search.py::TestAgainstOracle"
    "::test_lister_drops_walks_that_reuse_an_edge",
    "tests/test_partition_search.py::TestReducedCostFixing",
    "tests/test_partition_search.py::TestWriterCheck",
)
CHAIN = ("tests/test_words.py", "tests/test_graphs.py")
DETERMINANT = ("tests/test_exactalg.py",)
ENVELOPES = ("tests/test_envelopes.py",)

WORDS = "src/sweepwords/words.py"
GRAPHS = "src/sweepwords/graphs.py"
EXACTALG = "src/sweepwords/exactalg.py"
CLI = "src/sweepwords/cli.py"

# (name, file, fragment, replacement, tests)
MUTANTS = [
    # the word grid and its string form
    (
        "grid without the reversal",
        WORDS,
        "v[i] + v[j][::-1]",
        "v[i] + v[j]",
        CHAIN,
    ),
    (
        "string form refused from g = 26",
        WORDS,
        "if g > len(_ALPHA):",
        "if g >= len(_ALPHA):",
        CHAIN,
    ),
    # the index chain and the partition unfolded from it
    (
        "chain residue off by one",
        WORDS,
        "i, j = i_next + 1, j_next + 1",
        "i, j = i_next, j_next + 1",
        CHAIN,
    ),
    (
        "closing variable's endpoints swapped",
        WORDS,
        "(b + 1, j_next + 1, j)",
        "(b + 1, j, j_next + 1)",
        CHAIN,
    ),
    (
        "derive without the m copies",
        GRAPHS,
        "walks[(i, j)] = (walk,) * graph.m",
        "walks[(i, j)] = (walk,)",
        SEARCH,
    ),
    (
        "verify_partition comparing only a walk's first source and last target",
        GRAPHS,
        "if [i, *(v for _, v, _ in walk)] != [*(u for u, _, _ in walk), j]:",
        "if [i, *(v for _, v, _ in walk)][-1:] + [*(u for u, _, _ in walk), j][:1]"
        " != [j, i]:",
        SEARCH,
    ),
    (
        "verify_partition without the pair-key check",
        GRAPHS,
        "if walks.keys() != {(i, j) for i in side for j in side}:",
        "if False:",
        SEARCH,
    ),
    (
        "verify_partition without the word coverage",
        GRAPHS,
        """    return edges == Counter(graph.edges) and words == Counter(
        dict.fromkeys(all_words(graph.g, 2 * graph.d), graph.m)
    )""",
        "    return edges == Counter(graph.edges)",
        SEARCH,
    ),
    # reduced-cost pricing and fixing
    (
        "_reduced_costs without the factor m",
        GRAPHS,
        "b_z = graph.m * (sum(z_words) + sum(z_pairs))",
        "b_z = (sum(z_words) + sum(z_pairs))",
        SEARCH,
    ),
    (
        "_reduced_costs without the edge term",
        GRAPHS,
        "cost += uses * z_edges[edge]",
        "cost += 0",
        SEARCH,
    ),
    (
        "_reduced_costs without the pair-count check",
        GRAPHS,
        "\n        or len(z_pairs) != graph.n_vertices**2",
        "",
        SEARCH,
    ),
    (
        "_reduced_costs without the denominator check",
        GRAPHS,
        'cert["denominator"] < 1',
        "False",
        SEARCH,
    ),
    (
        "_fix_reduced_costs ignoring b^T z > 0",
        GRAPHS,
        "if priced is None or priced[0] > 0:",
        "if priced is None:",
        SEARCH,
    ),
    (
        "_fix_reduced_costs ignoring a negative cost",
        GRAPHS,
        "if min(costs, default=0) < 0:",
        "if False:",
        SEARCH,
    ),
    # the candidate-walk lister
    (
        "targets descending",
        GRAPHS,
        "adj.setdefault((u, label), []).append((v, edge))",
        "adj.setdefault((u, label), []).insert(0, (v, edge))",
        SEARCH,
    ),
    (
        "strict multiplicity test",
        GRAPHS,
        "any(uses > mult[edge] for edge, uses in usage)",
        "any(uses >= mult[edge] for edge, uses in usage)",
        SEARCH,
    ),
    (
        "steps sorted by edge id",
        GRAPHS,
        "steps = tuple(map(shared.setdefault, usage, usage))",
        "steps = tuple(sorted(map(shared.setdefault, usage, usage)))",
        SEARCH,
    ),
    (
        "no pair sort",
        GRAPHS,
        "walks.sort(key=itemgetter(0))",
        "None",
        SEARCH,
    ),
    (
        "a truncated walk list",
        GRAPHS,
        "walks_by_word.append(walks)",
        "walks_by_word.append(walks[:-1])",
        SEARCH,
    ),
    # the search engine
    (
        "word sort key with its fields swapped",
        GRAPHS,
        "key=lambda walks: (len({pair for pair, _ in walks}), len(walks))",
        "key=lambda walks: (len(walks), len({pair for pair, _ in walks}))",
        SEARCH,
    ),
    (
        "jump one walk past a full pair's run",
        GRAPHS,
        "idx = run_end\n",
        "idx = run_end + 1\n",
        SEARCH,
    ),
    # the prime-field kernel
    (
        "a row slice dropped",
        EXACTALG,
        "for lo in range(0, len(a), step):",
        "for lo in range(step, len(a), step):",
        KERNEL,
    ),
    (
        "no fold between chunks",
        EXACTALG,
        "acc = part if acc is None else _np_fold(acc + part)",
        "acc = part if acc is None else acc + part",
        KERNEL,
    ),
    (
        "D3 shifted by 3",
        EXACTALG,
        "+ (d[3] << 2)",
        "+ (d[3] << 3)",
        KERNEL,
    ),
    (
        "carry (x0 * y0) >> 32 dropped in _shoup",
        EXACTALG,
        "t = x1 * y0 + ((x0 * y0) >> 32)",
        "t = x1 * y0",
        KERNEL,
    ),
    (
        "unreduced _mulmod",
        EXACTALG,
        "return np.where(r >= p, r - p, r).view(np.int64)",
        "return r.view(np.int64)",
        KERNEL,
    ),
    (
        "_mulmod subtracts p only above p",
        EXACTALG,
        "return np.where(r >= p, r - p, r).view(np.int64)",
        "return np.where(r > p, r - p, r).view(np.int64)",
        KERNEL,
    ),
    (
        "_sub_mod computes b - a",
        EXACTALG,
        "np.subtract(d, b.view(np.uint64), out=d)",
        "np.subtract(b.view(np.uint64), d, out=d)",
        KERNEL,
    ),
    # elimination
    (
        "window update one column short",
        EXACTALG,
        "hi = W + i + 1",
        "hi = W + i",
        KERNEL,
    ),
    (
        "pivot-row multiplier of 0",
        EXACTALG,
        "f[i] = (1 - inv) % p",
        "f[i] = 0",
        KERNEL,
    ),
    (
        "window failures ignored",
        EXACTALG,
        "while nz.size == 0 and W < width:",
        "while False:",
        KERNEL,
    ),
    (
        "one widening instead of a loop",
        EXACTALG,
        "while nz.size == 0 and W < width:",
        "if nz.size == 0 and W < width:",
        KERNEL,
    ),
    (
        "widened columns taken from w instead of T @ w",
        EXACTALG,
        "grown = _matmul(a[:, W:], w[:, W:wider], p)",
        "grown = w[:, W:wider].copy()",
        KERNEL,
    ),
    (
        "new rows placed above the old ones",
        EXACTALG,
        "basis = np.concatenate([old, fresh])",
        "basis = np.concatenate([fresh, old])",
        KERNEL,
    ),
    (
        "free columns updated as if the pivots were the leftmost",
        EXACTALG,
        "piv, free = np.concatenate([piv, free[cols]]), free[keep]",
        "piv, free = np.concatenate([piv, free[cols]]), free[len(cols) :]",
        KERNEL,
    ),
    # the determinants
    (
        "_perm_sign starting from even",
        EXACTALG,
        "odd = len(perm) % 2",
        "odd = 0",
        DETERMINANT,
    ),
    (
        "discriminant without its prime-field refusal",
        EXACTALG,
        '''    if ring.kind != "big_integer":
        raise InvalidInput("discriminant takes integer matrices only")
''',
        "",
        DETERMINANT,
    ),
    # the envelope bytes
    (
        "paper_refs renamed",
        CLI,
        '"paper_refs": _CLAIMS[args.command],',
        '"paper_ref": _CLAIMS[args.command],',
        ENVELOPES,
    ),
    (
        "graph csv header from renamed src",
        CLI,
        'writer.writerow(["from", "to", "label", "mult"])',
        'writer.writerow(["src", "to", "label", "mult"])',
        ENVELOPES,
    ),
    (
        "text separator changed",
        CLI,
        'lines.append(f"{prefix}: {value}")',
        'lines.append(f"{prefix}= {value}")',
        ENVELOPES,
    ),
]

# a mutant's tests that take this many times their unmutated run time
# count as failed
TIMEOUT_FACTOR = 3

# mutant name -> why no test can tell it from the original code
EXPECTED_SURVIVORS = {
    "_mulmod subtracts p only above p": (
        "r = p would need p | x * w with 0 <= x, w < p, so x or w is 0, and "
        "then r = 0"
    ),
}


# a pytest plugin, loaded from the copy, that registers a hypothesis profile
# without the shrink phase: a failing example is reported as found instead
# of shrunk, which took up to a minute per mutant
_PLUGIN = "mutants_profile"
_PLUGIN_SOURCE = """
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
"""


def _copy_tree(dest: str) -> None:
    for name in ("src", "tests", "tools"):
        shutil.copytree(
            os.path.join(ROOT, name),
            os.path.join(dest, name),
            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
        )
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)
    with open(os.path.join(dest, _PLUGIN + ".py"), "w", encoding="utf-8") as fh:
        fh.write(_PLUGIN_SOURCE)


def _run_tests(work: str, tests: tuple[str, ...], timeout: float | None = None):
    """(whether the tests pass, seconds taken) in the copy at `work`.

    Tests still running after `timeout` seconds do not pass, since a
    mutant can make a loop endless.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(work, "src"), work]))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    argv += ["-p", _PLUGIN, "--hypothesis-profile=mutants"]
    argv += ["--hypothesis-seed=0", *tests]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=work, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    seconds = time.perf_counter() - start
    # 1: a test failed; 2: interrupted, as by a mutant that breaks
    # collection; 3 and up: pytest itself or the selection is broken
    if proc.returncode > 2:
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}")
    return proc.returncode == 0, seconds


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="sweepwords-mutants-") as work:
        _copy_tree(work)
        timeouts = {}
        for tests in dict.fromkeys(mut[4] for mut in MUTANTS):
            passed, seconds = _run_tests(work, tests)
            if not passed:
                print(f"ERROR    the unmutated code fails {' '.join(tests)}")
                return 1
            timeouts[tests] = TIMEOUT_FACTOR * seconds
            print(f"baseline {seconds:5.1f} s  {' '.join(tests)}")
        for name, path, fragment, replacement, tests in MUTANTS:
            target = os.path.join(work, path)
            with open(target, encoding="utf-8") as fh:
                source = fh.read()
            found = source.count(fragment)
            if found != 1:
                print(f"ERROR    {name}: the fragment occurs {found} times in {path}")
                failures += 1
                continue
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(source.replace(fragment, replacement))
            try:
                survived, seconds = _run_tests(work, tests, timeouts[tests])
            finally:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(source)
            if survived == (name in EXPECTED_SURVIVORS):
                status = "expected" if survived else "killed"
            else:
                # a survivor that is not expected, or an expected one killed
                status = "SURVIVED" if survived else "KILLED"
                failures += 1
            print(f"{status:8} {seconds:5.1f} s  {name}")
    print(f"{len(MUTANTS)} mutants, {failures} unexpected outcomes")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
