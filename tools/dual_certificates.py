"""Write the dual certificates that `graphs.enumerate_partitions` prunes with.

    PYTHONPATH=src python tools/dual_certificates.py [G,D ...]

For each level (g, d), default every level listed in LEVELS, this solves
the LP dual of the walk-partition polytope P = {x >= 0 : Ax = b} of
`build_graph(g, d)`.  Its columns are the candidate walks that
`graphs._candidate_walks` lists, and its rows are the ones the search
checks: m walks per word, m walks per ordered vertex pair, and each edge
used exactly its multiplicity.  With c' = 1 on every walk that is not a
walk of `derive_walks_from_certificate` and 0 on those, it minimizes
b^T z subject to A^T z >= c' with scipy's HiGHS, rounds each z with
`Fraction.limit_denominator`, and checks the rounded z exactly at m = 1
and m = 2.  The check prices every column with `graphs._reduced_costs`,
the function the search prices with, so a certificate whose denominator
is below 1 or whose word or pair entries do not fit the graph is refused
here as it is there; it then requires A^T z >= c' on every column and
b^T z <= 0.  That implies the check the search makes on every run
(A^T z >= 0 and b^T z <= 0).  Only a z that passes is written, to
src/sweepwords/duals/g{g}d{d}.json.  Such a z proves that the
certificate's walks form the level's one partition at every m (Farkas'
lemma: c'^T x <= z^T A x = z^T b <= 0 for every x in P).

scipy is not a dependency of sweepwords; only `solve` imports it, so the
tests import this module and run `check` without it.  Neither the tests
nor the package run `solve`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import lcm

from sweepwords.graphs import (
    DUALS_DIR,
    _candidate_walks,
    _reduced_costs,
    build_graph,
    derive_walks_from_certificate,
)
from sweepwords.words import all_words

# the levels whose LP HiGHS solves in well under a second; (2, 4) and (3, 3)
# took ~260 s each
LEVELS = [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3)]
# largest denominator a rounded dual entry may take
MAX_DENOMINATOR = 1000


def lp_columns(g: int, d: int, m: int):
    """(graph, words, edge keys, walks by word, c') of the level's LP.

    The columns are the walks `_candidate_walks` lists, word by word, as
    (pair index, ((edge id, uses), ...)); c' holds their costs, in that
    order.
    """
    graph = build_graph(g, d, m)
    words = all_words(g, 2 * d)
    keys = sorted(graph.edges)
    edge_id = {key: idx for idx, key in enumerate(keys)}
    n_side = graph.n_vertices
    certified = set()
    for (i, j), (walk, *_) in derive_walks_from_certificate(graph).items():
        # the m copies of a pair's walk are one column
        usage = tuple(sorted(Counter(edge_id[e] for e in walk).items()))
        letters = tuple(label for _, _, label in walk)
        certified.add((letters, (i - 1) * n_side + j - 1, usage))
    _, walks_by_word = _candidate_walks(graph, words)
    c_prime = [
        0 if (letters, pair, tuple(sorted(steps))) in certified else 1
        for letters, walks in zip(words, walks_by_word)
        for pair, steps in walks
    ]
    return graph, words, keys, walks_by_word, c_prime


def solve(graph, words, keys, walks_by_word, c_prime) -> list[float]:
    """An optimal z of min b^T z s.t. A^T z >= c', rows words | pairs | edges."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_array

    n_words, n_pairs = len(words), graph.n_vertices**2
    rows, cols, vals = [], [], []
    columns = [(w, *walk) for w, walks in enumerate(walks_by_word) for walk in walks]
    for c, (w, pair, steps) in enumerate(columns):
        entries = [(w, 1), (n_words + pair, 1)]
        entries += [(n_words + n_pairs + edge, uses) for edge, uses in steps]
        for r, v in entries:
            rows.append(c)
            cols.append(r)
            vals.append(-v)
    n_rows = n_words + n_pairs + len(keys)
    a_t = coo_array((vals, (rows, cols)), shape=(len(columns), n_rows)).tocsr()
    b = np.array([1] * (n_words + n_pairs) + [graph.edges[k] for k in keys], float)
    b_ub = np.array([-c for c in c_prime], float)
    res = linprog(b, A_ub=a_t, b_ub=b_ub, bounds=(None, None), method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"HiGHS stopped: {res.message}")
    return list(res.x)


def check(g: int, d: int, m: int, cert: dict) -> bool:
    """Whether A^T z >= c' on every column and b^T z <= 0 at scale m.

    `graphs._reduced_costs` prices the columns and refuses a certificate
    whose shape does not fit, as the search does.
    """
    graph, _, _, walks_by_word, c_prime = lp_columns(g, d, m)
    priced = _reduced_costs(graph, walks_by_word, cert)
    if priced is None:
        return False
    b_z, costs_by_word = priced
    den = cert["denominator"]
    costs = chain.from_iterable(costs_by_word)
    return b_z <= 0 and all(cost >= den * c for cost, c in zip(costs, c_prime))


def certificate(g: int, d: int) -> dict:
    """The rounded dual of level (g, d) as integer numerators over one denominator."""
    graph, words, keys, walks_by_word, c_prime = lp_columns(g, d, 1)
    z = solve(graph, words, keys, walks_by_word, c_prime)
    z = [Fraction(x).limit_denominator(MAX_DENOMINATOR) for x in z]
    den = lcm(*(q.denominator for q in z))
    nums = [int(q * den) for q in z]
    n_words, n_pairs = len(words), graph.n_vertices**2
    return {
        "g": g,
        "d": d,
        "denominator": den,
        "words": nums[:n_words],
        "pairs": nums[n_words : n_words + n_pairs],
        "edges": [[*key, z] for key, z in zip(keys, nums[n_words + n_pairs :])],
    }


def dumps(cert: dict) -> str:
    """One key per line, each list on one line."""
    body = ",\n".join(
        f" {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
        for key, value in cert.items()
    )
    return "{\n" + body + "\n}\n"


def main(argv: list[str]) -> int:
    levels = [tuple(map(int, arg.split(","))) for arg in argv] or LEVELS
    for g, d in levels:
        start = time.perf_counter()
        cert = certificate(g, d)
        seconds = time.perf_counter() - start
        if not all(check(g, d, m, cert) for m in (1, 2)):
            print(f"g={g} d={d}: the rounded dual fails the exact check; not written")
            return 1
        path = os.path.join(DUALS_DIR, f"g{g}d{d}.json")
        with open(path, "w") as fh:
            fh.write(dumps(cert))
        print(
            f"g={g} d={d}: {seconds:.2f} s, denominator {cert['denominator']}, "
            f"wrote {path}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
