"""Acceptance suite: one test per top-level criterion, each printing a
single PASS/FAIL line (run with -s to see them as they complete).

All checks are exact -- determinants over F_p or the integers, exhaustive
search counts, and combinatorial equalities -- so there are no numeric
tolerances anywhere; the only stated budgets are wall-clock expectations
and the search-node cap, both asserted as given.
"""

import json
import random
import time
from collections import Counter

from conftest import (
    evaluate_word,
    extend_rank,
    mat,
    mat_scale,
    monomial_coefficient_bruteforce,
    prime_discriminant,
)
from sweepwords import exactalg, words
from sweepwords.exactalg import discriminant, prime_field
from sweepwords.genericity import (
    DEFAULT_PRIME,
    generic_length_experiment,
    grid_certification,
    sample_tuple,
    subspace_length,
)
from sweepwords.graphs import (
    build_graph,
    derive_walks_from_certificate,
    enumerate_partitions,
    verify_partition,
)
from sweepwords.witness import build_and_verify
from sweepwords.words import build_word_grid, certificate_monomial, least_alphabet

FP = prime_field(DEFAULT_PRIME)


def report(number: int, ok: bool, detail: str):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_grid_certification_at_desk_scale():
    t0 = time.time()
    failures = []
    for g, sizes in [(2, range(2, 17)), (3, range(3, 10))]:
        for n in sizes:
            rep = grid_certification(n, g, p=DEFAULT_PRIME, trials=3, seed=0)
            if rep.successes != 3:
                failures.append((g, n, rep.successes))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    report(1, ok, f"g=2 n=2..16 and g=3 n=3..9 all 3/3, {elapsed:.1f}s; failures={failures}")


def test_criterion_2_partition_uniqueness_and_derivation():
    t0 = time.time()
    bad_counts = []
    for g, d, m in [(2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1)]:
        count = enumerate_partitions(build_graph(g, d, m), cap=2, budget=10**8)
        if count != 1:
            bad_counts.append((g, d, m, count))
    bad_verify = []
    for g, d in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        graph = build_graph(g, d)
        if not verify_partition(graph, derive_walks_from_certificate(graph)):
            bad_verify.append((g, d))
    elapsed = time.time() - t0
    ok = not bad_counts and not bad_verify and elapsed < 120.0
    report(2, ok, f"counts all 1, derived partitions verify, {elapsed:.1f}s")


def test_criterion_3_graph_shape_and_pinned_multiplicities():
    count_errors = []
    for g in (2, 3):
        for d in (1, 2, 3):
            for m in (1, 2):
                total = sum(build_graph(g, d, m).edges.values())
                if total != m * 2 * d * g ** (2 * d):
                    count_errors.append((g, d, m, total))
    fig1 = build_graph(2, 1).edges == {(1, 1, 1): 4, (1, 2, 2): 2, (2, 1, 2): 2}
    fig2 = build_graph(2, 2).edges == {
        (1, 1, 1): 24,
        (2, 2, 1): 8,
        (1, 2, 2): 8,
        (2, 1, 2): 8,
        (1, 3, 2): 4,
        (3, 1, 2): 4,
        (2, 4, 2): 4,
        (4, 2, 2): 4,
    }
    ok = not count_errors and fig1 and fig2
    report(3, ok, f"edge counts match m*2d*g^2d; level-1/level-2 multiplicities exact")


def test_criterion_4_certificate_isolates_identity_at_n2():
    grid = build_word_grid(2, 2)
    mono = certificate_monomial(2, 2)
    coeff, hits = monomial_coefficient_bruteforce(grid, mono)
    ok = coeff == 1 and hits == 0
    report(4, ok, f"identity coefficient {coeff}, non-identity hits {hits} over all 24 permutations")


def test_criterion_5_generic_length_experiment():
    t0 = time.time()
    problems = []
    for n in range(2, 11):
        summary = generic_length_experiment(n, 2, p=DEFAULT_PRIME, trials=5, seed=0)
        for rep in summary.reports:
            if rep.length > rep.log_bound or rep.length > rep.paz_bound:
                problems.append((n, rep.length))
            dims = rep.dims
            increasing = all(dims[i] < dims[i + 1] for i in range(len(dims) - 2))
            stabilized = dims[-1] == dims[-2]
            if not (increasing and stabilized):
                problems.append((n, dims))
    elapsed = time.time() - t0
    ok = not problems and elapsed < 60.0
    report(5, ok, f"n=2..10, 5 seeds: lengths within both bounds, chains clean, {elapsed:.1f}s")


def test_criterion_6_rosenthal_spanning():
    # the grid of (n, gbar, d) is n^2 degree-2d words over the first gbar
    # letters, so its certification proves that all g^(2d) words of degree
    # 2d span, for every g >= gbar
    failures = []
    for n, g, d in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (8, 2, 3), (9, 3, 2)]:
        gbar = least_alphabet(n, d)
        assert gbar <= g
        for seed in range(3):
            rep = grid_certification(n, gbar, p=DEFAULT_PRIME, trials=1, seed=seed, d=d)
            if not rep.certified:
                failures.append((n, g, d, seed))
    report(6, not failures, f"all degree-2d word sets span at 3 seeds each; failures={failures}")


def test_criterion_7_symmetric_tuples_sweep():
    failures = []
    for n in range(2, 9):
        for seed in range(3):
            rep = grid_certification(n, 2, trials=1, seed=seed, symmetric=True)
            if not rep.certified:
                failures.append((n, seed))
    report(7, not failures, f"symmetric samples sweep for n=2..8, 3 seeds each; failures={failures}")


def test_criterion_8_integer_witnesses():
    failures = []
    reproducible = True
    for n in range(2, 9):
        rep1, _ = build_and_verify(n, 2)
        rep2, _ = build_and_verify(n, 2)
        if rep1.discriminant == 0 or rep1.escalations > 3:
            failures.append((n, rep1.escalations))
        if json.dumps(rep1.to_json(), sort_keys=True) != json.dumps(
            rep2.to_json(), sort_keys=True
        ):
            reproducible = False
    ok = not failures and reproducible
    report(8, ok, f"n=2..8 witnesses nonzero with <= 3 escalations, byte-identical reruns")


def test_criterion_9_cross_backend_consistency():
    rng = random.Random(1234)
    zz = exactalg.big_integer()
    p = DEFAULT_PRIME
    mismatches = 0
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        rows_list = [
            [[rng.randrange(-(10**12), 10**12) for _ in range(n)] for _ in range(n)]
            for _ in range(n * n)
        ]
        dz = discriminant([mat(rows, zz) for rows in rows_list])
        dp = prime_discriminant([mat(rows, FP) for rows in rows_list])
        if dz % p != dp:
            mismatches += 1
    report(9, mismatches == 0, f"20 random fixtures, integer mod p == F_p path, mismatches={mismatches}")


def test_criterion_10a_monoid_homomorphism():
    rng = random.Random(100)
    cases = 0
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        g = rng.choice([2, 3])
        t = sample_tuple(n, g, FP, rng)
        u = tuple(rng.randrange(1, g + 1) for _ in range(rng.randrange(1, 5)))
        v = tuple(rng.randrange(1, g + 1) for _ in range(rng.randrange(1, 5)))
        assert evaluate_word(u + v, t) == evaluate_word(
            u, t
        ).mul(evaluate_word(v, t))
        cases += 1
    report(10, cases == 100, "property suite a: evaluate_word is a monoid homomorphism, 100 cases")


def test_criterion_10b_alternating_discriminant():
    rng = random.Random(101)
    p = DEFAULT_PRIME
    for _ in range(100):
        n = rng.choice([2, 3])
        ms = [
            mat([[rng.randrange(p) for _ in range(n)] for _ in range(n)], FP)
            for _ in range(n * n)
        ]
        i, j = rng.sample(range(n * n), 2)
        swapped = list(ms)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert prime_discriminant(swapped) == (-prime_discriminant(ms)) % p
    report(10, True, "property suite b: discriminant alternates under swaps, 100 cases")


def test_criterion_10c_chain_monotonicity():
    rng = random.Random(102)
    for case in range(100):
        n = rng.choice([2, 3, 4])
        g = rng.choice([2, 3])
        t = sample_tuple(n, g, FP, rng)
        rep = subspace_length(t)
        dims = rep.dims
        assert all(dims[i] <= dims[i + 1] for i in range(len(dims) - 1))
        assert all(dims[i] < dims[i + 1] for i in range(len(dims) - 2))
        assert dims[-1] == dims[-2]
        if case % 10 == 0:
            # once stabilized, forever stabilized: one extra growth step
            evals = []
            for length in range(1, rep.length + 3):
                for word in words.all_words(g, length):
                    evals.append(evaluate_word(word, t))
                if length >= rep.length:
                    assert extend_rank(evals) == rep.terminal_dim
    report(10, True, "property suite c: chains strictly increase then stay, 100 cases")


def test_criterion_10d_peeling():
    rng = random.Random(103)
    pairs = [(2, 2), (2, 3), (3, 2)]
    for case in range(100):
        g, d = pairs[case % 3]
        m = rng.randrange(1, 5)
        graph = build_graph(g, d, m)
        remaining = Counter(graph.edges)
        for walks in derive_walks_from_certificate(graph).values():
            for walk in walks:
                remaining[walk[0]] -= 1
                remaining[walk[-1]] -= 1
        peeled = {k: v for k, v in remaining.items() if v}
        assert peeled == build_graph(g, d - 1, g * g * m).edges
    report(10, True, "property suite d: peeling outer edges leaves the scaled previous level, 100 cases")


def test_criterion_10e_scale_invariance():
    rng = random.Random(104)
    for _ in range(100):
        n = rng.choice([2, 3])
        g = rng.choice([2, 3])
        t = sample_tuple(n, g, FP, rng)
        c = rng.randrange(1, DEFAULT_PRIME)
        scaled = tuple(mat_scale(m, c) for m in t)
        assert subspace_length(t).dims == subspace_length(scaled).dims
    report(10, True, "property suite e: length chains are scale-invariant, 100 cases")
