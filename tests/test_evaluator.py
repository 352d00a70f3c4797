"""Differential tests of the word evaluator, its two product backends and the
span growth of `subspace_length`.

Over every prime field products run through the `_matmul` kernel; over the
integers they are Python-int products.  The oracle evaluates one word at
a time through a prefix cache of left-to-right pure-Python `Matrix.mul`
products; it shares nothing with the evaluator under test but `Matrix`.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluate_blocks, evaluate_word, extend_rank, identity
from sweepwords import exactalg
from sweepwords.exactalg import (
    _BATCH,
    MERSENNE61,
    Matrix,
    _matmul,
    _prefix_products,
    big_integer,
    letter_stack,
    prime_field,
)
from sweepwords.genericity import subspace_length
from sweepwords.witness import build_witness
from sweepwords.words import all_words, build_word_grid

RINGS = {
    "mersenne61": prime_field(MERSENNE61),
    "p61m31": prime_field((1 << 61) - 31),
    "p1009": prime_field(1009),
    "integers": big_integer(),
}


def oracle_evaluate_words(
    words: list[tuple[int, ...]], t: tuple[Matrix, ...]
) -> list[Matrix]:
    cache = {(k,): m for k, m in enumerate(t, start=1)}

    def ev(letters):
        got = cache.get(letters)
        if got is None:
            got = ev(letters[:-1]).mul(cache[(letters[-1],)])
            cache[letters] = got
        return got

    return [ev(w) for w in words]


def random_tuple(n: int, g: int, ring, rng: random.Random) -> tuple[Matrix, ...]:
    def draw():
        if ring.kind == "prime_field":
            return rng.randrange(ring.p)
        return rng.randrange(-(10**30), 10**30)

    return tuple(
        Matrix(n, n, tuple(draw() for _ in range(n * n)), ring) for _ in range(g)
    )


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 14, 20])
def test_grid_matches_oracle(n, g):
    ring = RINGS["mersenne61"]
    words = build_word_grid(n, g).flatten()
    t = random_tuple(n, g, ring, random.Random(n * 10 + g))
    assert evaluate_blocks(words, t) == oracle_evaluate_words(words, t)


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
def test_grid_matches_oracle_on_every_ring(ring):
    words = build_word_grid(4, 2).flatten()
    t = random_tuple(4, 2, ring, random.Random(4))
    assert evaluate_blocks(words, t) == oracle_evaluate_words(words, t)


@pytest.mark.parametrize(
    "ring", [r for r in RINGS.values() if r.kind == "prime_field"]
)
def test_all_entries_p_minus_one(ring):
    n, g = 5, 2
    top = Matrix(n, n, (ring.p - 1,) * (n * n), ring)
    t = (top,) * g
    words = build_word_grid(n, g).flatten() + [(1,), (2, 1, 2)]
    assert evaluate_blocks(words, t) == oracle_evaluate_words(words, t)


@st.composite
def word_lists(draw):
    g = draw(st.integers(2, 3))
    letters = st.lists(st.integers(1, g), min_size=1, max_size=7)
    words = draw(st.lists(letters, min_size=1, max_size=12))
    # repeat some words verbatim
    words += draw(st.lists(st.sampled_from(words), max_size=3))
    return g, [tuple(w) for w in words]


@settings(max_examples=60, deadline=None)
@given(
    case=word_lists(),
    n=st.integers(1, 4),
    ring_name=st.sampled_from(sorted(RINGS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_word_lists_match_oracle(case, n, ring_name, seed):
    g, words = case
    ring = RINGS[ring_name]
    t = random_tuple(n, g, ring, random.Random(seed))
    expected = oracle_evaluate_words(words, t)
    assert evaluate_blocks(words, t) == expected
    assert [evaluate_word(w, t) for w in words] == expected


# --- the Python-int backend, at the sizes it serves -------------------------


def negated(t: tuple[Matrix, ...], rng: random.Random) -> tuple[Matrix, ...]:
    """t with a random half of its entries negated."""
    return tuple(
        Matrix(m.n_rows, m.n_cols, tuple(-x if rng.random() < 0.5 else x
                                         for x in m.entries), m.ring)
        for m in t
    )


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("n", range(2, 10))
def test_integer_grid_matches_oracle(n, g):
    rng = random.Random(100 * n + g)
    words = build_word_grid(n, g).flatten()
    _, witness = build_witness(n, g)
    for t in (
        witness,
        negated(witness, rng),
        random_tuple(n, g, RINGS["integers"], rng),
    ):
        assert exactalg.evaluate_words(words, t) == oracle_evaluate_words(words, t)


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 8, 14])
@pytest.mark.parametrize("p", [101, (1 << 61) - 31], ids=["p101", "p61m31"])
def test_prime_grid_matches_oracle(n, g, p):
    ring = prime_field(p)
    words = build_word_grid(n, g).flatten()
    t = random_tuple(n, g, ring, random.Random(10 * n + g))
    assert evaluate_blocks(words, t) == oracle_evaluate_words(words, t)


def oracle_dims(t: tuple[Matrix, ...], include_identity: bool) -> list[int]:
    """rank of the words of length <= k, for k = 1, 2, .. up to the first
    repeat, the words evaluated by the oracle."""
    n, ring = t[0].n_rows, t[0].ring
    evals = [identity(n, ring)] if include_identity else []
    dims: list[int] = []
    for k in range(1, n * n + 2):
        evals += oracle_evaluate_words(all_words(len(t), k), t)
        dims.append(extend_rank(evals))
        if len(dims) > 1 and dims[-1] == dims[-2]:
            return dims
    raise AssertionError("the chain did not stabilize")


@pytest.mark.parametrize("include_identity", [False, True])
@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subspace_length_dims_match_oracle(n, g, include_identity):
    # over F_101 entries drawn from {0, 1} give degenerate chains, and from
    # {0, .., 100} generic ones
    ring = prime_field(101)
    rng = random.Random(1000 * n + 10 * g + include_identity)
    for hi in (2, 101, 2, 101):
        t = tuple(
            Matrix(n, n, tuple(rng.randrange(hi) for _ in range(n * n)), ring)
            for _ in range(g)
        )
        report = subspace_length(t, include_identity=include_identity)
        assert list(report.dims) == oracle_dims(t, include_identity)


def test_empty_word_list():
    for ring in (RINGS["mersenne61"], RINGS["integers"]):
        assert evaluate_blocks([], random_tuple(2, 2, ring, random.Random(0))) == []
    t = random_tuple(2, 2, RINGS["integers"], random.Random(0))
    assert exactalg.evaluate_words([], t) == []


@pytest.mark.parametrize("k", [1, 511, 512, 513, 700])
def test_matmul_m61_across_the_chunk_boundary(k):
    rng = random.Random(k)
    p = MERSENNE61
    a = [[rng.randrange(p) for _ in range(k)] for _ in range(3)]
    b = [[rng.randrange(p) for _ in range(4)] for _ in range(k)]
    a[0] = [p - 1] * k  # largest limbs: the exactness bound is tightest here
    for row in b:
        row[0] = p - 1
    got = _matmul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
    expected = [
        [sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(4)]
        for i in range(3)
    ]
    assert got.tolist() == expected


def test_matmul_m61_stacked():
    rng = random.Random(1)
    p = MERSENNE61
    a = [[[rng.randrange(p) for _ in range(6)] for _ in range(2)] for _ in range(5)]
    b = [[[rng.randrange(p) for _ in range(3)] for _ in range(6)] for _ in range(5)]
    got = _matmul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
    for s in range(5):
        for i in range(2):
            for j in range(3):
                assert int(got[s, i, j]) == sum(
                    a[s][i][t] * b[s][t][j] for t in range(6)
                ) % p


@pytest.mark.parametrize("k", [_BATCH - 1, _BATCH, _BATCH + 1])
def test_matmul_m61_batch_chunks_equal_one_call(k, monkeypatch):
    rng = np.random.default_rng(k)
    a = rng.integers(0, MERSENNE61, size=(k, 3, 4), dtype=np.int64)
    b = rng.integers(0, MERSENNE61, size=(k, 4, 2), dtype=np.int64)
    a[-1] = MERSENNE61 - 1  # largest limbs in the last pair, past any chunk edge
    calls = []
    kernel = exactalg._matmul

    def counted(x, y, p):
        calls.append(len(x))
        return kernel(x, y, p)

    monkeypatch.setattr(exactalg, "_matmul", counted)
    chunked = exactalg._matmul(a, b, MERSENNE61)
    # one call, or one outer call and then one per chunk
    assert calls == ([k] if k <= _BATCH else [k, _BATCH, k - _BATCH])
    monkeypatch.setattr(exactalg, "_BATCH", 10 * k)
    whole = kernel(a, b, MERSENNE61)
    assert chunked.dtype == np.int64
    assert np.array_equal(chunked, whole)
    for s in (0, k // 2, k - 1):
        assert chunked[s].tolist() == [
            [sum(int(a[s, i, t]) * int(b[s, t, j]) for t in range(4)) % MERSENNE61
             for j in range(2)]
            for i in range(3)
        ]


@pytest.mark.parametrize("ring", list(RINGS.values()), ids=list(RINGS))
def test_prefix_products_keep_only_the_halves(ring):
    # the trie passes through every prefix, but only the halves are kept
    t = random_tuple(3, 3, ring, random.Random(4))
    halves = {(), (2,), (1, 3, 2), (3, 3, 3, 1), (3, 3)}
    index, stack = _prefix_products(halves, letter_stack(t))
    assert sorted(index) == sorted(halves)
    assert sorted(index.values()) == list(range(len(halves)))
    assert len(stack) == len(halves)
    rows = [tuple(map(int, row)) for row in stack]
    for h, row in index.items():
        expected = (
            identity(3, ring)
            if not h
            else oracle_evaluate_words([h], t)[0]
        )
        assert tuple(rows[row]) == expected.entries
