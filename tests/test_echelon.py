"""Differential tests for the prime-field kernel and everything built on it.

Every prime field runs one kernel: the limb products of `_matmul`, their
p-dependent recombination `_recombine`, Shoup's product `_mulmod`, and
the blocked elimination of `echelon_extend` (with its in-block window
that widens on demand), on which the determinant `_det_echelon`,
`span_insert` and the length chains are built.
Each is checked at primes from 2 to the largest below 2^62 that
`ScalarRing` accepts: the kernel against Python-int products,
`echelon_extend` (leads included) against a fold of the row-at-a-time
`echelon_insert` of conftest, and the rest against the independent
oracles there.  `echelon_extend` keeps its basis compact (the rows on
the free columns only), so full rows go in as rows[:, free], and the rows
it returns are compared after `_echelon_rows` rebuilds them.  Over the
integers every one of them refuses to eliminate.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    echelon_insert,
    empty_basis,
    extend_rank,
    prime_discriminant,
    pure_det,
    rank_fractions,
)
from sweepwords import exactalg
from sweepwords.errors import InvalidInput
from sweepwords.exactalg import (
    MERSENNE61,
    Matrix,
    MatrixTuple,
    _matmul,
    _mulmod,
    big_integer,
    echelon_extend,
    prime_field,
    span_insert,
)
from sweepwords.genericity import subspace_length

# the smallest prime, a small one, word-size ones around 2^31 and 2^61 (the
# default 2^61 - 1 among them), and the largest prime below 2^62
PRIMES = [2, 101, (1 << 31) - 1, (1 << 61) - 31, MERSENNE61, (1 << 62) - 57]


def _columns(a, n, ring):
    """The n^2 matrices whose vectorizations are the columns of a (n^2 x n^2)."""
    nn = n * n
    return [
        Matrix(n, n, tuple(ring.canon(a[i][k]) for i in range(nn)), ring)
        for k in range(nn)
    ]


def _vectors(vs, n, ring):
    return [Matrix(n, n, tuple(ring.canon(x) for x in v), ring) for v in vs]


@st.composite
def square_systems(draw, n_max):
    """(n, a) with a an n^2 x n^2 matrix: full-range or 0/1 entries."""
    n = draw(st.integers(1, n_max))
    nn = n * n
    rng = draw(st.randoms(use_true_random=False))
    # 0/1 entries make zero pivots and singular matrices common; the full
    # range is reduced mod p by `_columns`
    hi = draw(st.sampled_from([2, 1 << 62]))
    return n, [[rng.randrange(hi) for _ in range(nn)] for _ in range(nn)]


@st.composite
def planted_families(draw, n_max=4):
    """(n, vectors, r): r independent vectors plus integer combinations.

    The r basis vectors have an r x r minor that is unit lower triangular,
    so they are independent over Q and over every prime field, and every
    other vector is an integer combination of them: the rank is r over
    every prime field.  There may be more vectors than n^2.
    """
    n = draw(st.integers(1, n_max))
    nn = n * n
    rng = draw(st.randoms(use_true_random=False))
    r = draw(st.integers(0, nn))
    count = draw(st.integers(max(r, 1), nn + 4))
    cols = rng.sample(range(nn), r)
    basis = []
    for i in range(r):
        v = [rng.randrange(-3, 4) for _ in range(nn)]
        for j, c in enumerate(cols):
            if j >= i:
                v[c] = int(j == i)
        basis.append(v)
    vectors = list(basis)
    for _ in range(count - r):
        coeffs = [rng.randrange(-2, 3) for _ in basis]
        vectors.append(
            [sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(nn)]
        )
    rng.shuffle(vectors)
    return n, vectors, r


class TestDiscriminant:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PRIMES), square_systems(n_max=6))
    def test_matches_oracle(self, p, system):
        n, a = system
        assert prime_discriminant(_columns(a, n, prime_field(p))) == pure_det(a, p)

    @settings(max_examples=40, deadline=None)
    @given(square_systems(n_max=4))
    def test_mersenne_kernel_at_small_sizes(self, system):
        n, a = system
        ring = prime_field(MERSENNE61)
        assert prime_discriminant(_columns(a, n, ring)) == pure_det(a, MERSENNE61)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_late_pivots(self, p, n):
        # rows [[0, B], [C, D]] with a zero h x h top-left block: the first
        # h rows take pivots right of column h, so later rows sort before them;
        # redrawn until nonsingular, which small primes often are not
        rng = random.Random(n * 1000 + p % 997)
        nn, h = n * n, n * n // 2
        while True:
            a = [[rng.randrange(p) for _ in range(nn)] for _ in range(nn)]
            for i in range(h):
                a[i][:h] = [0] * h
            if pure_det(a, p):
                break
        assert prime_discriminant(_columns(a, n, prime_field(p))) == pure_det(a, p)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_duplicated_row_and_zero_column(self, p, n):
        rng = random.Random(n)
        nn = n * n
        a = [[rng.randrange(p) for _ in range(nn)] for _ in range(nn)]
        dup = [list(r) for r in a]
        dup[-1] = list(dup[nn // 2])
        assert prime_discriminant(_columns(dup, n, prime_field(p))) == 0
        for row in a:
            row[-1] = 0
        assert prime_discriminant(_columns(a, n, prime_field(p))) == 0


class TestRank:
    @settings(max_examples=60, deadline=None)
    @given(planted_families())
    def test_planted_rank(self, family):
        n, vectors, r = family
        assert rank_fractions(vectors) == r
        for p in PRIMES:
            assert extend_rank(_vectors(vectors, n, prime_field(p))) == r

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.randoms(use_true_random=False), st.data())
    def test_random_sign_vectors(self, n, rng, data):
        # entries in {-1, 0, 1} and at most 16 columns: every minor is at
        # most 4^16 = 2^32 by Hadamard's bound, so the rank modulo
        # every prime above 2^32 is the rational rank
        nn = n * n
        count = data.draw(st.integers(1, nn + 4))
        vectors = [[rng.randrange(-1, 2) for _ in range(nn)] for _ in range(count)]
        expected = rank_fractions(vectors)
        for p in ((1 << 61) - 31, MERSENNE61, (1 << 62) - 57):
            assert extend_rank(_vectors(vectors, n, prime_field(p))) == expected


class TestSpanInsertFold:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PRIMES), planted_families())
    def test_dimension_tracks_rank_of_every_prefix(self, p, family):
        ring = prime_field(p)
        n, vectors, _ = family
        ms = _vectors(vectors, n, ring)
        basis = empty_basis(n, ring)
        for k, m in enumerate(ms, start=1):
            before = len(basis.vectors)
            basis, inserted = span_insert(basis, m)
            assert len(basis.vectors) == extend_rank(ms[:k])
            assert inserted == (len(basis.vectors) == before + 1)
            assert len(basis.matrices) == len(basis.vectors)
        pivots = list(basis.pivots)
        assert pivots == sorted(set(pivots))
        for row, c in zip(basis.vectors, pivots):
            assert all(x == 0 for x in row[:c])
            assert row[c] == 1
            # fully reduced: every other row is zero in this pivot column
            assert sum(1 for other in basis.vectors if other[c]) == 1


BLOCK = exactalg._EXTEND_BLOCK
CHUNK = exactalg._CHUNK
ROWS = exactalg._ROWS


class TestKernel:
    """`_matmul` and `_mulmod` against Python-int products."""

    # three inner chunks (k = 2 * CHUNK + 1) take the fold after each
    # chunk's sum: random parts of three chunks can add past 2p
    @pytest.mark.parametrize(
        "k", [1, 32, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]
    )
    @pytest.mark.parametrize("p", PRIMES)
    def test_matmul_matches_python_ints(self, p, k):
        rng = random.Random(k * 7 + p % 1009)
        a = [[rng.randrange(p) for _ in range(k)] for _ in range(3)]
        b = [[rng.randrange(p) for _ in range(4)] for _ in range(k)]
        # all-(p - 1) rows and columns: the largest limb sums p allows
        a[0] = [p - 1] * k
        for row in b:
            row[0] = p - 1
        got = _matmul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
        assert got.dtype == np.int64
        assert got.tolist() == [
            [sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(4)]
            for i in range(3)
        ]
        # every entry p - 1: the largest limb sums in every row, which the
        # one-pass recombination must keep below 2^63, on both sides of
        # the row-chunk seam
        for n_rows in (ROWS, ROWS + 1):
            top = np.full((n_rows, k), p - 1, dtype=np.int64)
            got = _matmul(top, np.full((k, 4), p - 1, dtype=np.int64), p)
            assert got.tolist() == [[k * (p - 1) ** 2 % p] * 4] * n_rows

    @pytest.mark.parametrize("p", PRIMES)
    def test_mulmod_matches_python_ints(self, p):
        rng = random.Random(p % 1009)
        xs = [0, 1, p - 1] + [rng.randrange(p) for _ in range(500)]
        ws = [0, 1, p - 1] + [rng.randrange(p) for _ in range(5)]
        x = np.array(xs, dtype=np.int64)
        for w in ws:
            # one multiplier for every entry
            assert _mulmod(x, np.int64(w), p).tolist() == [v * w % p for v in xs]
        # one multiplier per row, as the elimination factors are
        got = _mulmod(x, np.array(ws, dtype=np.int64)[:, None], p)
        assert got.tolist() == [[v * w % p for v in xs] for w in ws]


def _fold(vectors, pivots, rows, p):
    """The oracle: `echelon_insert` folded over the rows, on copies of the basis.

    Returns (vectors, pivots, accepted, leads) with leads the (pivot
    column, lead) that `echelon_insert` reports for each accepted row.
    """
    vectors, pivots = list(vectors), list(pivots)
    accepted, leads = [], []
    for i, row in enumerate(rows):
        lead, pos = echelon_insert(vectors, pivots, row, p)
        if lead is not None:
            accepted.append(i)
            leads.append((pivots[pos], lead))
    return vectors, pivots, accepted, leads


def _dense_rows(rng, count, n_cols, p):
    return [[rng.randrange(p) for _ in range(n_cols)] for _ in range(count)]


def _compact(vectors, pivots, n_cols):
    """Full RREF rows as the compact basis of `echelon_extend`: rows[:, free]."""
    free = [c for c in range(n_cols) if c not in pivots]
    return np.array(vectors, dtype=np.int64).reshape(len(pivots), n_cols)[:, free]


def _extend(vectors, pivots, rows, p):
    """`echelon_extend` that checks the basis it returns is compact."""
    got = echelon_extend(vectors, pivots, rows, prime_field(p))
    assert got[0].shape == (len(got[1]), len(rows[0]) - len(got[1]))
    return got


def _assert_extend_matches_fold(vectors, pivots, rows, p):
    expected = _fold(vectors, pivots, rows, p)
    n_cols = len(rows[0])
    got_vectors, got_pivots, got_accepted, got_leads = _extend(
        _compact(vectors, pivots, n_cols), list(pivots), rows, p
    )
    full, sorted_pivots = exactalg._echelon_rows(got_vectors, got_pivots, n_cols)
    assert list(full) == expected[0]
    assert list(sorted_pivots) == expected[1]
    assert got_accepted == expected[2]
    assert got_leads == expected[3]


@st.composite
def extension_cases(draw):
    """(basis vectors, basis pivots, candidate rows, p) over a prime of PRIMES.

    The basis is the `echelon_insert` fold of random rows until it has
    rank r (r = 0 and r = N included).  Candidates mix zero rows,
    duplicates and two-term combinations of earlier candidates, multiples
    of basis rows, rows with a long run of leading zeros (late pivots),
    rows whose first nonzero lies past the leftmost 2 * BLOCK free columns,
    two-term combinations of earlier rows of the same block plus such a
    tail, all-(p - 1) rows and dense rows; their count is drawn around one
    and two blocks.  The in-block elimination of `echelon_extend` starts on
    a window of the block's leftmost free columns: with dense rows only, its
    pivots are found there unless the window is singular (small primes), or
    the first block's last row is drawn dependent, which needs the full
    free width after every earlier row pivoted in the window.  Any other
    kind is a dependent row or a late pivot that widens the window; a
    combination plus a tail is zero on the window and has a nontrivial
    transform row, so it checks the widened columns.
    """
    p = draw(st.sampled_from(PRIMES))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        n_cols = draw(st.sampled_from([1, 2, 5, 17, BLOCK + 3, 2 * BLOCK + 5]))
        r = draw(st.sampled_from([0, n_cols, rng.randint(0, n_cols)]))
    else:  # free widths of 100 and 200, and narrower ones over a wide basis
        n_cols = draw(st.sampled_from([100, 200]))
        r = draw(st.sampled_from([0, rng.randint(0, n_cols)]))
    vectors, pivots = [], []
    while len(vectors) < r:
        echelon_insert(vectors, pivots, _dense_rows(rng, 1, n_cols, p)[0], p)
    free = [c for c in range(n_cols) if c not in pivots]
    count = draw(
        st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    )
    dense_only = draw(st.booleans())
    rows = []
    for _ in range(count):
        kind = 10 if dense_only else rng.randrange(11)
        if kind == 0:
            row = [0] * n_cols
        elif kind == 1 and rows:
            row = list(rng.choice(rows))
        elif kind == 2 and vectors:
            c = rng.randrange(1, p)
            row = [c * x % p for x in rng.choice(vectors)]
        elif kind == 3 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            row = [(x + 5 * y) % p for x, y in zip(a, b)]
        elif kind == 4:
            h = rng.randrange(n_cols)
            row = [0] * h + [rng.randrange(p) for _ in range(n_cols - h)]
        elif kind == 5 and len(free) > 2 * BLOCK:
            h = rng.choice(free[2 * BLOCK :])
            row = [0] * h + [rng.randrange(p) for _ in range(n_cols - h)]
        elif kind == 6:
            row = [p - 1] * n_cols
        elif kind == 7 and len(free) > 2 * BLOCK and len(rows) % BLOCK >= 2:
            a, b = rng.sample(rows[len(rows) - len(rows) % BLOCK :], 2)
            h = rng.choice(free[2 * BLOCK :])
            tail = [0] * h + [rng.randrange(p) for _ in range(n_cols - h)]
            row = [(x + 5 * y + z) % p for x, y, z in zip(a, b, tail)]
        else:
            row = [rng.randrange(p) for _ in range(n_cols)]
        rows.append(row)
    last = min(count, BLOCK) - 1
    if dense_only and last >= 2 and draw(st.booleans()):
        a, b = rng.sample(rows[:last], 2)
        rows[last] = [(x + 5 * y) % p for x, y in zip(a, b)]
    return vectors, pivots, rows, p


class TestEchelonExtend:
    @settings(max_examples=120, deadline=None)
    @given(extension_cases())
    def test_matches_insert_fold(self, case):
        _assert_extend_matches_fold(*case)

    @settings(max_examples=120, deadline=None)
    @given(extension_cases(), st.data())
    def test_split_calls_match_insert_fold(self, case, data):
        # the compact basis one call returns is the next call's input: the
        # rows in 2-4 consecutive calls (one when there is a single row)
        # match one fold over all of them.  `_sub_mod` writes into its first
        # argument, so each call must leave the basis and the int64 rows it
        # was given as they were: a view of either passed to it would not
        vectors, pivots, rows, p = case
        n_cols = len(rows[0])
        expected = _fold(vectors, pivots, rows, p)
        cuts = data.draw(
            st.lists(
                st.integers(1, len(rows) - 1), max_size=3, unique=True
            ).map(sorted)
            if len(rows) > 1
            else st.just([])
        )
        vectors = _compact(vectors, pivots, n_cols)
        accepted, leads = [], []
        for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
            given_vectors = vectors
            given_rows = np.array(rows[lo:hi], dtype=np.int64)
            before = given_vectors.copy(), given_rows.copy()
            vectors, pivots, got_accepted, got_leads = _extend(
                given_vectors, pivots, given_rows, p
            )
            assert np.array_equal(given_vectors, before[0])
            assert np.array_equal(given_rows, before[1])
            accepted += [lo + i for i in got_accepted]
            leads += got_leads
        full, sorted_pivots = exactalg._echelon_rows(vectors, pivots, n_cols)
        assert list(full) == expected[0]
        assert list(sorted_pivots) == expected[1]
        assert accepted == expected[2]
        assert leads == expected[3]

    @pytest.mark.parametrize("p", PRIMES)
    def test_block_fills_span_exactly(self, p):
        # the block takes the last free columns, so no column stays free
        # and the old rows need no update product
        rng = random.Random(p % 1009)
        n_cols = 20
        for r in (0, 7, n_cols - 1):
            vectors, pivots = [], []
            while len(vectors) < r:
                echelon_insert(vectors, pivots, _dense_rows(rng, 1, n_cols, p)[0], p)
            free = [c for c in range(n_cols) if c not in pivots]
            # unit rows on the free columns complete the span
            rows = [[int(c == f) for c in range(n_cols)] for f in free]
            _assert_extend_matches_fold(vectors, pivots, rows, p)
            got = _extend(_compact(vectors, pivots, n_cols), pivots, rows, p)
            assert got[0].shape == (n_cols, 0)
            assert got[2] == list(range(len(rows)))
            # a full basis passed back takes nothing more
            more = _dense_rows(rng, 3, n_cols, p)
            assert _extend(got[0], got[1], more, p)[2] == []

    @pytest.mark.parametrize("p", PRIMES)
    def test_dependent_block_leaves_basis_untouched(self, p):
        rng = random.Random(p % 1013)
        n_cols = BLOCK + 8
        vectors, pivots, _, _ = _extend([], [], _dense_rows(rng, 10, n_cols, p), p)
        before = vectors.copy()
        # a zero row and combinations of the basis rows, over two blocks
        full = exactalg._echelon_rows(vectors, pivots, n_cols)[0]
        rows = [[0] * n_cols]
        for _ in range(BLOCK):
            coeffs = [rng.randrange(p) for _ in full]
            rows.append(
                [sum(c * x for c, x in zip(coeffs, col)) % p for col in zip(*full)]
            )
        got = _extend(vectors, pivots, rows, p)
        assert got[2] == [] and got[3] == []
        assert got[1].tolist() == pivots.tolist()
        assert np.array_equal(got[0], before)
        assert np.array_equal(vectors, before)

    def test_empty_basis_as_list(self):
        # `[]` and an empty array are the same empty basis
        rng = random.Random(7)
        for p in PRIMES:
            rows = _dense_rows(rng, 5, 12, p)
            from_list = _extend([], [], rows, p)
            from_array = _extend(np.zeros((0, 12), dtype=np.int64), [], rows, p)
            assert from_list[0].tolist() == from_array[0].tolist()
            assert from_list[1].tolist() == from_array[1].tolist()
            assert from_list[2:] == from_array[2:]

    @pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_block_boundaries_empty_basis(self, count):
        # rows across one block boundary, then their duplicates; the first
        # block finds its pivots in the window (unless it is singular
        # there, as at p = 2), and each duplicate is a dependent row, which
        # needs the full free width
        rng = random.Random(count)
        for n_cols in (BLOCK + 8, 100, 200):
            for p in PRIMES:
                rows = _dense_rows(rng, count, n_cols, p)
                _assert_extend_matches_fold([], [], rows + rows[::-1], p)

    def test_full_basis_takes_nothing(self):
        # r = N leaves no free column: every candidate is already in the span
        rng = random.Random(5)
        n_cols = 9
        identity = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]
        for p in PRIMES:
            vectors, pivots, _, _ = _fold([], [], identity, p)
            rows = _dense_rows(rng, BLOCK + 1, n_cols, p)
            _assert_extend_matches_fold(vectors, pivots, rows, p)
            compact = _compact(vectors, pivots, n_cols)
            assert _extend(compact, pivots, rows, p)[2] == []

    def test_late_pivots_after_early_ones(self):
        # the first candidates only reach the last columns, so later rows
        # with early pivots sort in front of them; past 2 * BLOCK columns
        # they find no pivot in the window, which widens more than once
        rng = random.Random(6)
        for n_cols, h in ((40, 30), (200, 2 * BLOCK + 10)):
            for p in PRIMES:
                late = [[0] * h + r for r in _dense_rows(rng, 10, n_cols - h, p)]
                early = _dense_rows(rng, 35, n_cols, p)
                _assert_extend_matches_fold([], [], late + early, p)

    def test_small_prime_example(self):
        # [2, 4, 6, 8] is twice the first row, and 0 mod 2
        rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 0, 0], [0, 1, 0, 0]]
        for p, first in [(101, [1, 0, 3, 4]), (2, [1, 0, 1, 0])]:
            ring = prime_field(p)
            canon = [[x % p for x in row] for row in rows]
            vectors, pivots, accepted, leads = echelon_extend([], [], canon, ring)
            full, pivots = exactalg._echelon_rows(vectors, pivots, 4)
            assert full == (tuple(first), (0, 1, 0, 0))
            assert pivots == (0, 1)
            assert accepted == [0, 3]
            assert leads == [(0, 1), (1, 1)]


class TestIntegersRefused:
    """Elimination runs over prime fields only: over the integers each entry
    point raises InvalidInput before it eliminates a row."""

    ZZ = big_integer()

    def _units(self):
        return _vectors([[1, 0, 0, 0], [0, 1, 0, 0]], 2, self.ZZ)

    def test_echelon_extend(self):
        with pytest.raises(InvalidInput, match="prime fields only"):
            echelon_extend([], [], [[1, 0, 0, 0], [0, 1, 0, 0]], self.ZZ)

    def test_span_insert(self):
        basis = empty_basis(2, self.ZZ)
        with pytest.raises(InvalidInput, match="prime fields only"):
            span_insert(basis, self._units()[0])

    def test_subspace_length(self):
        with pytest.raises(InvalidInput, match="prime fields only"):
            subspace_length(MatrixTuple(tuple(self._units())))
