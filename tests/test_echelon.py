"""Differential tests for the echelon core and everything built on it.

`discriminant` and `rank` over every prime field take the rows through
`echelon_extend`, which folds `_insert` except modulo 2^61 - 1, where it is
the blocked `_extend_m61`.  `span_insert` is `_insert` itself.  Each is
checked against the independent oracles in conftest; `echelon_extend`
modulo 2^61 - 1, leads included, is checked against the `_insert` fold
itself.  Over the integers every one of them refuses to eliminate.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pure_det, rank_fractions
from sweepwords import exactalg
from sweepwords.errors import InvalidInput
from sweepwords.exactalg import (
    MERSENNE61,
    Matrix,
    MatrixTuple,
    SubspaceBasis,
    _insert,
    big_integer,
    discriminant,
    echelon_extend,
    prime_field,
    rank,
    span_insert,
)
from sweepwords.genericity import subspace_length

FOLD_PRIMES = [101, (1 << 61) - 31]

RINGS = {
    "fp101": prime_field(101),
    "fp_default": prime_field(MERSENNE61),
    "fp61m31": prime_field((1 << 61) - 31),
}


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
    # 0/1 entries make zero pivots and singular matrices common
    hi = draw(st.sampled_from([2, MERSENNE61]))
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
    @given(st.sampled_from(FOLD_PRIMES), square_systems(n_max=6))
    def test_fold_path_matches_oracle(self, p, system):
        n, a = system
        assert discriminant(_columns(a, n, prime_field(p))) == pure_det(a, p)

    @settings(max_examples=40, deadline=None)
    @given(square_systems(n_max=4))
    def test_mersenne_kernel_at_small_sizes(self, system):
        n, a = system
        ring = prime_field(MERSENNE61)
        assert discriminant(_columns(a, n, ring)) == pure_det(a, MERSENNE61)

    @pytest.mark.parametrize("p", FOLD_PRIMES + [MERSENNE61])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_late_pivots(self, p, n):
        # rows [[0, B], [C, D]] with a zero h x h top-left block: the first
        # h rows take pivots right of column h, so later rows sort before them
        rng = random.Random(n * 1000 + p % 997)
        nn, h = n * n, n * n // 2
        a = [[rng.randrange(p) for _ in range(nn)] for _ in range(nn)]
        for i in range(h):
            a[i][:h] = [0] * h
        det = discriminant(_columns(a, n, prime_field(p)))
        assert det == pure_det(a, p)
        assert det != 0

    @pytest.mark.parametrize("p", FOLD_PRIMES + [MERSENNE61])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_duplicated_row_and_zero_column(self, p, n):
        rng = random.Random(n)
        nn = n * n
        a = [[rng.randrange(p) for _ in range(nn)] for _ in range(nn)]
        dup = [list(r) for r in a]
        dup[-1] = list(dup[nn // 2])
        assert discriminant(_columns(dup, n, prime_field(p))) == 0
        for row in a:
            row[-1] = 0
        assert discriminant(_columns(a, n, prime_field(p))) == 0


class TestRank:
    @settings(max_examples=60, deadline=None)
    @given(planted_families())
    def test_planted_rank(self, family):
        n, vectors, r = family
        assert rank_fractions(vectors) == r
        for ring in RINGS.values():
            assert rank(_vectors(vectors, n, ring)) == r

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.randoms(use_true_random=False), st.data())
    def test_random_sign_vectors(self, n, rng, data):
        # entries in {-1, 0, 1} and at most 16 columns: every minor is at
        # most 4^16 = 2^32 by Hadamard's bound, so the rank modulo
        # 2^61 - 1 and 2^61 - 31 is the rational rank
        nn = n * n
        count = data.draw(st.integers(1, nn + 4))
        vectors = [[rng.randrange(-1, 2) for _ in range(nn)] for _ in range(count)]
        expected = rank_fractions(vectors)
        for name in ("fp_default", "fp61m31"):
            assert rank(_vectors(vectors, n, RINGS[name])) == expected


class TestSpanInsertFold:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(RINGS)), planted_families())
    def test_dimension_tracks_rank_of_every_prefix(self, name, family):
        ring = RINGS[name]
        n, vectors, _ = family
        ms = _vectors(vectors, n, ring)
        basis = SubspaceBasis.empty(n, ring)
        for k, m in enumerate(ms, start=1):
            before = basis.dimension
            basis, inserted = span_insert(basis, m)
            assert basis.dimension == rank(ms[:k])
            assert inserted == (basis.dimension == before + 1)
            assert len(basis.matrices) == basis.dimension
        pivots = list(basis.pivots)
        assert pivots == sorted(set(pivots))
        for row, c in zip(basis.vectors, pivots):
            assert all(x == 0 for x in row[:c])
            assert row[c] == 1
            # fully reduced: every other row is zero in this pivot column
            assert sum(1 for other in basis.vectors if other[c]) == 1


BLOCK = exactalg._EXTEND_BLOCK
M61 = RINGS["fp_default"]


def _fold(vectors, pivots, rows):
    """The oracle: `_insert` folded over the rows, on copies of the basis.

    Returns (vectors, pivots, accepted, leads) with leads the (pivot
    column, lead) that `_insert` reports for each accepted row.
    """
    vectors, pivots = list(vectors), list(pivots)
    accepted, leads = [], []
    for i, row in enumerate(rows):
        lead, pos = _insert(vectors, pivots, row, M61)
        if lead is not None:
            accepted.append(i)
            leads.append((pivots[pos], lead))
    return vectors, pivots, accepted, leads


def _dense_rows(rng, count, n_cols):
    return [[rng.randrange(MERSENNE61) for _ in range(n_cols)] for _ in range(count)]


def _assert_extend_matches_fold(vectors, pivots, rows):
    expected = _fold(vectors, pivots, rows)
    got_vectors, got_pivots, got_accepted, got_leads = echelon_extend(
        list(vectors), list(pivots), rows, M61
    )
    assert [tuple(r) for r in got_vectors.tolist()] == expected[0]
    assert got_pivots.tolist() == expected[1]
    assert got_accepted == expected[2]
    assert got_leads == expected[3]


@st.composite
def extension_cases(draw):
    """(basis vectors, basis pivots, candidate rows) over F_(2^61-1).

    The basis is the `_insert` fold of r random rows (r = 0 and r = N
    included).  Candidates mix zero rows, duplicates and two-term
    combinations of earlier candidates, multiples of basis rows, rows with
    a long run of leading zeros (late pivots) and dense rows; their count
    is drawn around one and two blocks.
    """
    rng = draw(st.randoms(use_true_random=False))
    n_cols = draw(st.sampled_from([1, 2, 5, 17, BLOCK + 3, 2 * BLOCK + 5]))
    r = draw(st.sampled_from([0, n_cols, rng.randint(0, n_cols)]))
    vectors, pivots = [], []
    while len(vectors) < r:
        _insert(vectors, pivots, _dense_rows(rng, 1, n_cols)[0], M61)
    count = draw(
        st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    )
    p = MERSENNE61
    rows = []
    for _ in range(count):
        kind = rng.randrange(7)
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
        else:
            row = [rng.randrange(p) for _ in range(n_cols)]
        rows.append(row)
    return vectors, pivots, rows


class TestEchelonExtend:
    @settings(max_examples=80, deadline=None)
    @given(extension_cases())
    def test_matches_insert_fold(self, case):
        _assert_extend_matches_fold(*case)

    @pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_block_boundaries_empty_basis(self, count):
        # independent rows across one block boundary, then their duplicates
        rng = random.Random(count)
        n_cols = BLOCK + 8
        rows = _dense_rows(rng, count, n_cols)
        _assert_extend_matches_fold([], [], rows + rows[::-1])

    def test_full_basis_takes_nothing(self):
        # r = N leaves no free column: every candidate is already in the span
        rng = random.Random(5)
        n_cols = 9
        identity = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]
        vectors, pivots, _, _ = _fold([], [], identity)
        rows = _dense_rows(rng, BLOCK + 1, n_cols)
        _assert_extend_matches_fold(vectors, pivots, rows)
        assert echelon_extend(vectors, pivots, rows, M61)[2] == []

    def test_late_pivots_after_early_ones(self):
        # the first candidates only reach the last columns, so later rows
        # with early pivots sort in front of them
        rng = random.Random(6)
        n_cols = 40
        late = [[0] * 30 + row for row in _dense_rows(rng, 10, 10)]
        early = _dense_rows(rng, 35, n_cols)
        _assert_extend_matches_fold([], [], late + early)

    def test_fold_path_for_other_rings(self):
        # every other prime folds `_insert` in place on the caller's lists
        ring = RINGS["fp101"]
        vectors, pivots = [], []
        rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 0, 0], [0, 1, 0, 0]]
        out = echelon_extend(vectors, pivots, rows, ring)
        assert out == (vectors, pivots, [0, 3], [(0, 1), (1, 1)])
        assert pivots == [0, 1]


class TestIntegersRefused:
    """Elimination runs over prime fields only: over the integers each entry
    point raises InvalidInput before it eliminates a row."""

    ZZ = big_integer()

    def _units(self):
        return _vectors([[1, 0, 0, 0], [0, 1, 0, 0]], 2, self.ZZ)

    def test_echelon_extend(self):
        with pytest.raises(InvalidInput, match="prime fields only"):
            echelon_extend([], [], [[1, 0, 0, 0], [0, 1, 0, 0]], self.ZZ)

    def test_rank(self):
        with pytest.raises(InvalidInput, match="prime fields only"):
            rank(self._units())

    def test_span_insert(self):
        basis = SubspaceBasis.empty(2, self.ZZ)
        with pytest.raises(InvalidInput, match="prime fields only"):
            span_insert(basis, self._units()[0])

    def test_subspace_length(self):
        with pytest.raises(InvalidInput, match="prime fields only"):
            subspace_length(MatrixTuple(tuple(self._units())))
