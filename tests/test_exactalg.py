import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    det_cofactor,
    empty_basis,
    evaluate_word,
    extend_rank,
    identity,
    mat,
    mat_add,
    mat_scale,
    prime_discriminant,
    pure_det,
    rank_fractions,
    unit,
)
from sweepwords import exactalg
from sweepwords.errors import (
    ArityMismatch,
    InvalidInput,
    InvalidModulus,
    InvalidShape,
    InvalidWord,
)
from sweepwords.exactalg import (
    MERSENNE61,
    Matrix,
    ScalarRing,
    _det_bareiss,
    _det_block_triangular,
    _det_echelon,
    _mulmod,
    _perm_sign,
    big_integer,
    discriminant,
    int_to_decimal,
    is_prime,
    prime_field,
    span_insert,
)
from sweepwords.genericity import subspace_length
from sweepwords.witness import build_witness
from sweepwords.words import build_word_grid

BLOCK = exactalg._EXTEND_BLOCK


class TestScalarRing:
    def test_mersenne_prime_accepted(self):
        ring = prime_field(MERSENNE61)
        assert ring.canon(-1) == MERSENNE61 - 1

    def test_composite_rejected(self):
        with pytest.raises(InvalidModulus):
            prime_field(2**61 - 2)

    def test_too_large_prime_rejected(self):
        with pytest.raises(InvalidModulus):
            prime_field(2**89 - 1)  # prime, but over the 2^62 cap

    def test_big_integer_has_no_modulus(self):
        assert big_integer().canon(-5) == -5
        with pytest.raises(InvalidInput):
            ScalarRing("big_integer", 7)

    def test_is_prime_small_cases(self):
        primes = [x for x in range(2, 60) if is_prime(x)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        assert is_prime(MERSENNE61)
        assert not is_prime(1)


class TestMatrix:
    @pytest.mark.parametrize("entry", [101, -1, 2**70])
    def test_non_canonical_prime_field_entry_refused(self, fp101, entry):
        # 101 is 0 mod 101 but nonzero, so elimination would take it for a
        # pivot and fail to invert it
        with pytest.raises(InvalidInput, match=r"\[0, 101\)"):
            Matrix(1, 1, (entry,), fp101)
        canonical = fp101.canon(entry)
        assert extend_rank([Matrix(1, 1, (canonical,), fp101)]) == int(canonical != 0)

    def test_integer_entries_are_unrestricted(self):
        ring = big_integer()
        assert Matrix(1, 2, (-5, 2**70), ring).entries == (-5, 2**70)


class TestEvaluateWord:
    def test_single_letter(self, fp101):
        a = mat([[1, 2], [3, 4]], fp101)
        b = mat([[5, 6], [7, 8]], fp101)
        t = (a, b)
        assert evaluate_word((1,), t) == a

    def test_identity_absorbs(self, fp101):
        b = mat([[5, 6], [7, 8]], fp101)
        t = (identity(2, fp101), b)
        assert evaluate_word((1, 2), t) == b

    def test_hand_product_mod_7(self):
        ring = prime_field(7)
        x = mat([[2, 0], [0, 3]], ring)
        y = mat([[0, 1], [1, 0]], ring)
        result = evaluate_word((1, 2), (x, y))
        assert result == mat([[0, 2], [3, 0]], ring)

    def test_rejects_empty_word(self, fp101):
        t = (identity(2, fp101),) * 2
        with pytest.raises(InvalidWord):
            evaluate_word((), t)

    def test_rejects_letter_out_of_range(self, fp101):
        t = (identity(2, fp101),) * 2
        with pytest.raises(InvalidWord):
            evaluate_word((1, 3), t)

    def test_evaluate_words_refuses_a_prime_field(self, fp101, zz):
        # over F_p the word blocks go straight into elimination
        a = mat([[1, 2], [3, 4]], fp101)
        with pytest.raises(InvalidInput, match="integer"):
            exactalg.evaluate_words([(1, 2)], (a, a))
        b = mat([[1, 2], [3, 4]], zz)
        assert exactalg.evaluate_words([(1, 2)], (b, b)) == [b.mul(b)]

    def test_monoid_homomorphism(self, fp_default):
        rng = random.Random(42)
        for _ in range(40):
            n = rng.choice([2, 3])
            g = rng.choice([2, 3])
            t = tuple(
                mat(
                    [[rng.randrange(fp_default.p) for _ in range(n)] for _ in range(n)],
                    fp_default,
                )
                for _ in range(g)
            )
            u = tuple(rng.randrange(1, g + 1) for _ in range(rng.randrange(1, 4)))
            v = tuple(rng.randrange(1, g + 1) for _ in range(rng.randrange(1, 4)))
            lhs = evaluate_word(u + v, t)
            rhs = evaluate_word(u, t).mul(evaluate_word(v, t))
            assert lhs == rhs


class TestVectorize:
    """`discriminant`, `_det_echelon` and `echelon_extend` read a matrix's
    row-major entries as its vectorization: component (i-1)*n + j holds
    entry (i, j)."""

    def test_identity(self, fp101):
        assert identity(2, fp101).entries == (1, 0, 0, 1)

    def test_row_major_readout(self, fp101):
        assert mat([[1, 2], [3, 4]], fp101).entries == (1, 2, 3, 4)

    def test_unit_position(self, fp101):
        # the units in row-major order vectorize to the identity matrix; in
        # column-major order to the transpose permutation, which at n = 3
        # swaps three pairs and so has sign -1
        row_major = [unit(3, i, j, fp101) for i in (1, 2, 3) for j in (1, 2, 3)]
        col_major = [unit(3, i, j, fp101) for j in (1, 2, 3) for i in (1, 2, 3)]
        assert prime_discriminant(row_major) == 1
        assert prime_discriminant(col_major) == 101 - 1

    def test_round_trip(self, fp101):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.choice([2, 3, 4])
            data = [[rng.randrange(101) for _ in range(n)] for _ in range(n)]
            m = mat(data, fp101)
            vec = m.entries
            rebuilt = Matrix(n, n, vec, fp101)
            assert rebuilt == m
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert vec[(i - 1) * n + (j - 1)] == data[i - 1][j - 1]


def _elementary_basis(n, ring):
    return [
        unit(n, i, j, ring)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]


# every entry that takes a list of matrices, each checked by `_check_uniform`
CHECKED_ENTRIES = {
    "discriminant": discriminant,
    "evaluate_words": lambda ms: exactalg.evaluate_words([(1,)], tuple(ms)),
    "subspace_length": lambda ms: subspace_length(tuple(ms)),
}


@pytest.mark.parametrize("entry", CHECKED_ENTRIES.values(), ids=CHECKED_ENTRIES)
class TestCheckUniform:
    def test_empty_list(self, entry):
        with pytest.raises(ArityMismatch, match="at least one"):
            entry([])

    def test_rejects_non_square(self, entry, zz):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]], zz)
        with pytest.raises(InvalidShape, match="square"):
            entry([m])

    def test_mixed_sizes(self, entry, zz):
        ms = _elementary_basis(2, zz)
        ms[1] = identity(3, zz)
        with pytest.raises(InvalidInput, match="sizes"):
            entry(ms)

    def test_mixed_rings(self, entry, fp101, zz):
        ms = _elementary_basis(2, zz)
        ms[1] = identity(2, fp101)
        with pytest.raises(InvalidInput, match="rings"):
            entry(ms)


class TestDiscriminant:
    """`discriminant` over the integers, and `_det_echelon` on the same
    inputs over F_p (`prime_discriminant`)."""

    def test_elementary_basis_gives_one(self, fp101, zz):
        assert prime_discriminant(_elementary_basis(2, fp101)) == 1
        assert discriminant(_elementary_basis(2, zz)) == 1

    def test_repeated_matrix_gives_zero(self, fp101, zz):
        for det, ring in ((prime_discriminant, fp101), (discriminant, zz)):
            ms = _elementary_basis(2, ring)
            ms[3] = ms[0]
            assert det(ms) == 0

    def test_prime_field_is_refused(self, fp101):
        # over F_p the determinant of word blocks is `_det_echelon`'s
        with pytest.raises(InvalidInput, match="integer"):
            discriminant(_elementary_basis(2, fp101))

    def test_grid_point_fixture_mod_101(self, fp101):
        # words x^2, xy, yx, y^2 at X = diag(2, 3), Y = e12 + e21
        x = mat([[2, 0], [0, 3]], fp101)
        y = mat([[0, 1], [1, 0]], fp101)
        evals = [x.mul(x), x.mul(y), y.mul(x), y.mul(y)]
        value = prime_discriminant(evals)
        assert value == 25
        cols = [m.entries for m in evals]
        rows = [[cols[k][r] for k in range(4)] for r in range(4)]
        assert value == det_cofactor(rows) % 101

    def test_same_fixture_over_integers(self, zz):
        x = mat([[2, 0], [0, 3]], zz)
        y = mat([[0, 1], [1, 0]], zz)
        evals = [x.mul(x), x.mul(y), y.mul(x), y.mul(y)]
        assert discriminant(evals) == 25

    def test_wrong_count(self, zz):
        with pytest.raises(ArityMismatch):
            discriminant(_elementary_basis(2, zz)[:3])

    # the default prime reduces by Mersenne folds, 101 by Shoup products
    @pytest.mark.parametrize("ring_name", ["fp_default", "fp101"])
    def test_alternating_under_swaps(self, ring_name, request):
        ring = request.getfixturevalue(ring_name)
        rng = random.Random(5)
        p = ring.p
        for _ in range(40):
            n = rng.choice([2, 3])
            ms = [
                mat([[rng.randrange(p) for _ in range(n)] for _ in range(n)], ring)
                for _ in range(n * n)
            ]
            i, j = rng.sample(range(n * n), 2)
            swapped = list(ms)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert prime_discriminant(swapped) == (-prime_discriminant(ms)) % p

    @pytest.mark.parametrize("ring_name", ["fp_default", "fp101"])
    def test_nonzero_iff_full_rank(self, ring_name, request):
        ring = request.getfixturevalue(ring_name)
        rng = random.Random(6)
        p = ring.p
        for trial in range(30):
            n = 2
            ms = [
                mat([[rng.randrange(p) for _ in range(n)] for _ in range(n)], ring)
                for _ in range(n * n)
            ]
            if trial % 2:
                # plant a dependency: last = sum of the first two
                ms[3] = mat_add(ms[0], ms[1])
            d = prime_discriminant(ms)
            r = extend_rank(ms)
            assert (d != 0) == (r == n * n)

    def test_integer_path_reduces_to_prime_path(self, fp_default, zz):
        rng = random.Random(7)
        p = fp_default.p
        for _ in range(15):
            n = rng.choice([2, 3])
            rows_list = [
                [[rng.randrange(-(10**9), 10**9) for _ in range(n)] for _ in range(n)]
                for _ in range(n * n)
            ]
            dz = discriminant([mat(rows, zz) for rows in rows_list])
            dp = prime_discriminant([mat(rows, fp_default) for rows in rows_list])
            assert dz % p == dp


# Moduli at which `pure_det` checks an integer determinant.
ORACLE_PRIMES = (1_000_003, (1 << 61) - 31)


def _inversion_sign(perm):
    inversions = sum(
        perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
    )
    return -1 if inversions % 2 else 1


@st.composite
def sparse_integer_matrices(draw, n_max=9):
    """Square integer matrices, mostly zeros, some with a planted defect."""
    n = draw(st.integers(1, n_max))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.15, 0.3, 0.6, 1.0]))
    rows = [
        [rng.randint(-(10**6), 10**6) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]
    defect = draw(st.sampled_from(["none", "duplicate row", "zero row", "zero column"]))
    i, j = rng.randrange(n), rng.randrange(n)
    if defect == "duplicate row" and n > 1:
        rows[i] = list(rows[(i + 1) % n])
    elif defect == "zero row":
        rows[i] = [0] * n
    elif defect == "zero column":
        for row in rows:
            row[j] = 0
    return rows


class TestBlockTriangularDeterminant:
    """The integer determinant of `discriminant` against whole-matrix oracles.

    `_det_block_triangular` matches rows to columns, splits the matched
    matrix into the strongly connected blocks of its pattern and runs
    `_det_bareiss` per block; the oracles are `_det_bareiss` on the whole
    matrix and conftest's `pure_det` modulo two primes.
    """

    def _check(self, rows):
        det = _det_block_triangular(rows)
        assert det == _det_bareiss([list(r) for r in rows])
        for p in ORACLE_PRIMES:
            assert det % p == pure_det([[x % p for x in r] for r in rows], p)
        return det

    @pytest.fixture
    def bareiss_sizes(self, monkeypatch):
        sizes = []

        def counted(rows):
            sizes.append(len(rows))
            return _det_bareiss(rows)

        monkeypatch.setattr(exactalg, "_det_bareiss", counted)
        return sizes

    @settings(max_examples=150, deadline=None)
    @given(sparse_integer_matrices())
    def test_sparse_matrices_match_whole_matrix(self, rows):
        self._check(rows)

    @pytest.mark.parametrize("n, k", [(2, 2), (5, 2), (6, 3), (9, 4)])
    def test_structurally_singular_skips_bareiss(self, n, k, bareiss_sizes):
        # k rows share k - 1 columns (Hall's condition fails) while no row
        # or column is zero, so only the matching can see the singularity
        rng = random.Random(n * 10 + k)
        rows = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
        for i in range(k):
            rows[i][k - 1 :] = [0] * (n - k + 1)
        assert _det_block_triangular(rows) == 0
        assert bareiss_sizes == []
        assert det_cofactor(rows) == 0

    def test_permutation_matrices(self):
        rng = random.Random(21)
        signs = set()
        for n in range(1, 9):
            for _ in range(6):
                perm = rng.sample(range(n), n)
                rows = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
                det = self._check(rows)
                assert det == _inversion_sign(perm) == _perm_sign(perm)
                signs.add(det)
        assert signs == {1, -1}

    @pytest.mark.parametrize("seed", range(8))
    def test_permuted_block_triangular(self, seed, bareiss_sizes):
        # dense (hence irreducible) diagonal blocks with nonzero known
        # determinants, random entries above them, then rows and columns
        # shuffled independently
        rng = random.Random(seed)
        blocks = []
        for size in [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]:
            while True:
                block = [[rng.randint(1, 50) for _ in range(size)] for _ in range(size)]
                if det_cofactor(block):
                    blocks.append(block)
                    break
        n = sum(map(len, blocks))
        rows = [[0] * n for _ in range(n)]
        lo = 0
        for block in blocks:
            for i, brow in enumerate(block):
                rows[lo + i][lo : lo + len(block)] = brow
                for j in range(lo + len(block), n):
                    if rng.random() < 0.4:
                        rows[lo + i][j] = rng.randint(-50, 50)
            lo += len(block)
        row_perm, col_perm = rng.sample(range(n), n), rng.sample(range(n), n)
        shuffled = [[rows[row_perm[i]][col_perm[j]] for j in range(n)] for i in range(n)]
        expected = _perm_sign(row_perm) * _perm_sign(col_perm)
        for block in blocks:
            expected *= det_cofactor(block)
        assert _det_block_triangular(shuffled) == expected
        # one `_det_bareiss` call per irreducible block, 1x1 blocks included
        assert sorted(bareiss_sizes) == sorted(len(b) for b in blocks)
        self._check(shuffled)

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_witness_grids(self, n, g):
        _, t = build_witness(n, g)
        ms = exactalg.evaluate_words(build_word_grid(n, g).flatten(), t)
        det = self._check([m.entries for m in ms])
        assert det != 0
        assert discriminant(ms) == det

    @pytest.mark.parametrize("shape", ["long augmenting path", "long DFS chain"])
    def test_no_recursion_on_long_chains(self, shape):
        n = 800
        rows = [[0] * n for _ in range(n)]
        if shape == "long augmenting path":
            # row i < n-1 sees columns i, i+1 and row n-1 only column 0: the
            # greedy rows 0..n-2 take columns 0..n-2, so the last row's
            # augmenting path runs through every row.  Only the n-cycle
            # i -> i+1 contributes: det = sign(n-cycle) * 2^(n-1) * 3
            for i in range(n - 1):
                rows[i][i], rows[i][i + 1] = 1, 2
            rows[n - 1][0] = 3
            expected = (-1) ** (n - 1) * 2 ** (n - 1) * 3
        else:
            # upper bidiagonal: the matching is the diagonal and the
            # component search walks the path 0 -> 1 -> ... -> n-1
            for i in range(n):
                rows[i][i] = i + 1
                if i + 1 < n:
                    rows[i][i + 1] = 1
            expected = math.factorial(n)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            det = _det_block_triangular(rows)
        finally:
            sys.setrecursionlimit(limit)
        assert n > depth + 50
        assert det == expected

    def test_perm_sign_matches_inversion_count(self):
        rng = random.Random(22)
        for n in range(0, 12):
            for _ in range(10):
                perm = rng.sample(range(n), n)
                assert _perm_sign(perm) == _inversion_sign(perm)


class TestRank:
    def test_repeated_unit(self, fp101):
        e11 = unit(2, 1, 1, fp101)
        assert extend_rank([e11, e11]) == 1

    def test_full_elementary_basis(self, fp101):
        assert extend_rank(_elementary_basis(2, fp101)) == 4

    def test_identity_and_diagonal(self, fp101):
        ms = [identity(2, fp101), mat([[1, 0], [0, 2]], fp101)]
        assert extend_rank(ms) == 2

    def test_against_fraction_oracle(self, fp101, fp_default):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.choice([2, 3])
            count = rng.randrange(1, n * n + 2)
            rows_list = [
                [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
                for _ in range(count)
            ]
            expected = rank_fractions(
                [[x for row in rows for x in row] for rows in rows_list]
            )
            # every minor is at most 12^9 < 2^61 - 1 by Hadamard's bound, so
            # the rank modulo 2^61 - 1 is the rational rank
            assert extend_rank([mat(rows, fp_default) for rows in rows_list]) == expected
            # entries are small, so the mod-101 rank agrees generically;
            # keep them in [-4, 4] to avoid accidental 101-divisibility
            assert extend_rank([mat(rows, fp101) for rows in rows_list]) == expected


class _DeterminantCases:
    """`_det_echelon` over F_p against the pure elimination of conftest.

    Subclasses set p.  The rows go into `_det_echelon` in slices of
    _EXTEND_BLOCK = 32, as certification passes word blocks, so the sizes sit on
    and across slice boundaries.
    """

    p = MERSENNE61

    def _det(self, rows):
        slices = (rows[lo : lo + BLOCK] for lo in range(0, len(rows), BLOCK))
        return _det_echelon(slices, prime_field(self.p))

    def _random_rows(self, rng, n):
        return [[rng.randrange(self.p) for _ in range(n)] for _ in range(n)]

    def test_determinant_matches_pure_path(self):
        rng = random.Random(10)
        for n in [1, 2, 5, 24, 30, 40]:
            rows = self._random_rows(rng, n)
            fast = self._det(rows)
            # reference: cofactor for tiny sizes, pure elimination always
            if n <= 5:
                assert fast == det_cofactor(rows) % self.p
            assert fast == pure_det(rows, self.p)

    def test_singular_matrix(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 5]]
        assert self._det(rows) == 0

    @pytest.mark.parametrize("n", [63, 64, 65, 129, 200])
    def test_determinant_above_block_width(self, n):
        rng = random.Random(n)
        rows = self._random_rows(rng, n)
        assert self._det(rows) == pure_det(rows, self.p)

    @pytest.mark.parametrize("n", [31, 32, 33, 65])
    def test_determinant_across_slice_boundary(self, n):
        rng = random.Random(1000 + n)
        rows = self._random_rows(rng, n)
        assert self._det(rows) == pure_det(rows, self.p)

    @pytest.mark.parametrize("n, h", [(150, 20), (150, 70), (200, 100)])
    def test_late_pivots(self, n, h):
        # [[0, B], [C, D]] with a zero h x h top-left block: the first h
        # rows take pivots right of column h, so later rows sort before them
        rng = random.Random(h)
        rows = self._random_rows(rng, n)
        for i in range(h):
            rows[i][:h] = [0] * h
        det = self._det(rows)
        assert det != 0
        assert det == pure_det(rows, self.p)

    def test_duplicated_row_in_second_block(self):
        rng = random.Random(12)
        rows = self._random_rows(rng, 129)
        rows[100] = list(rows[70])
        assert self._det(rows) == 0

    def test_zero_last_column(self):
        rng = random.Random(13)
        rows = self._random_rows(rng, 129)
        for row in rows:
            row[-1] = 0
        assert self._det(rows) == 0

    def test_dependency_in_first_slice_stops_there(self, monkeypatch):
        sizes = []
        extend = exactalg.echelon_extend

        def counted(vectors, pivots, rows, ring):
            sizes.append(len(rows))
            return extend(vectors, pivots, rows, ring)

        monkeypatch.setattr(exactalg, "echelon_extend", counted)
        rng = random.Random(14)
        rows = self._random_rows(rng, 3 * BLOCK)
        rows[1] = list(rows[0])
        assert self._det(rows) == 0
        assert sizes == [BLOCK]


class TestMersenneKernel(_DeterminantCases):
    def test_elementwise_mulmod_fuzz(self):
        # one multiplier per entry, a shape the elimination never passes
        rng = random.Random(9)
        xs = [rng.randrange(MERSENNE61) for _ in range(4096)]
        ys = [rng.randrange(MERSENNE61) for _ in range(4096)]
        a = np.array(xs, dtype=np.int64)
        b = np.array(ys, dtype=np.int64)
        out = _mulmod(a, b, MERSENNE61)
        for i in range(0, 4096, 97):
            assert int(out[i]) == xs[i] * ys[i] % MERSENNE61


class TestDeterminantFp101(_DeterminantCases):
    p = 101


class TestDeterminantFp61m31(_DeterminantCases):
    p = (1 << 61) - 31


class TestSpanInsert:
    def test_insert_into_empty(self, fp101):
        basis = empty_basis(2, fp101)
        basis, inserted = span_insert(basis, unit(2, 1, 1, fp101))
        assert inserted and len(basis.vectors) == 1

    def test_scalar_multiple_not_inserted(self, fp101):
        basis = empty_basis(2, fp101)
        basis, _ = span_insert(basis, unit(2, 1, 1, fp101))
        basis2, inserted = span_insert(basis, mat_scale(unit(2, 1, 1, fp101), 2))
        assert not inserted
        assert len(basis2.vectors) == 1

    def test_independent_insert_grows(self, fp101):
        e11 = unit(2, 1, 1, fp101)
        e22 = unit(2, 2, 2, fp101)
        basis = empty_basis(2, fp101)
        basis, _ = span_insert(basis, e11)
        basis, inserted = span_insert(basis, mat_add(e11, e22))
        assert inserted and len(basis.vectors) == 2

    def test_pivots_strictly_increase(self, fp101):
        rng = random.Random(11)
        basis = empty_basis(3, fp101)
        for _ in range(12):
            m = mat([[rng.randrange(101) for _ in range(3)] for _ in range(3)], fp101)
            basis, _ = span_insert(basis, m)
        assert list(basis.pivots) == sorted(set(basis.pivots))
        assert len(basis.vectors) <= 9
        for row, c in zip(basis.vectors, basis.pivots):
            assert row[c] == 1
            assert all(row[k] == 0 for k in range(c))

    def test_integer_ring_insert(self, zz):
        # spans are kept over prime fields only
        with pytest.raises(InvalidInput, match="prime fields only"):
            span_insert(empty_basis(2, zz), mat([[2, 0], [0, 0]], zz))

    def test_shape_mismatch(self, fp101):
        basis = empty_basis(2, fp101)
        with pytest.raises(InvalidInput):
            span_insert(basis, identity(3, fp101))


def _read_decimal(s: str) -> int:
    """Parse a decimal string of any length, 3000 digits at a time."""
    digits = s.lstrip("-")
    value = 0
    for i in range(0, len(digits), 3000):
        chunk = digits[i : i + 3000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if s.startswith("-") else value


def _read_matrix_json(data: dict, ring) -> Matrix:
    n = data["n"]
    return Matrix(n, n, tuple(_read_decimal(x) for x in data["entries"]), ring)


class TestSerialization:
    def test_matrix_json_round_trip(self, zz):
        m = mat([[10**40, -3], [0, 7]], zz)
        data = json.loads(json.dumps(m.to_json()))
        assert data["ring"] == {"kind": "big_integer"}
        assert _read_matrix_json(data, zz) == m

    def test_round_trip_beyond_the_digit_limit(self, zz):
        huge = 7 * 10**9000 + 123  # str()/int() alone would refuse this
        m = mat([[huge, 0], [0, -huge]], zz)
        assert _read_matrix_json(m.to_json(), zz) == m

    def test_prime_field_json(self, fp101):
        m = mat([[1, 2], [3, 4]], fp101)
        data = m.to_json()
        assert data["ring"] == {"kind": "prime_field", "p": "101"}
        assert data["entries"] == ["1", "2", "3", "4"]
        assert _read_matrix_json(data, fp101) == m

    @pytest.mark.parametrize(
        "x",
        [
            0,
            10**3000 - 1,
            -(10**3000 - 1),
            10**3000,
            -(10**3000),
            10**6000 + 7,  # the middle chunk is all zeros: zfill pads it
            -(3**19000 + 1),  # 9,066 digits
        ],
        ids=["0", "chunk-1", "-chunk+1", "chunk", "-chunk", "chunk^2+7", "-3^19000-1"],
    )
    def test_int_to_decimal_matches_str(self, x):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = str(x)
        finally:
            sys.set_int_max_str_digits(limit)
        assert int_to_decimal(x) == expected
