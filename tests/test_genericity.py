import hashlib
import json
import random

import pytest

from conftest import (
    echelon_insert,
    evaluate_blocks,
    evaluate_word,
    extend_rank,
    identity,
    mat,
    mat_add,
    mat_scale,
    mat_transpose,
    prime_discriminant,
    unit,
    zeros,
)
from sweepwords import exactalg, genericity
from sweepwords.errors import (
    InvalidInput,
    InvalidModulus,
    InvalidWord,
    TooLarge,
)
from sweepwords.exactalg import (
    _EXTEND_BLOCK,
    Matrix,
    _det_echelon,
    echelon_extend,
    letter_stack,
    prime_field,
    word_blocks,
)
from sweepwords.genericity import (
    CERTIFY_MAX_N,
    DEFAULT_PRIME,
    LENGTH_MAX_N,
    TRIALS_MAX,
    check_certify_size,
    check_length_size,
    check_trials,
    derive_trial_seed,
    generic_length_experiment,
    grid_certification,
    is_locally_linearly_independent,
    random_words_certification,
    sample_tuple,
    subspace_length,
    words_digest,
)
from sweepwords.words import (
    WORDS_MAX_D,
    all_words,
    build_word_grid,
    least_alphabet,
    word_string,
)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_trial_seed(42, 0) == derive_trial_seed(42, 0)

    def test_trials_get_distinct_seeds(self):
        seeds = {derive_trial_seed(7, t) for t in range(100)}
        assert len(seeds) == 100

    def test_64_bit_range(self):
        for t in range(20):
            assert 0 <= derive_trial_seed(2**63, t) < 2**64


class TestCertification:
    def test_grid_n2_all_trials_succeed(self):
        report = grid_certification(2, 2, trials=3, seed=0)
        assert report.successes == 3
        assert report.trial_nonzero == (True, True, True)
        assert report.status == "certified"
        assert report.single_trial_failure_bound == (8, DEFAULT_PRIME)

    def test_repeated_word_is_never_certified(self):
        words = [(1,), (2,), (1, 2), (1, 2)]
        report = is_locally_linearly_independent(words, 2, 2, trials=3, seed=0)
        assert report.successes == 0
        assert report.status == "inconclusive"

    def test_wrong_word_count(self):
        with pytest.raises(InvalidWord):
            is_locally_linearly_independent([(1,)] * 3, 2, 2)

    def test_letter_out_of_alphabet(self):
        words = [(1,), (2,), (1, 2), (3,)]
        with pytest.raises(InvalidWord):
            is_locally_linearly_independent(words, 2, 2)

    def test_empty_word_rejected(self):
        words = [(), (2,), (1, 2), (2, 1)]
        with pytest.raises(InvalidWord):
            is_locally_linearly_independent(words, 2, 2)

    def test_composite_modulus_rejected(self):
        grid_words = build_word_grid(2, 2).flatten()
        with pytest.raises(InvalidModulus):
            is_locally_linearly_independent(grid_words, 2, 2, p=2**61 - 3)

    def test_small_modulus_rejected(self):
        grid_words = build_word_grid(2, 2).flatten()
        with pytest.raises(InvalidModulus):
            is_locally_linearly_independent(grid_words, 2, 2, p=1009)

    def test_word_digest_is_sha256_of_the_joined_words(self):
        # the digest no longer comes from hashlib; it must not change
        words = build_word_grid(4, 3).flatten()
        payload = "|".join(word_string(word, 3) for word in words).encode()
        assert words_digest(words, 3) == hashlib.sha256(payload).hexdigest()
        report = grid_certification(4, 3, trials=1)
        assert report.word_digest == hashlib.sha256(payload).hexdigest()

    def test_report_is_deterministic(self):
        a = grid_certification(3, 2, trials=3, seed=17).to_json()
        b = grid_certification(3, 2, trials=3, seed=17).to_json()
        assert json.dumps(a) == json.dumps(b)

    def test_success_implies_full_rank(self, fp_default):
        # the determinant and the rank of the same rows agree on certification
        for n, g in [(2, 2), (3, 2), (3, 3)]:
            grid_words = build_word_grid(n, g).flatten()
            rng = random.Random(derive_trial_seed(5, 0))
            t = sample_tuple(n, g, fp_default, rng)
            evals = evaluate_blocks(grid_words, t)
            if prime_discriminant(evals) != 0:
                assert extend_rank(evals) == n * n

    def test_random_word_harness_is_deterministic(self):
        a = random_words_certification(3, 2, trials=2, seed=4)
        b = random_words_certification(3, 2, trials=2, seed=4)
        assert a == b
        assert a.trials == 2

    def test_random_word_harness_needs_enough_words(self):
        with pytest.raises(InvalidInput):
            random_words_certification(3, 2, d=1)  # only 4 words of degree 2

    def test_random_word_harness_rejects_unary_alphabet(self):
        with pytest.raises(InvalidInput):
            random_words_certification(3, 1)

    def test_prefix_sharing_matches_direct_evaluation(self, fp_default):
        rng = random.Random(13)
        t = sample_tuple(3, 2, fp_default, rng)
        words = build_word_grid(3, 2).flatten()
        shared = evaluate_blocks(words, t)
        direct = [evaluate_word(word, t) for word in words]
        assert shared == direct


def sweeps(words: list[tuple[int, ...]], t: tuple[Matrix, ...]) -> bool:
    """Do n^2 words span M_n at t?  Their streamed determinant is nonzero."""
    assert len(words) == t[0].n_rows ** 2
    return _det_echelon(word_blocks(words, letter_stack(t)), t[0].ring) != 0


class TestSweepCheck:
    def test_rank_three_point_does_not_sweep(self, fp_default):
        # x, y, xy, yx at X = diag(1, 2), Y = e12 + e21: the evaluations
        # span only a 3-dimensional subspace (xy + yx is a multiple of y)
        x = mat([[1, 0], [0, 2]], fp_default)
        y = mat([[0, 1], [1, 0]], fp_default)
        t = (x, y)
        words = [(1,), (2,), (1, 2), (2, 1)]
        assert extend_rank(evaluate_blocks(words, t)) == 3
        assert not sweeps(words, t)

    def test_adjusted_point_sweeps(self, fp_default):
        x = mat([[1, 0], [0, 2]], fp_default)
        y = mat([[0, 1], [1, 1]], fp_default)
        t = (x, y)
        words = [(1,), (2,), (1, 2), (2, 1)]
        assert sweeps(words, t)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_symmetric_tuples_sweep_grid_words(self, n, fp_default):
        words = build_word_grid(n, 2).flatten()
        rng = random.Random(derive_trial_seed(0, 0))
        t = sample_tuple(n, 2, fp_default, rng, symmetric=True)
        for m in t:
            assert m == mat_transpose(m)
        assert sweeps(words, t)


def fold_rank(ms: list[Matrix]) -> int:
    """Rank by folding `echelon_insert`, not `echelon_extend`, which is under
    test here."""
    vectors, pivots = [], []
    for m in ms:
        echelon_insert(vectors, pivots, m.entries, m.ring.p)
    return len(vectors)


def brute_dims(
    t: tuple[Matrix, ...], max_k: int, include_identity: bool = False
) -> list[int]:
    """Independent span dimensions: evaluate every word of length <= k."""
    dims = []
    for k in range(1, max_k + 1):
        evals = [identity(t[0].n_rows, t[0].ring)] if include_identity else []
        for length in range(1, k + 1):
            for word in all_words(len(t), length):
                evals.append(evaluate_word(word, t))
        dims.append(fold_rank(evals))
    return dims


class TestSubspaceLength:
    def test_identity_pair(self, fp_default):
        i2 = identity(2, fp_default)
        report = subspace_length((i2, i2))
        assert report.dims == (1, 1)
        assert report.length == 1
        assert report.terminal_dim == 1

    def test_unit_pair_reaches_full_algebra(self, fp_default):
        e11 = unit(2, 1, 1, fp_default)
        y = mat_add(unit(2, 1, 2, fp_default), unit(2, 2, 1, fp_default))
        report = subspace_length((e11, y))
        assert report.terminal_dim == 4
        assert report.length == 2
        assert report.dims == (2, 4, 4)

    def test_against_bruteforce_oracle(self, fp_default):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.choice([2, 3])
            t = sample_tuple(n, 2, fp_default, rng)
            report = subspace_length(t)
            oracle = brute_dims(t, report.length + 1)
            assert list(report.dims) == oracle
            assert oracle[report.length - 1] == oracle[report.length]

    @pytest.mark.parametrize("include_identity", [False, True])
    def test_fold_branch_against_bruteforce(self, fp101, include_identity):
        # F_101 wraps often, and 0/1 tuples give degenerate chains
        rng = random.Random(37)
        for trial in range(12):
            n = rng.choice([1, 2, 3])
            hi = 2 if trial % 2 else 101
            t = tuple(
                Matrix(n, n, tuple(rng.randrange(hi) for _ in range(n * n)), fp101)
                for _ in range(2)
            )
            report = subspace_length(t, include_identity=include_identity)
            oracle = brute_dims(t, report.length + 1, include_identity)
            assert list(report.dims) == oracle

    def test_include_identity_flag(self, fp_default):
        e11 = unit(2, 1, 1, fp_default)
        e12 = unit(2, 1, 2, fp_default)
        t = (e11, e12)
        without = subspace_length(t)
        with_id = subspace_length(t, include_identity=True)
        assert without.dims[0] == 2
        assert with_id.dims[0] == 3

    def test_scale_invariance(self, fp_default):
        rng = random.Random(29)
        p = fp_default.p
        for _ in range(10):
            n = rng.choice([2, 3])
            t = sample_tuple(n, 2, fp_default, rng)
            c = rng.randrange(1, p)
            scaled = tuple(mat_scale(m, c) for m in t)
            assert subspace_length(t).dims == subspace_length(scaled).dims

    def test_sweep_implies_short_chain(self, fp_default):
        for n in [2, 3, 4]:
            grid = build_word_grid(n, 2)
            rng = random.Random(derive_trial_seed(31, n))
            t = sample_tuple(n, 2, fp_default, rng)
            if sweeps(grid.flatten(), t):
                report = subspace_length(t)
                assert report.length <= 2 * grid.d


class TestLengthCap:
    def _forbid(self, monkeypatch, *names):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the size check")

        for name in names:
            monkeypatch.setattr(genericity, name, refuse)

    def test_experiment_refuses_before_sampling(self, monkeypatch):
        self._forbid(monkeypatch, "sample_tuple", "sample_matrix", "subspace_length")
        with pytest.raises(TooLarge):
            generic_length_experiment(LENGTH_MAX_N + 1, 2, trials=1)

    def test_subspace_length_refuses_before_allocating(self, monkeypatch, fp101):
        self._forbid(monkeypatch, "letter_stack", "echelon_extend")
        n = LENGTH_MAX_N + 1
        t = (zeros(n, fp101), zeros(n, fp101))
        with pytest.raises(TooLarge):
            subspace_length(t)

    def test_cap_is_inclusive(self):
        check_length_size(LENGTH_MAX_N)
        with pytest.raises(TooLarge):
            check_length_size(LENGTH_MAX_N + 1)

    def test_fold_experiment_refuses_before_sampling(self, monkeypatch):
        # the primes that once folded under a lower cap share the one cap
        self._forbid(monkeypatch, "sample_tuple", "sample_matrix", "subspace_length")
        for p in (101, (1 << 61) - 31):
            with pytest.raises(TooLarge):
                generic_length_experiment(LENGTH_MAX_N + 1, 2, p=p, trials=1)

    def test_fold_subspace_length_refuses_before_allocating(
        self, monkeypatch, fp_default
    ):
        # the default field, which never folded, is refused at the same cap
        self._forbid(monkeypatch, "letter_stack", "echelon_extend")
        n = LENGTH_MAX_N + 1
        t = (zeros(n, fp_default), zeros(n, fp_default))
        with pytest.raises(TooLarge):
            subspace_length(t)


class TestCertifyCap:
    def _forbid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the size check")

        for name in (
            "build_word_grid",
            "sample_tuple",
            "sample_matrix",
            "evaluate_words",
            "word_blocks",
        ):
            monkeypatch.setattr(genericity, name, refuse)

    def test_cap_is_inclusive(self):
        check_certify_size(CERTIFY_MAX_N)
        with pytest.raises(TooLarge):
            check_certify_size(CERTIFY_MAX_N + 1)

    @pytest.mark.parametrize(
        "n, p",
        [(CERTIFY_MAX_N + 1, DEFAULT_PRIME), (CERTIFY_MAX_N + 1, (1 << 61) - 31)],
    )
    def test_refused_before_grid_or_tuple(self, monkeypatch, n, p):
        self._forbid(monkeypatch)
        with pytest.raises(TooLarge):
            grid_certification(n, 2, p=p, trials=1)
        with pytest.raises(TooLarge):
            random_words_certification(n, 2, p=p, trials=1)
        with pytest.raises(TooLarge):
            is_locally_linearly_independent([(1,)] * (n * n), n, 2, p=p, trials=1)


class TestTrialsCap:
    def _forbid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the trials check")

        for name in (
            "build_word_grid",
            "sample_tuple",
            "sample_matrix",
            "word_blocks",
            "subspace_length",
        ):
            monkeypatch.setattr(genericity, name, refuse)

    def test_cap_is_inclusive(self):
        # the CLI defaults, 3 certify trials and 5 length trials, are admitted
        assert TRIALS_MAX >= 5
        check_trials(1)
        check_trials(TRIALS_MAX)
        with pytest.raises(TooLarge):
            check_trials(TRIALS_MAX + 1)
        with pytest.raises(InvalidInput, match="at least one trial"):
            check_trials(0)

    def test_refused_before_sampling(self, monkeypatch):
        self._forbid(monkeypatch)
        over = TRIALS_MAX + 1
        with pytest.raises(TooLarge, match="trials"):
            grid_certification(3, 2, trials=over)
        with pytest.raises(TooLarge, match="trials"):
            random_words_certification(3, 2, trials=over)
        with pytest.raises(TooLarge, match="trials"):
            is_locally_linearly_independent(
                build_word_grid(3, 2).flatten(), 3, 2, trials=over
            )
        with pytest.raises(TooLarge, match="trials"):
            generic_length_experiment(3, 2, trials=over)


def _grid_tuple(n, g, ring, seed):
    words = build_word_grid(n, g).flatten()
    return words, sample_tuple(n, g, ring, random.Random(seed))


def _upper_triangular_tuple(n, g, ring, rng):
    # every word evaluates inside the upper triangular matrices, so the
    # span has dimension at most n(n + 1)/2 < n^2
    return tuple(
        Matrix(
            n,
            n,
            tuple(
                rng.randrange(ring.p) if i <= j else 0
                for i in range(n)
                for j in range(n)
            ),
            ring,
        )
        for _ in range(g)
    )


STREAM_RINGS = [prime_field(DEFAULT_PRIME), prime_field((1 << 61) - 31)]


def _counting_blocks(drawn):
    """`word_blocks` that appends the size of each block it yields to drawn."""

    def blocks(words, st):
        for block in exactalg.word_blocks(words, st):
            drawn.append(len(block))
            yield block

    return blocks


class TestStreamedElimination:
    """The blocks of `word_blocks` fed straight into elimination against
    the joined path, the determinant of the whole list of evaluations,
    and the rank of the row-at-a-time oracle."""

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 5, 6, 9, 12, 17, 20])
    def test_determinant_equals_discriminant(self, n, g):
        ring = prime_field(DEFAULT_PRIME)
        words, t = _grid_tuple(n, g, ring, 100 * n + g)
        streamed = _det_echelon(word_blocks(words, letter_stack(t)), ring)
        assert streamed == prime_discriminant(evaluate_blocks(words, t))
        assert streamed != 0

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_determinant_equals_discriminant_off_the_default_prime(self, n, g):
        # the same kernel, with Shoup products in place of the Mersenne folds
        ring = prime_field((1 << 61) - 31)
        words, t = _grid_tuple(n, g, ring, 100 * n + g)
        streamed = _det_echelon(word_blocks(words, letter_stack(t)), ring)
        assert streamed == prime_discriminant(evaluate_blocks(words, t)) != 0

    def test_late_duplicate_stops_the_stream(self, monkeypatch):
        # 144 grid words make blocks 0..4; the copy of word 5 at row 100
        # makes block 3 dependent, so block 4 is never formed
        n, g = 12, 2
        drawn, products = [], []

        def counted_stack(t):
            st = exactalg.letter_stack(t)

            def mul(a, b):
                products.append(len(a))
                return st.mul(a, b)

            return st._replace(mul=mul)

        monkeypatch.setattr(genericity, "word_blocks", _counting_blocks(drawn))
        monkeypatch.setattr(genericity, "letter_stack", counted_stack)
        words = build_word_grid(n, g).flatten()
        assert len(words) == 4 * _EXTEND_BLOCK + 16
        full = is_locally_linearly_independent(words, n, g, trials=1)
        assert full.successes == 1
        assert drawn == [_EXTEND_BLOCK] * 4 + [16]
        full_products = len(products)
        drawn.clear()
        products.clear()
        words[100] = words[5]
        report = is_locally_linearly_independent(words, n, g, trials=1)
        assert report.successes == 0
        assert drawn == [_EXTEND_BLOCK] * 4
        assert len(products) == full_products - 1

    @pytest.mark.parametrize("ring", STREAM_RINGS, ids=["m61", "p61m31"])
    def test_rank_and_sweep_on_rank_deficient_inputs(self, ring):
        # every case has at least n^2 words, so the first n^2 of them must
        # have a zero determinant
        rng = random.Random(5)
        cases = []
        # a tuple inside a proper subalgebra, with more words than n^2
        for n, g, degree in [(3, 2, 4), (4, 3, 3), (7, 2, 6)]:
            t = _upper_triangular_tuple(n, g, ring, rng)
            cases.append((all_words(g, degree), t))
        # grid words with repeats spread across blocks
        words, t = _grid_tuple(9, 2, ring, 9)
        for i in range(0, len(words), 7):
            words[i] = words[i + 1]
        cases.append((words, t))
        # a zero letter: only words in the other letter survive
        n = 3
        z = (sample_tuple(n, 2, ring, rng)[0], zeros(n, ring))
        cases.append((all_words(2, 5), z))
        for words, t in cases:
            expected = fold_rank(evaluate_blocks(words, t))
            assert expected < t[0].n_rows ** 2
            vectors, pivots = [], []
            for block in word_blocks(words, letter_stack(t)):
                vectors, pivots, _, _ = echelon_extend(vectors, pivots, block, ring)
            assert len(vectors) == expected
            assert not sweeps(words[: t[0].n_rows ** 2], t)

    @pytest.mark.parametrize("ring", STREAM_RINGS, ids=["m61", "p61m31"])
    def test_full_span_stops_the_stream(self, ring, monkeypatch):
        # n = 3, g = 6: the letters span 6 dimensions, and the first of the
        # two product blocks of step 1 (36 products) fills M_3, so
        # `subspace_length` forms neither the second block nor any product
        # of step 2
        products = []

        def counted_stack(t):
            st = exactalg.letter_stack(t)

            def mul(a, b):
                products.append(len(a))
                return st.mul(a, b)

            return st._replace(mul=mul)

        monkeypatch.setattr(genericity, "letter_stack", counted_stack)
        t = sample_tuple(3, 6, ring, random.Random(3))
        assert subspace_length(t).dims == (6, 9, 9)
        assert products == [_EXTEND_BLOCK]


class TestExperiment:
    def test_n2_generic_chain(self):
        summary = generic_length_experiment(2, 2, trials=5, seed=0)
        for report in summary.reports:
            assert report.dims == (2, 4, 4)
            assert report.length == 2
        assert summary.all_within_bounds

    def test_bounds_recorded(self):
        summary = generic_length_experiment(5, 2, trials=2, seed=1)
        assert summary.reports[0].paz_bound == 8
        assert summary.reports[0].log_bound == 6

    @pytest.mark.parametrize("g", [1, 0])
    def test_unary_alphabet_is_refused_before_sampling(self, monkeypatch, g):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the alphabet check")

        for name in ("sample_tuple", "sample_matrix", "subspace_length"):
            monkeypatch.setattr(genericity, name, refuse)
        with pytest.raises(InvalidInput, match="need g >= 2"):
            generic_length_experiment(3, g, trials=1)

    def test_empty_size_is_refused_before_sampling(self, monkeypatch):
        # the same check_length_run as `length` refuses n < 1 before any
        # tuple is sampled
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the size check")

        for name in ("sample_tuple", "sample_matrix", "subspace_length"):
            monkeypatch.setattr(genericity, name, refuse)
        with pytest.raises(InvalidInput, match="n must be >= 1"):
            generic_length_experiment(0, 2, trials=1)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_is_refused(self, trials):
        # an empty report list would claim every bound holds
        with pytest.raises(InvalidInput, match="at least one trial"):
            generic_length_experiment(2, 2, trials=trials)


class TestRosenthal:
    """All g^(2d) words of degree 2d span M_n (g^(2d) >= n^2).  The grid of
    (n, gbar, d), gbar = `least_alphabet(n, d)`, is n^2 of those words over
    the first gbar letters, so its certification proves the claim for every
    g >= gbar, whatever the other g - gbar matrices are."""

    @pytest.mark.parametrize("n,g,d", [(2, 2, 1), (3, 3, 1), (4, 2, 2)])
    def test_spanning_cases(self, n, g, d):
        gbar = least_alphabet(n, d)
        assert gbar <= g
        grid = build_word_grid(n, gbar, d).flatten()
        assert len(set(grid)) == n * n
        assert set(grid) <= set(all_words(g, 2 * d))
        assert grid_certification(n, gbar, d=d, trials=1, seed=0).certified

    def test_surplus_letters_are_padded_with_zeros(self, fp_default):
        # gbar = 2 < g = 3: the two generic matrices alone carry the span
        assert least_alphabet(2, 1) == 2
        t = sample_tuple(2, 2, fp_default, random.Random(derive_trial_seed(0, 0)))
        padded = t + (zeros(2, fp_default),)
        assert sweeps(build_word_grid(2, 2, 1).flatten(), padded)

    def test_infeasible_when_too_few_words(self):
        # g^(2d) < n^2 means g^d < n: no grid of that degree exists
        with pytest.raises(InvalidInput, match="too small"):
            grid_certification(4, 2, d=1)

    def test_unary_alphabet_is_refused(self):
        with pytest.raises(InvalidInput, match="g >= 2"):
            grid_certification(2, 1, d=1)


class TestRosenthalCap:
    def test_huge_degree_is_refused_at_once(self, monkeypatch):
        # the degree cap of the grid bounds the claim's degree too
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the size check")

        for name in ("sample_matrix", "sample_tuple", "word_blocks"):
            monkeypatch.setattr(genericity, name, refuse)
        with pytest.raises(TooLarge):
            grid_certification(4, 2, d=WORDS_MAX_D + 1)
        with pytest.raises(TooLarge):
            grid_certification(4, 2, d=10**18)
