"""Randomized certification and length experiments over a large prime field.

A single sample point with nonvanishing discriminant certifies that the
word evaluations can be linearly independent; the per-trial failure bound
is (sum of word degrees) / p by the standard degree argument for random
evaluation of a nonzero polynomial, which for an n-by-n grid of degree-2d
words reads 2d * n^2 / p.  All-zero trials are reported as inconclusive,
never as a dependence claim.

The grid's words all have degree 2d and use only the first g letters, so a
certified grid at (n, g, d) also proves that all words of degree 2d over
any g' >= g letters span M_n at a generic g'-tuple, whatever its last
g' - g matrices are: those words include the grid's.

Every randomized operation takes an explicit 64-bit seed.  Per-trial seeds
are derived with a SplitMix64 step on (seed, trial index), so a report is a
pure function of (seed, trials) no matter how trials are scheduled.
"""

from __future__ import annotations

import random
from math import gcd

from .errors import InvalidInput, InvalidModulus, InvalidWord, TooLarge
from .exactalg import (
    _EXTEND_BLOCK,
    MERSENNE61,
    Matrix,
    ScalarRing,
    _check_uniform,
    _det_echelon,
    discriminant,  # noqa: F401 - re-exported; perfbench/tracer.py wraps it here
    echelon_extend,
    evaluate_words,  # noqa: F401 - re-exported, and wrapped there too
    letter_stack,
    prime_field,
    span_insert,  # noqa: F401 - re-exported, and wrapped there too
    word_blocks,
)
from .words import (
    build_word_grid,
    check_alphabet_size,
    check_grid_size,
    degree_exponent,
    record,
    word_string,
)

try:
    # hashlib loads OpenSSL's libcrypto, about 3 MB of max RSS in every
    # certify or length job; the interpreter's built-in sha256 is far lighter
    from _sha256 import sha256  # Python <= 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        from hashlib import sha256

DEFAULT_PRIME = MERSENNE61
_MASK64 = (1 << 64) - 1

# Largest n that `subspace_length` accepts, at every prime.  Its echelon
# basis holds at most n^4 / 4 entries, so time grows as ~n^6 and memory as
# ~n^4.  One g = 2 chain at n = 48 (CLI wall time / max RSS, 2 cores) takes
# 5.0-5.9 s / 123 MB modulo 2^61 - 1 and 7.9-8.3 s / 121 MB modulo 2^61 - 31.
LENGTH_MAX_N = 48

# Largest n that certification accepts, at every prime.  A trial's
# determinant has n^2 rows of n^2 entries, and the words are evaluated into
# it 32 rows at a time, so time grows as ~n^6 and memory as ~n^4.  One
# g = 2 trial at n = 40 (CLI wall time / max RSS, 2 cores) takes 2.2-2.5 s /
# 68 MB modulo 2^61 - 1 and 3.3-3.5 s / 70 MB modulo 2^61 - 31.  n = 48
# takes ~2.3x the time of n = 40, so the cap stays at 40.
CERTIFY_MAX_N = 40

# Largest trial count that `certify` and `length` accept.  At the n caps one
# trial takes up to 8.3 s (CLI wall time, 2 cores: a g = 2 length chain at
# n = 48 modulo 2^61 - 31; 5.9 s modulo 2^61 - 1), so a run of one size
# stays within ~9 min; `length --n 3 --trials 100000` ran past 60 s before
# it was capped.
TRIALS_MAX = 64


def check_trials(trials: int) -> None:
    """Raise InvalidInput below one trial and TooLarge above TRIALS_MAX."""
    if trials < 1:
        raise InvalidInput("need at least one trial")
    if trials > TRIALS_MAX:
        raise TooLarge(f"trials are capped at {TRIALS_MAX}; got {trials}")


def derive_trial_seed(seed: int, counter: int) -> int:
    """SplitMix64 of seed + (counter + 1) * golden-ratio increment."""
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def sample_matrix(
    n: int, ring: ScalarRing, rng: random.Random, symmetric: bool = False
) -> Matrix:
    """Uniform matrix over F_p; symmetric sampling mirrors the upper triangle."""
    if ring.kind != "prime_field":
        raise InvalidInput("uniform sampling needs a finite scalar ring")
    p = ring.p
    if symmetric:
        entries = [0] * (n * n)
        for i in range(n):
            for j in range(i, n):
                x = rng.randrange(p)
                entries[i * n + j] = x
                entries[j * n + i] = x
        return Matrix(n, n, tuple(entries), ring)
    return Matrix(n, n, tuple(rng.randrange(p) for _ in range(n * n)), ring)


def sample_tuple(
    n: int,
    g: int,
    ring: ScalarRing,
    rng: random.Random,
    symmetric: bool = False,
) -> tuple[Matrix, ...]:
    """g matrices of `sample_matrix`, drawn in order from rng."""
    return tuple(sample_matrix(n, ring, rng, symmetric) for _ in range(g))


def words_digest(words: list[tuple[int, ...]], g: int) -> str:
    """sha256, in hex, of the words' strings joined by "|"."""
    payload = "|".join(word_string(w, g) for w in words).encode()
    return sha256(payload).hexdigest()


@record
class CertificationReport:
    n: int
    g: int
    d: int
    word_digest: str
    trials: int
    successes: int
    p: int
    seed: int
    trial_nonzero: tuple[bool, ...]
    # (numerator, denominator) of the reduced fraction total degree / p
    single_trial_failure_bound: tuple[int, int]

    @property
    def certified(self) -> bool:
        return self.successes > 0

    @property
    def status(self) -> str:
        return "certified" if self.certified else "inconclusive"

    def to_json(self) -> dict:
        num, den = self.single_trial_failure_bound
        return {
            "n": self.n,
            "g": self.g,
            "d": self.d,
            "word_digest": self.word_digest,
            "trials": self.trials,
            "successes": self.successes,
            "p": str(self.p),
            "seed": self.seed,
            "trial_nonzero": list(self.trial_nonzero),
            "single_trial_failure_bound": f"{num}/{den}" if den != 1 else str(num),
            "status": self.status,
        }


def check_certify_size(n: int) -> None:
    """Raise TooLarge when n exceeds CERTIFY_MAX_N."""
    if n > CERTIFY_MAX_N:
        raise TooLarge(f"certification is capped at n = {CERTIFY_MAX_N}; got n = {n}")


def is_locally_linearly_independent(
    words: list[tuple[int, ...]],
    n: int,
    g: int,
    p: int = DEFAULT_PRIME,
    trials: int = 3,
    seed: int = 0,
    symmetric: bool = False,
) -> CertificationReport:
    """Sample random tuples and evaluate the discriminant of the given words.

    Per trial the words are evaluated one elimination block at a time
    (`word_blocks`) and the blocks go straight into the determinant
    (`_det_echelon`), so at most one block of products is held besides the
    echelon rows; a block with a dependent row ends the trial at 0.  One
    nonzero trial certifies that the words evaluate to a linearly
    independent family somewhere; zero successes are inconclusive (over a
    finite field only the positive direction is sound).  Raises TooLarge,
    before sampling, when n exceeds the cap of `check_certify_size`, and
    InvalidInput when the words have no string form for the digest (g > 26).
    A trial count outside [1, TRIALS_MAX] is refused before sampling too.
    """
    check_certify_size(n)
    check_trials(trials)
    if len(words) != n * n:
        raise InvalidWord(f"need exactly {n * n} words, got {len(words)}")
    for w in words:
        if not w or any(not 1 <= letter <= g for letter in w):
            raise InvalidWord(f"bad word {w} for alphabet size {g}")
    if p <= (1 << 40):
        raise InvalidModulus(f"modulus must exceed 2^40, got {p}")
    ring = prime_field(p)
    digest = words_digest(words, g)
    flags = []
    for trial in range(trials):
        rng = random.Random(derive_trial_seed(seed, trial))
        t = sample_tuple(n, g, ring, rng, symmetric)
        flags.append(_det_echelon(word_blocks(words, letter_stack(t)), ring) != 0)
    total_degree = sum(map(len, words))
    common = gcd(total_degree, p)
    return CertificationReport(
        n=n,
        g=g,
        d=max(map(len, words)),
        word_digest=digest,
        trials=trials,
        successes=sum(flags),
        p=p,
        seed=seed,
        trial_nonzero=tuple(flags),
        single_trial_failure_bound=(total_degree // common, p // common),
    )


@record
class LengthReport:
    n: int
    g: int
    dims: tuple[int, ...]
    length: int
    terminal_dim: int
    paz_bound: int
    log_bound: int

    # The stationary-chain index is always >= 1, so at n = 1 (where both
    # raw bounds are 0) the meaningful check floors the bound at 1.
    @property
    def within_log_bound(self) -> bool:
        return self.length <= max(1, self.log_bound)

    @property
    def within_paz_bound(self) -> bool:
        return self.length <= max(1, self.paz_bound)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "g": self.g,
            "dims": list(self.dims),
            "length": self.length,
            "terminal_dim": self.terminal_dim,
            "paz_bound": self.paz_bound,
            "log_bound": self.log_bound,
            "within_log_bound": self.within_log_bound,
            "within_paz_bound": self.within_paz_bound,
        }


def check_length_size(n: int) -> None:
    """Raise TooLarge when n exceeds LENGTH_MAX_N."""
    if n > LENGTH_MAX_N:
        raise TooLarge(f"length chains are capped at n = {LENGTH_MAX_N}; got n = {n}")


def check_length_run(sizes, g: int, trials: int) -> None:
    """Refuse a run of length chains over `sizes` before any of it runs.

    Raises, in this order: past `check_trials`; InvalidInput for g < 2 and
    TooLarge past the alphabet cap; for each n, InvalidInput below 1 and
    TooLarge past `check_length_size`; and TooLarge when the run costs more
    than the costliest single size, TRIALS_MAX trials at n = LENGTH_MAX_N.
    A chain at size n costs ~n^6, so the run costs trials * sum(n^6) of
    those units.
    """
    check_trials(trials)
    if g < 2:
        raise InvalidInput(f"need g >= 2 matrices, got g = {g}")
    check_alphabet_size(g)
    for n in sizes:
        if n < 1:
            raise InvalidInput(f"n must be >= 1, got {n}")
        check_length_size(n)
    if trials * sum(n**6 for n in sizes) > TRIALS_MAX * LENGTH_MAX_N**6:
        raise TooLarge(
            f"a length run is capped at trials * sum(n^6) <= {TRIALS_MAX} * "
            f"{LENGTH_MAX_N}^6, the cost of {TRIALS_MAX} trials at n = {LENGTH_MAX_N}"
        )


def subspace_length(
    t: tuple[Matrix, ...], include_identity: bool = False
) -> LengthReport:
    """Grow the span of products of the tuple until the dimension stabilizes.

    Step k holds the span of all products of at most k tuple members; the
    reported chain ends with the first repeated dimension.  The identity is
    excluded unless requested (products of length zero are not counted).
    Until it repeats the dimension rises at every step and never passes
    n^2, so the chain ends by step n^2 + 1.  t is refused as
    `_check_uniform` refuses it, and over the integers `echelon_extend`
    raises InvalidInput.

    The letters, the fresh products and the echelon rows are stacks of
    `letter_stack`; each step's products are formed and go through
    `echelon_extend` one elimination block (_EXTEND_BLOCK rows) at a time,
    which bounds the memory that products and reductions hold at once.
    """
    g = len(t)
    n, ring = _check_uniform(t)
    nn = n * n
    check_length_size(n)
    st = letter_stack(t)
    vectors, pivots = [], []
    if include_identity:
        vectors, pivots, _, _ = echelon_extend(vectors, pivots, st.eye, ring)
    vectors, pivots, accepted, _ = echelon_extend(vectors, pivots, st.letters, ring)
    fresh = st.take(st.letters, accepted)
    dims = [len(vectors)]
    for k in range(1, nn + 2):
        # products a @ b with one more factor, a over the letters (outer)
        # and b over the fresh members (inner); older basis members already
        # produced their successors in earlier steps
        pairs, found = g * len(fresh), []
        for lo in range(0, pairs, _EXTEND_BLOCK):
            if len(vectors) == nn:
                break  # a full span takes no more rows
            ab = range(lo, min(lo + _EXTEND_BLOCK, pairs))
            prods = st.mul(
                st.take(st.letters, [i // len(fresh) for i in ab]),
                st.take(fresh, [i % len(fresh) for i in ab]),
            )
            vectors, pivots, accepted, _ = echelon_extend(
                vectors, pivots, prods, ring
            )
            found.append(st.take(prods, accepted))
        dims.append(len(vectors))
        if dims[-1] == dims[-2]:
            break
        fresh = st.join(found)
    return LengthReport(
        n=n,
        g=g,
        dims=tuple(dims),
        length=k,
        terminal_dim=dims[-1],
        paz_bound=2 * n - 2,
        log_bound=2 * degree_exponent(n, g),
    )


@record
class LengthExperimentSummary:
    n: int
    g: int
    p: int
    trials: int
    seed: int
    reports: tuple[LengthReport, ...]
    violations_log: int
    violations_paz: int

    @property
    def all_within_bounds(self) -> bool:
        return self.violations_log == 0 and self.violations_paz == 0

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "g": self.g,
            "p": str(self.p),
            "trials": self.trials,
            "seed": self.seed,
            "reports": [r.to_json() for r in self.reports],
            "violations_log": self.violations_log,
            "violations_paz": self.violations_paz,
            "all_within_bounds": self.all_within_bounds,
        }


def generic_length_experiment(
    n: int,
    g: int,
    p: int = DEFAULT_PRIME,
    trials: int = 5,
    seed: int = 0,
    symmetric: bool = False,
    include_identity: bool = False,
) -> LengthExperimentSummary:
    """Sample tuples and check the length against both bounds per trial.

    Raises InvalidInput or TooLarge before sampling anything.
    """
    check_length_run((n,), g, trials)
    ring = prime_field(p)
    reports = []
    for trial in range(trials):
        rng = random.Random(derive_trial_seed(seed, trial))
        t = sample_tuple(n, g, ring, rng, symmetric)
        reports.append(subspace_length(t, include_identity=include_identity))
    return LengthExperimentSummary(
        n=n,
        g=g,
        p=p,
        trials=trials,
        seed=seed,
        reports=tuple(reports),
        violations_log=sum(1 for r in reports if not r.within_log_bound),
        violations_paz=sum(1 for r in reports if not r.within_paz_bound),
    )


def grid_certification(
    n: int,
    g: int,
    p: int = DEFAULT_PRIME,
    trials: int = 3,
    seed: int = 0,
    d: int | None = None,
    symmetric: bool = False,
    inject_duplicate: bool = False,
) -> CertificationReport:
    """Certify the flattened word grid for (n, g); the usual entry point.

    Raises TooLarge, before building the grid, when n exceeds the cap of
    `check_certify_size` or trials that of `check_trials`.
    """
    check_certify_size(n)
    check_trials(trials)
    grid = build_word_grid(n, g, d)
    words = grid.flatten()
    if inject_duplicate and len(words) >= 2:
        words[1] = words[0]
    return is_locally_linearly_independent(
        words, n, g, p=p, trials=trials, seed=seed, symmetric=symmetric
    )


def random_words_certification(
    n: int,
    g: int,
    p: int = DEFAULT_PRIME,
    trials: int = 3,
    seed: int = 0,
    d: int | None = None,
    symmetric: bool = False,
) -> CertificationReport:
    """Exploratory harness: certify n^2 DISTINCT uniform words of degree 2d.

    Whether arbitrary word selections of this degree always certify is an
    open matter; this samples one selection per seed and reports what the
    discriminant says, nothing more.  The word sample draws its seed from
    counter = trials, after the per-trial counters.  Raises TooLarge, before
    sampling any word, past the caps of `check_certify_size`,
    `check_grid_size` and `check_trials`.
    """
    check_certify_size(n)
    check_trials(trials)
    if d is None:
        d = degree_exponent(n, g)
    check_grid_size(n, g, d)
    s = 2 * d
    if g**s < n * n:
        raise InvalidInput(
            f"only {g**s} words of degree {s} exist, need {n * n} distinct"
        )
    rng = random.Random(derive_trial_seed(seed, trials))
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < n * n:
        chosen.add(tuple(rng.randrange(1, g + 1) for _ in range(s)))
    return is_locally_linearly_independent(
        sorted(chosen), n, g, p=p, trials=trials, seed=seed, symmetric=symmetric
    )
