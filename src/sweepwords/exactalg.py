"""Exact scalar rings (prime field, big integers) and dense linear algebra.

Everything here is exact: prime-field elements are canonical representatives
in [0, p), integer work never leaves the integers (fraction-free
elimination).  All values are immutable and all operations are pure
functions, so results may be shared freely across threads.

Over every prime field F_p (p < 2^62) matrices are int64 arrays, and their
products run through one exact BLAS kernel (`_matmul`): entries split into
21-bit limbs, the limb products are float64 matmuls that stay below 2^53,
and the partial sums recombine mod p.  A large product is formed in slices
(_BATCH matrix pairs of a stack, or _ROWS rows of a 2-D product), which
bounds the kernel's temporaries.  Only that recombination (`_recombine`)
depends on p: modulo 2^61 - 1 it reduces by 61-bit rotations, modulo every
other prime by Shoup's precomputed-quotient multiplication.  The
elementwise product by multipliers known in advance (`_mulmod`) is Shoup's
at every prime.
Over the integers products are exact Python ints on flat row-major tuples
(`_int_matmul`).  `letter_stack` picks the storage and product of the
ring, and two things are built on it and on the kernel:

- `word_blocks`, the one word evaluator: every word splits into two
  halves, the distinct halves are built once through a prefix trie, and
  the words come out in blocks of _EXTEND_BLOCK rows, each one batched
  product head @ tail formed only when it is asked for.
  `evaluate_words` joins the blocks of an integer tuple into a list of
  matrices, for the witness discriminant.
- `echelon_extend`, blocked echelon extension: candidate rows go in blocks
  into an int64 RREF basis held on its free columns only (at most N^2/4
  entries), each block reduced against it by one kernel product.  Inside
  a block, Gauss-Jordan elimination runs on a window of its leftmost free
  columns (and an identity that records the row operations), which a row
  with no pivot there widens by a product of the operations and the next
  free columns; one more product applies them to the free columns left.

Elimination runs over prime fields only, and all of it goes through
`echelon_extend`: `span_insert`, the span growth of
`genericity.subspace_length` and the prime-field determinant, which is
the product of the leads it reports times the sign of the pivot order
(`_det_echelon`).  Over the integers `echelon_extend` raises InvalidInput,
so `span_insert` and `subspace_length` refuse them before eliminating
anything.  Block evaluation feeds elimination directly: `_det_echelon`
takes the blocks of `word_blocks` one at a time, so certification holds
one block of products besides the echelon rows, and stops evaluating at
the first dependent block.

The integers serve one routine, the exact determinant of a witness
(`discriminant`, which refuses prime-field matrices).  It is split along
the block-triangular form of its nonzero pattern
(`_det_block_triangular`): a perfect row -> column matching puts nonzeros on
the diagonal (none means the determinant is 0), the strongly connected
components of the matched pattern are the irreducible diagonal blocks,
and the determinant is the matching's sign times the product of the block
determinants, each by fraction-free (Bareiss) elimination.  The witness
grids split into blocks of at most 32 x 32; a dense matrix is one block.

numpy is imported inside the functions that run array code (the
prime-field branch of `letter_stack`, `echelon_extend` and the kernel
helpers), not at module scope, so only prime-field work loads it: `certify`
and `length`.  Importing the package, `words`, `graph`, `witness` (over the
integers) and every input refused with exit 2 run without it.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, NamedTuple, Sequence

from .errors import (
    ArityMismatch,
    InvalidInput,
    InvalidModulus,
    InvalidShape,
    InvalidWord,
)
from .words import record

MERSENNE61 = (1 << 61) - 1

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The chunk of `int_to_decimal`, computed once: computing it in every call
# took 33 us, against under 0.2 us for the str() of a small entry, and a
# witness envelope converts every matrix entry.
_DECIMAL_CHUNK = 10**3000


def int_to_decimal(x: int) -> str:
    """Decimal string for integers of any size.

    str() on huge ints trips the interpreter's conversion-digit limit;
    chunking through divmod by 10^3000 stays under it at every step.
    """
    if -_DECIMAL_CHUNK < x < _DECIMAL_CHUNK:
        return str(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    chunks = []
    while x:
        x, r = divmod(x, _DECIMAL_CHUNK)
        chunks.append(r)
    head = str(chunks[-1])
    rest = "".join(str(c).zfill(3000) for c in reversed(chunks[:-1]))
    return sign + head + rest


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@record
class ScalarRing:
    """Either F_p for a prime p < 2^62 or the ring of arbitrary integers."""

    kind: str  # "prime_field" | "big_integer"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "prime_field":
            if self.p is None or self.p >= (1 << 62) or not is_prime(self.p):
                raise InvalidModulus(f"modulus must be a prime < 2^62, got {self.p}")
        elif self.kind == "big_integer":
            if self.p is not None:
                raise InvalidInput("big_integer ring takes no modulus")
        else:
            raise InvalidInput(f"unknown ring kind {self.kind!r}")

    def canon(self, x: int) -> int:
        return x % self.p if self.kind == "prime_field" else int(x)

    def to_json(self) -> dict:
        if self.kind == "prime_field":
            return {"kind": "prime_field", "p": str(self.p)}
        return {"kind": "big_integer"}


def prime_field(p: int) -> ScalarRing:
    return ScalarRing("prime_field", p)


def big_integer() -> ScalarRing:
    return ScalarRing("big_integer")


@record
class Matrix:
    """Dense matrix with row-major entries over a ScalarRing."""

    n_rows: int
    n_cols: int
    entries: tuple[int, ...]
    ring: ScalarRing

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise InvalidShape(f"bad shape {self.n_rows}x{self.n_cols}")
        if len(self.entries) != self.n_rows * self.n_cols:
            raise InvalidShape(
                f"{self.n_rows}x{self.n_cols} matrix needs "
                f"{self.n_rows * self.n_cols} entries, got {len(self.entries)}"
            )
        # elimination takes an entry for a pivot when it is nonzero, so a
        # prime-field entry must be its canonical representative
        if self.ring.kind == "prime_field" and not (
            0 <= min(self.entries) and max(self.entries) < self.ring.p
        ):
            raise InvalidInput(
                f"entries over F_{self.ring.p} must lie in [0, {self.ring.p})"
            )

    @staticmethod
    def from_rows(rows: list[list[int]], ring: ScalarRing) -> "Matrix":
        n_rows = len(rows)
        n_cols = len(rows[0])
        if any(len(r) != n_cols for r in rows):
            raise InvalidShape("ragged rows")
        entries = tuple(ring.canon(x) for row in rows for x in row)
        return Matrix(n_rows, n_cols, entries, ring)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise InvalidInput("ring mismatch")
        if self.n_cols != other.n_rows:
            raise InvalidShape(
                f"cannot multiply {self.n_rows}x{self.n_cols} by "
                f"{other.n_rows}x{other.n_cols}"
            )
        n, mid, m = self.n_rows, self.n_cols, other.n_cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * mid : (i + 1) * mid]
            for j in range(m):
                dot = sum(arow[k] * b[k * m + j] for k in range(mid))
                out.append(self.ring.canon(dot))
        return Matrix(n, m, tuple(out), self.ring)

    def to_json(self) -> dict:
        if not self.is_square:
            raise InvalidShape("only square matrices serialize")
        return {
            "n": self.n_rows,
            "ring": self.ring.to_json(),
            "entries": [int_to_decimal(x) for x in self.entries],
        }


def evaluate_words(
    words: list[tuple[int, ...]], t: tuple[Matrix, ...]
) -> list[Matrix]:
    """Evaluate nonempty words at the integer tuple t, as one list of matrices.

    The blocks of `word_blocks`, the package's one evaluator, joined, for
    the integer discriminant of a witness, which needs every product at
    once.  t is refused as `_check_uniform` refuses it, and with
    InvalidInput over a prime field: there the blocks go straight into
    elimination.
    """
    n, ring = _check_uniform(t)
    if ring.kind != "big_integer":
        raise InvalidInput("evaluate_words takes integer tuples only")
    return [
        Matrix(n, n, entries, ring)
        for block in word_blocks(words, letter_stack(t))
        for entries in block
    ]


def word_blocks(words: list[tuple[int, ...]], st: RingStack):
    """Yield the evaluations of nonempty words, in order, _EXTEND_BLOCK at a time.

    Each block is a stack of `st` (the `letter_stack` of the tuple), so it
    goes straight into `echelon_extend`; a block is formed only when the
    consumer asks for it.  Every word splits at ceil(deg/2) into a head and
    a (possibly empty) tail.  The distinct halves are built once through
    their prefix trie (`_prefix_products`), and each block is one batched
    product head @ tail.  On the n x n grid the halves are exactly the v_i
    and the rev(v_j), so n^2 words cost about 2n small products plus the
    blocks.  Raises InvalidWord at the first block on a word that is empty
    or uses a letter outside the tuple.
    """
    g = len(st.letters)
    for w in words:
        if not w:
            raise InvalidWord("cannot evaluate the empty word")
        if any(not 1 <= letter <= g for letter in w):
            raise InvalidWord(f"word uses letters outside [1, {g}]: {w}")
    if not words:
        return
    cuts = [(len(w) + 1) // 2 for w in words]
    heads = [w[:c] for w, c in zip(words, cuts)]
    tails = [w[c:] for w, c in zip(words, cuts)]
    index, stack = _prefix_products(set(heads) | set(tails), st)
    head_rows = [index[h] for h in heads]
    tail_rows = [index[h] for h in tails]
    for lo in range(0, len(words), _EXTEND_BLOCK):
        hi = lo + _EXTEND_BLOCK
        yield st.mul(
            st.take(stack, head_rows[lo:hi]), st.take(stack, tail_rows[lo:hi])
        )


class RingStack(NamedTuple):
    """Stacks of n x n matrices over one ring: their storage and product.

    A stack holds its matrices as flat row-major rows, which is the form
    `echelon_extend` takes: an int64 array of shape (k, n^2) over a prime
    field, a list of k tuples of Python ints over the integers.
    """

    letters: Any  # the tuple's matrices, in order
    eye: Any  # the identity, as a stack of one
    mul: Callable  # mul(a, b): the products a[i] @ b[i], as a stack
    take: Callable  # take(a, idx): the stack of a[i] for i in idx
    join: Callable  # join(stacks): the stacks one after another, as one


def letter_stack(t: tuple[Matrix, ...]) -> RingStack:
    """The `RingStack` of t's ring, with the matrices of t as its letters.

    t is refused as `_check_uniform` refuses it.  Over a prime field the
    stacks are int64 arrays and every product is one batched `_matmul`
    call; this is the only branch that loads numpy.  The integers multiply
    exact Python ints (`_int_matmul`).
    """
    n, ring = _check_uniform(t)
    letters = [tuple(ring.canon(x) for x in m.entries) for m in t]
    eye = [tuple(1 if i == j else 0 for i in range(n) for j in range(n))]
    if ring.kind == "prime_field":
        import numpy as np

        def mul(a, b):
            prod = _matmul(a.reshape(-1, n, n), b.reshape(-1, n, n), ring.p)
            return prod.reshape(-1, n * n)

        return RingStack(
            np.array(letters, dtype=np.int64),
            np.array(eye, dtype=np.int64),
            mul,
            lambda a, idx: a[idx],
            np.concatenate,
        )
    return RingStack(
        letters,
        eye,
        _int_matmul(n),
        lambda a, idx: [a[i] for i in idx],
        lambda stacks: [row for s in stacks for row in s],
    )


def _int_matmul(n: int):
    """Row-wise product of lists of flat row-major n x n Python-int tuples.

    Entries are exact integer dot products of a row of the left factor and
    a column of the right one.
    """

    def mul(a, b):
        out = []
        for x, y in zip(a, b):
            rows = [x[i : i + n] for i in range(0, n * n, n)]
            cols = [y[j::n] for j in range(n)]
            out.append(tuple(sum(map(operator.mul, r, c)) for r in rows for c in cols))
        return out

    return mul


def _prefix_products(halves: set, st: RingStack):
    """Evaluate letter tuples (the empty one included) through their prefix trie.

    Returns (index, stack) with row index[h] of stack the product for each
    h in halves.  Trie level l (the distinct length-l prefixes) is one
    batched product of level l-1 rows by letter matrices; level 0 is the
    identity.  Only the live level and the rows of the halves are held.
    """
    index: dict = {}
    kept = []
    level, rows = [()], st.eye
    for depth in range(max(map(len, halves)) + 1):
        if depth:
            parent = {pre: i for i, pre in enumerate(level)}
            level = sorted({h[:depth] for h in halves if len(h) >= depth})
            rows = st.mul(
                st.take(rows, [parent[pre[:-1]] for pre in level]),
                st.take(st.letters, [pre[-1] - 1 for pre in level]),
            )
        done = [i for i, pre in enumerate(level) if pre in halves]
        if done:
            base = len(index)
            index.update((level[i], base + k) for k, i in enumerate(done))
            kept.append(st.take(rows, done))
    return index, st.join(kept)


def _check_uniform(ms: Sequence[Matrix]) -> tuple[int, ScalarRing]:
    """(n, ring) of a nonempty sequence of n x n matrices over one ring.

    The one check of a list of matrices: it raises ArityMismatch for an
    empty one, InvalidShape when the first matrix is not square, and
    InvalidInput for mixed sizes or mixed rings.
    """
    if not ms:
        raise ArityMismatch("need at least one matrix")
    first = ms[0]
    if not first.is_square:
        raise InvalidShape("matrices must be square")
    for m in ms[1:]:
        if m.n_rows != first.n_rows or m.n_cols != first.n_cols:
            raise InvalidInput("mixed matrix sizes")
        if m.ring != first.ring:
            raise InvalidInput("mixed rings")
    return first.n_rows, first.ring


def discriminant(ms: list[Matrix]) -> int:
    """Integer determinant of the n^2-by-n^2 matrix whose k-th column is
    ms[k].entries: the exact value that a witness certifies.

    The vectorizations go in as rows (the transpose has the same
    determinant).  The determinant is split along the block-triangular form
    of the nonzero pattern (`_det_block_triangular`), and fraction-free
    (Bareiss) elimination runs on each irreducible diagonal block; the
    sparse witness grids split into many small blocks.  Raises InvalidInput
    for matrices over a prime field: there the determinant of word blocks
    is `_det_echelon`'s.
    """
    n, ring = _check_uniform(ms)
    if ring.kind != "big_integer":
        raise InvalidInput("discriminant takes integer matrices only")
    nn = n * n
    if len(ms) != nn:
        raise ArityMismatch(f"discriminant needs exactly {nn} matrices, got {len(ms)}")
    return _det_block_triangular([m.entries for m in ms])


def _det_echelon(blocks, ring: ScalarRing) -> int:
    """Determinant over a prime field of the square matrix whose rows come in blocks.

    Each block (a nonempty stack of rows, such as `word_blocks` yields) goes
    through `echelon_extend`, and the first block with a rejected row means
    the determinant is 0: no later block is asked for.  Otherwise each row
    i, when accepted, has been reduced by adding multiples of earlier rows
    (which keeps the determinant) to a row with leading value lead_i in
    column c_i and zeros in every earlier pivot column.  Those reduced rows,
    with column c_i moved to place i, form an upper triangular matrix, so
    the determinant is sign(i -> c_i) times the product of the leads.
    """
    p = ring.p
    vectors, pivots, leads = [], [], []
    for block in blocks:
        vectors, pivots, accepted, new = echelon_extend(vectors, pivots, block, ring)
        if len(accepted) < len(block):
            return 0
        leads += new
    det = _perm_sign([c for c, _ in leads]) % p
    for _, lead in leads:
        det = det * lead % p
    return det


def _perm_sign(perm) -> int:
    """Sign (+1 or -1) of the permutation i -> perm[i] of range(len(perm))."""
    # a permutation of N points with k cycles has the parity of N - k
    seen = [False] * len(perm)
    odd = len(perm) % 2
    for start in range(len(perm)):
        if not seen[start]:
            odd ^= 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return -1 if odd else 1


# --- elimination kernels ----------------------------------------------------


def echelon_extend(vectors, pivots, rows, ring: ScalarRing):
    """Insert the rows (a nonempty 2-D sequence) in order into an RREF basis.

    The basis has unit pivots and is kept compact: `vectors` holds its rows
    on the free columns only (the increasing complement of `pivots`, each
    row's pivot column); it may start as `[]`, and `_echelon_rows` rebuilds
    the full rows.  Returns (vectors, pivots, accepted, leads): the grown
    basis (an int64 array and an index array), the indices, in order, of
    the rows not in the span of the basis and the rows before them, and
    for each accepted row its (pivot column, lead), the lead being the
    row's leading value once reduced, before it is scaled to a unit pivot
    (`_det_echelon` takes a determinant from them).  Entries are canonical,
    in [0, p).  Over the integers it raises InvalidInput: elimination runs
    over prime fields only.

    Per block of k <= _EXTEND_BLOCK rows: one kernel product reduces the
    block, block[:, free] - block[:, pivots] @ vectors; Gauss-Jordan
    elimination inside it (`_gauss_jordan`) accepts rows in order; one more
    product, on the columns that stay free, clears the new pivot columns
    from the old rows, and the new rows go below them.  RREF is unique, so
    rows, pivots and leads equal those of inserting the rows one at a time.
    """
    if ring.kind != "prime_field":
        raise InvalidInput("elimination runs over prime fields only")
    import numpy as np

    p = ring.p
    rows = np.asarray(rows, dtype=np.int64)
    piv = np.asarray(pivots, dtype=np.intp)
    free = np.flatnonzero(np.isin(np.arange(rows.shape[1]), piv, invert=True))
    basis = np.asarray(vectors, dtype=np.int64).reshape(len(piv), len(free))
    accepted: list[int] = []
    leads: list[tuple[int, int]] = []
    for lo in range(0, len(rows), _EXTEND_BLOCK):
        if free.size == 0:
            break  # the span is full
        block = rows[lo : lo + _EXTEND_BLOCK]
        w = block[:, free]
        if piv.size:
            w = _sub_mod(w, _matmul(block[:, piv], basis, p), p)
        new, cols, block_leads, fresh = _gauss_jordan(w, p)
        if not new:
            continue
        keep = np.delete(np.arange(free.size), cols)
        old, fresh = basis[:, keep], fresh[:, keep]
        if old.size:  # with no old row or no column left free, nothing to clear
            old = _sub_mod(old, _matmul(basis[:, cols], fresh, p), p)
        basis = np.concatenate([old, fresh])
        accepted += [lo + i for i in new]
        leads += [(int(c), lead) for c, lead in zip(free[cols], block_leads)]
        piv, free = np.concatenate([piv, free[cols]]), free[keep]
    return basis, piv, accepted, leads


def _gauss_jordan(w, p: int):
    """First-nonzero Gauss-Jordan elimination of the rows of w (k x width).

    It runs on a = [window | T]: the window is the leftmost W columns,
    W = min(k, width), and T, which starts as the k x k identity, records
    the row operations, so the window always equals T @ w[:, :W].  Each row
    in turn takes its first nonzero in the window as its pivot.  A row with
    none doubles the window (up to the full width), with the exact new
    columns T @ w[:, W:W'], until it finds one; a row with none over the
    full width is skipped.  The lead is scaled to 1 and its column cleared
    from every other row by one update a[r] -= f_r * a[i], f_r = a[r, c] /
    lead and f_i = 1 - 1/lead.  The pivot row is zero left of its pivot c,
    and past column W + i of a too (only the rows before it have been added
    to it), so the update touches only the columns in between.  Returns
    (rows accepted, their pivot columns, their leads, their reduced rows),
    whose columns past the window are one product T @ w[:, W:].
    """
    import numpy as np

    k, width = w.shape
    W = min(k, width)
    a = np.concatenate([w[:, :W], np.eye(k, dtype=np.int64)], axis=1)
    new: list[int] = []
    cols: list[int] = []
    leads: list[int] = []
    for i in range(k):
        nz = np.flatnonzero(a[i, :W])
        while nz.size == 0 and W < width:
            wider = min(width, 2 * W)
            grown = _matmul(a[:, W:], w[:, W:wider], p)
            a = np.concatenate([a[:, :W], grown, a[:, W:]], axis=1)
            nz = np.flatnonzero(grown[i]) + W
            W = wider
        if nz.size == 0:
            continue
        c = int(nz[0])
        lead = int(a[i, c])
        inv = pow(lead, -1, p)
        f = [x * inv % p for x in a[:, c].tolist()]
        f[i] = (1 - inv) % p
        hit = [r for r, x in enumerate(f) if x]
        hi = W + i + 1
        mult = np.array([f[r] for r in hit], dtype=np.int64)[:, None]
        a[hit, c:hi] = _sub_mod(a[hit, c:hi], _mulmod(a[i, c:hi], mult, p), p)
        new.append(i)
        cols.append(c)
        leads.append(lead)
    fresh = a[new, :W]
    if W < width:
        rest = _matmul(a[new, W:], w[:, W:], p)
        fresh = np.concatenate([fresh, rest], axis=1)
    return new, cols, leads, fresh


# Rows per block of `echelon_extend`.  A block is one reduction product
# against the basis, so it bounds the transient memory of the reduction;
# `genericity.subspace_length` forms its products in blocks of this size
# too.  Unblocked, a process running one n = 14 chain peaked at 32.8 MB
# max RSS, against 30.6 MB in blocks of 32 (2-core x86-64, numpy 2.4).
_EXTEND_BLOCK = 32

_LOW32 = (1 << 32) - 1


def _shoup(x, w, p: int):
    """x * w mod p plus 0 or p, a value in [0, 2p), for a uint64 array x.

    w is an int or an int64 array of multipliers in [0, p) that broadcasts
    against x.  With w' = floor(w * 2^64 / p), precomputed from the few
    multipliers, and q the high word of x * w' (on 32-bit halves, so no
    partial sum reaches 2^64), x*w - q*p lies in [0, 2p) (Shoup; Harvey,
    J. Symb. Comput. 60, 2014), so it is exact taken mod 2^64.
    """
    import numpy as np

    w = np.asarray(w)
    wq = np.array([(int(v) << 64) // p for v in w.flat], dtype=np.uint64)
    wq = wq.reshape(w.shape)
    y0, y1 = wq & _LOW32, wq >> 32
    x0, x1 = x & _LOW32, x >> 32
    t = x1 * y0 + ((x0 * y0) >> 32)
    u = x0 * y1 + (t & _LOW32)
    q = x1 * y1 + (t >> 32) + (u >> 32)
    return x * w.astype(np.uint64) - q * np.uint64(p)


def _mulmod(x, w, p: int):
    """x * w mod p for an int64 array x in [0, p), w as in `_shoup`."""
    import numpy as np

    r = _shoup(x.view(np.uint64), w, p)
    return np.where(r >= p, r - p, r).view(np.int64)


def _sub_mod(a, b, p: int):
    """a - b mod p for int64 arrays with entries in [0, p), written into a.

    a is overwritten and returned, so that d + p is the one full-size
    temporary: every caller passes a fresh copy (a fancy-indexed block or
    basis), never a view of an array that it or its own caller still reads.
    On the uint64 views, d = a - b wraps past p exactly when a < b, and
    then d + p wraps back into [0, p), so min(d, d + p) is a - b mod p.
    """
    import numpy as np

    d = a.view(np.uint64)
    np.subtract(d, b.view(np.uint64), out=d)
    np.minimum(d, d + p, out=d)
    return a


# Limb products are below 2^42, and one limb-diagonal sum adds at most three
# of them per inner index, so over an inner dimension k its entries stay
# below 3 * k * 2^42.  float64 holds every integer below 2^53 exactly, and
# every partial sum is a nonnegative integer no larger than the total, so a
# chunk of k <= 512 (3 * 2^9 * 2^42 < 2^53) is exact in any summation order
# BLAS picks.  512 is the largest power of two under the bound 2^53 / (3 *
# 2^42) ~ 682.
_CHUNK = 512
# Matrix pairs per batched kernel call, and rows of a 2-D product per
# kernel call; see `_matmul`.  One call makes about a dozen temporaries the
# size of its slice of the product.  Before the rows were sliced, the basis
# update of a determinant at n = 40, an (800 x 32) @ (32 x 800) product,
# made a 45.7 MB transient for a 4.9 MB result (tracemalloc).
_BATCH = 256
_ROWS = 64
_LIMB_MASK = (1 << 21) - 1


def _limbs(x):
    """int64 entries in [0, 2^62) as three float64 limbs of 21 bits."""
    import numpy as np

    return [
        (x & _LIMB_MASK).astype(np.float64),
        ((x >> 21) & _LIMB_MASK).astype(np.float64),
        (x >> 42).astype(np.float64),
    ]


def _np_fold(v):
    # v < 2^63 elementwise; result < 2^61 + 4 and congruent mod 2^61 - 1.
    return (v & MERSENNE61) + (v >> 61)


def _rot61(x, e):
    """x * 2^e mod 2^61-1 for 0 <= x < 2^61, as a 61-bit rotation (< 2^61)."""
    return ((x & ((1 << (61 - e)) - 1)) << e) + (x >> (61 - e))


def _matmul(a, b, p: int):
    """Exact a @ b mod p for (stacked) int64 arrays with entries in [0, p).

    Entries split into three 21-bit limbs; limb-diagonal s of the product,
    sum over i + j = s of limb_i(a) @ limb_j(b), is a sum of float64
    matmuls, exact per the chunk bound above, and carries weight 2^(21 s)
    (`_recombine`).  A stack of more than _BATCH matrix pairs is multiplied
    _BATCH pairs at a time, and a 2-D product of more than _ROWS rows _ROWS
    rows of a at a time, which bounds the temporaries (limbs, diagonal
    sums) to that many matrices or rows.  The inner dimension must be at
    least 1.
    """
    import numpy as np

    step = _BATCH if a.ndim == 3 else _ROWS
    if len(a) > step:
        out = np.empty(a.shape[:-1] + b.shape[-1:], dtype=np.int64)
        for lo in range(0, len(a), step):
            hi = lo + step
            out[lo:hi] = _matmul(a[lo:hi], b[lo:hi] if b.ndim == 3 else b, p)
        return out
    chunks = (
        _limb_diagonals(a[..., c : c + _CHUNK], b[..., c : c + _CHUNK, :])
        for c in range(0, a.shape[-1], _CHUNK)
    )
    return _recombine(chunks, p)


def _limb_diagonals(a, b):
    """The five limb-diagonal sums of a @ b, as exact int64 arrays.

    Each sums its limb products one matmul at a time, so no limb is copied
    into a concatenation: besides the product, only the limbs of a and b
    are held.
    """
    import numpy as np

    la, lb = _limbs(a), _limbs(b)
    diag = []
    for s in range(5):
        d = None
        for i in range(max(0, s - 2), min(s, 2) + 1):
            term = np.matmul(la[i], lb[s - i])
            d = term if d is None else np.add(d, term, out=d)
        diag.append(d.astype(np.int64))
    return diag


def _recombine(chunks, p: int):
    """Sum over the chunks of sum_s D_s * 2^(21 s) mod p, in [0, p).

    Each chunk is the five limb-diagonal sums D_s of `_limb_diagonals`,
    entries below 2^53.  Modulo 2^61 - 1, 2^(21 s) == 2^(21 s mod 61), so
    the weights are 61-bit rotations by 0, 21, 42, 2 and 23 bits; D_3 <
    2^53 needs no rotation, only a shift by 2.  The five terms then sum
    below 2^53 + 2^55 + 3 * 2^61 < 2^63 and fold once per chunk.  Modulo
    every other p, Horner's rule in 2^21 with one `_shoup` product a step.
    """
    import numpy as np

    acc = None
    if p == MERSENNE61:
        for d in chunks:
            part = _np_fold(
                d[0]
                + (d[3] << 2)
                + _rot61(d[1], 21)
                + _rot61(d[2], 42)
                + _rot61(d[4], 23)
            )
            acc = part if acc is None else _np_fold(acc + part)
        # a fold of a value below 2^63 is at most 2^61 + 2 < 2 (2^61 - 1)
        return np.where(acc >= MERSENNE61, acc - MERSENNE61, acc)
    shift = pow(2, 21, p)
    for d in chunks:
        # Horner in 2^21: each step is below 2p + 2^53, and a sum of two
        # chunks below 4p, both under 2^64
        part = d[4].view(np.uint64)
        for x in d[3::-1]:
            part = _shoup(part, shift, p) + x.view(np.uint64)
        part = _shoup(part, 1, p)
        acc = part if acc is None else _shoup(acc + part, 1, p)
    return np.where(acc >= p, acc - p, acc).view(np.int64)


def _det_block_triangular(rows) -> int:
    """Integer determinant as a signed product of irreducible block determinants.

    A perfect row -> column matching sigma on the nonzero pattern
    (`_perfect_matching`) puts a nonzero entry on every diagonal place of
    B[i][k] = rows[i][sigma[k]], and det = sign(sigma) det B; with no such
    matching every term of the Leibniz sum vanishes and det = 0.  The
    strongly connected components of the graph i -> k (B[i][k] != 0) are
    the diagonal blocks of B's block-triangular form (Duff 1977), so det B
    is the product of their determinants, each by `_det_bareiss` (which
    returns the entry of a 1x1 block).
    """
    pattern = [[j for j, x in enumerate(row) if x] for row in rows]
    sigma = _perfect_matching(pattern)
    if sigma is None:
        return 0
    place = [0] * len(sigma)  # column j of rows is column place[j] of B
    for k, j in enumerate(sigma):
        place[j] = k
    det = _perm_sign(sigma)
    for block in _strong_components([[place[j] for j in cols] for cols in pattern]):
        det *= _det_bareiss([[rows[i][sigma[k]] for k in block] for i in block])
        if not det:
            return 0
    return det


def _perfect_matching(pattern) -> list[int] | None:
    """Perfect row -> column matching of a square pattern, or None.

    pattern[i] lists the columns that row i may take.  Each row in turn
    runs a depth-first search for an augmenting path (Kuhn's algorithm),
    with an explicit stack so that no size reaches the recursion limit.
    """
    n = len(pattern)
    owner = [-1] * n  # column -> matched row
    for root in range(n):
        seen = [False] * n
        path_rows, path_cols, scans = [root], [], [iter(pattern[root])]
        while scans:
            c = next((c for c in scans[-1] if not seen[c]), None)
            if c is None:  # dead end: back up to the row before
                path_rows.pop()
                scans.pop()
                if path_cols:
                    path_cols.pop()
                continue
            seen[c] = True
            path_cols.append(c)
            if owner[c] < 0:  # free column: flip the path
                for r, col in zip(path_rows, path_cols):
                    owner[col] = r
                break
            path_rows.append(owner[c])
            scans.append(iter(pattern[owner[c]]))
        else:
            return None
    sigma = [0] * n
    for c, r in enumerate(owner):
        sigma[r] = c
    return sigma


def _strong_components(succ) -> list[list[int]]:
    """Strongly connected components of the digraph v -> succ[v] (Tarjan 1972).

    Iterative: each frame of the explicit stack holds a vertex and its
    unfinished successor scan.
    """
    index = [-1] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: list[int] = []
    components = []
    counter = 0
    for root in range(len(succ)):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        frames = [(root, iter(succ[root]))]
        while frames:
            v, scan = frames[-1]
            for w in scan:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    frames.append((w, iter(succ[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components


def _det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free determinant; every division is exact by construction.

    `_det_block_triangular` calls it on each irreducible diagonal block.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk = m[k][k]
        rk = m[k]
        for i in range(k + 1, n):
            ri = m[i]
            fik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - fik * rk[j]) // prev
        prev = pk
    return sign * m[n - 1][n - 1]


# --- incremental span maintenance -------------------------------------------


@record
class SubspaceBasis:
    """Span of n-by-n matrices kept as echelonized vectorizations.

    `matrices` lists the independent representatives in insertion order;
    `vectors` and `pivots` are the full echelon rows (`_echelon_rows`), as
    tuples, in RREF with unit pivots and sorted by pivot column.
    """

    n: int
    ring: ScalarRing
    matrices: tuple[Matrix, ...]
    vectors: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]


def span_insert(b: SubspaceBasis, m: Matrix) -> tuple[SubspaceBasis, bool]:
    """Insert a matrix into the span; returns (new basis, inserted flag)."""
    if m.n_rows != b.n or m.n_cols != b.n:
        raise InvalidInput(f"expected {b.n}x{b.n} matrix")
    if m.ring != b.ring:
        raise InvalidInput("ring mismatch")
    free = sorted(set(range(b.n * b.n)) - set(b.pivots))
    vectors, pivots, accepted, _ = echelon_extend(
        [[row[c] for c in free] for row in b.vectors], b.pivots, [m.entries], b.ring
    )
    if not accepted:
        return b, False
    vectors, pivots = _echelon_rows(vectors, pivots, b.n * b.n)
    return SubspaceBasis(b.n, b.ring, b.matrices + (m,), vectors, pivots), True


def _echelon_rows(vectors, pivots, n_cols: int):
    """The full RREF rows and pivots of an `echelon_extend` basis, as tuples."""
    import numpy as np

    order = np.argsort(pivots)
    full = np.zeros((len(order), n_cols), dtype=np.int64)
    full[:, np.isin(np.arange(n_cols), pivots, invert=True)] = vectors
    full[np.arange(len(order)), pivots] = 1
    return tuple(map(tuple, full[order].tolist())), tuple(pivots[order].tolist())
