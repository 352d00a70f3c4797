"""Shared oracles: small independent implementations used to pin expected
values, kept deliberately separate from the library's code paths, and the
constructors and readouts that only tests need."""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from fractions import Fraction

import pytest

from sweepwords import exactalg
from sweepwords.errors import InvalidShape, TooLarge
from sweepwords.words import VarId, WordGrid


def det_cofactor(rows: list[list[int]]) -> int:
    """Cofactor-expansion determinant over the integers (exact, tiny sizes)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def rank_fractions(rows: list[list[int]]) -> int:
    """Row rank via reduced echelon form over exact rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def pure_det(rows: list[list[int]], p: int) -> int:
    """Determinant mod p by plain Gaussian elimination (first nonzero pivot)."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] % p), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k] % p
        inv = pow(m[k][k], -1, p)
        for i in range(k + 1, n):
            f = m[i][k] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[k])]
    return det % p


def echelon_insert(
    vectors: list[tuple[int, ...]], pivots: list[int], vec, p: int
) -> tuple[int | None, int | None]:
    """Reduce vec against echelon rows over F_p and insert it, in place.

    `vectors` (tuples) and `pivots` are parallel lists sorted by pivot
    column, one pivot per row, fully reduced with unit pivots.  Returns
    (lead, pos): the leading entry of the reduced vector before scaling and
    the index of its new row, or (None, None) when vec already lies in the
    span.  Folded over rows, it is the row-at-a-time oracle of
    `exactalg.echelon_extend`.
    """
    v = list(vec)
    for row, c in zip(vectors, pivots):
        f = v[c] % p
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    pivot = next((c for c, x in enumerate(v) if x), None)
    if pivot is None:
        return None, None
    lead = v[pivot]
    inv = pow(lead, -1, p)
    v = [x * inv % p for x in v]
    # keep reduced form: clear the new pivot column in existing rows
    for i, row in enumerate(vectors):
        f = row[pivot]
        if f:
            vectors[i] = tuple((x - f * y) % p for x, y in zip(row, v))
    pos = bisect.bisect(pivots, pivot)
    pivots.insert(pos, pivot)
    vectors.insert(pos, tuple(v))
    return lead, pos


def extend_rank(ms: list[exactalg.Matrix]) -> int:
    """Rank of the matrices' vectorizations: the rows `echelon_extend` accepts."""
    rows = [m.entries for m in ms]
    return len(exactalg.echelon_extend([], [], rows, ms[0].ring)[2])


def mat(rows: list[list[int]], ring: exactalg.ScalarRing) -> exactalg.Matrix:
    return exactalg.Matrix.from_rows(rows, ring)


def zeros(n: int, ring: exactalg.ScalarRing) -> exactalg.Matrix:
    return exactalg.Matrix(n, n, (0,) * (n * n), ring)


def empty_basis(n: int, ring: exactalg.ScalarRing) -> exactalg.SubspaceBasis:
    return exactalg.SubspaceBasis(n, ring, (), (), ())


def mat_add(a: exactalg.Matrix, b: exactalg.Matrix) -> exactalg.Matrix:
    """Entrywise sum of two matrices of one shape over one ring."""
    assert (a.n_rows, a.n_cols, a.ring) == (b.n_rows, b.n_cols, b.ring)
    entries = tuple(a.ring.canon(x + y) for x, y in zip(a.entries, b.entries))
    return exactalg.Matrix(a.n_rows, a.n_cols, entries, a.ring)


def mat_scale(m: exactalg.Matrix, c: int) -> exactalg.Matrix:
    """The matrix c * m."""
    entries = tuple(m.ring.canon(c * x) for x in m.entries)
    return exactalg.Matrix(m.n_rows, m.n_cols, entries, m.ring)


def rows(m: exactalg.Matrix) -> list[list[int]]:
    """The matrix as a list of rows."""
    nc = m.n_cols
    return [list(m.entries[r * nc : (r + 1) * nc]) for r in range(m.n_rows)]


def mat_transpose(m: exactalg.Matrix) -> exactalg.Matrix:
    return mat([list(col) for col in zip(*rows(m))], m.ring)


def identity(n: int, ring: exactalg.ScalarRing) -> exactalg.Matrix:
    return mat([[int(i == j) for j in range(n)] for i in range(n)], ring)


def unit(n: int, i: int, j: int, ring: exactalg.ScalarRing) -> exactalg.Matrix:
    """Elementary matrix e_{ij}, 1-based indices."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise InvalidShape(f"unit position ({i}, {j}) outside [1, {n}]^2")
    entries = [[0] * n for _ in range(n)]
    entries[i - 1][j - 1] = 1
    return mat(entries, ring)


def evaluate_blocks(
    words: list[tuple[int, ...]], t: tuple[exactalg.Matrix, ...]
) -> list[exactalg.Matrix]:
    """The library evaluator over any ring: the rows of `exactalg.word_blocks`
    as matrices, in order.  `exactalg.evaluate_words` joins the same blocks
    for integer tuples only."""
    n, ring = t[0].n_rows, t[0].ring
    return [
        exactalg.Matrix(n, n, tuple(map(int, row)), ring)
        for block in exactalg.word_blocks(words, exactalg.letter_stack(t))
        for row in block
    ]


def evaluate_word(
    w: tuple[int, ...], t: tuple[exactalg.Matrix, ...]
) -> exactalg.Matrix:
    """The library evaluator on one word: its letters' matrices multiplied in order."""
    return evaluate_blocks([w], t)[0]


def prime_discriminant(ms: list[exactalg.Matrix]) -> int:
    """Determinant over a prime field of the matrix whose k-th row is
    ms[k].entries: `exactalg._det_echelon` on row blocks of _EXTEND_BLOCK,
    as certification feeds it word blocks.  `discriminant` is the integer
    determinant only."""
    rows = [m.entries for m in ms]
    step = exactalg._EXTEND_BLOCK
    blocks = (rows[lo : lo + step] for lo in range(0, len(rows), step))
    return exactalg._det_echelon(blocks, ms[0].ring)


def word_of_walk(walk: tuple[tuple[int, int, int], ...]) -> tuple[int, ...]:
    """The word read off the labels of the walk's (source, target, label)
    edges, in traversal order."""
    return tuple(label for _, _, label in walk)


# --- symbolic expansion over generic matrices (hard-capped at n = 2) -------

Monomial = tuple[tuple[VarId, int], ...]  # sorted ((k,i,j), exponent) pairs


def _entry_polynomial(
    word: tuple[int, ...], n: int, i: int, j: int
) -> dict[Monomial, int]:
    """Entry (i, j) of `word` evaluated at generic matrices, matrix 1 diagonal.

    Expands the sum over index paths i -> .. -> j; a step with letter 1 must
    stay in place (diagonal matrix), other letters may move anywhere.
    """
    states: list[tuple[int, Counter]] = [(i, Counter())]
    for letter in word:
        nxt: list[tuple[int, Counter]] = []
        for pos, vars_used in states:
            if letter == 1:
                c = vars_used.copy()
                c[(1, pos, pos)] += 1
                nxt.append((pos, c))
            else:
                for target in range(1, n + 1):
                    c = vars_used.copy()
                    c[(letter, pos, target)] += 1
                    nxt.append((target, c))
        states = nxt
    poly: dict[Monomial, int] = {}
    for pos, vars_used in states:
        if pos != j:
            continue
        mono = tuple(sorted(vars_used.items()))
        poly[mono] = poly.get(mono, 0) + 1
    return poly


def _coefficient_in_product(
    factors: list[dict[Monomial, int]], target: Counter
) -> int:
    """Coefficient of `target` in the product of the factor polynomials."""

    def rec(idx: int, remaining: Counter) -> int:
        if idx == len(factors):
            return 1 if not +remaining else 0
        total = 0
        for mono, c in factors[idx].items():
            if all(remaining[v] >= e for v, e in mono):
                nxt = remaining.copy()
                for v, e in mono:
                    nxt[v] -= e
                    if nxt[v] == 0:
                        del nxt[v]
                total += c * rec(idx + 1, nxt)
        return total

    return rec(0, target)


def monomial_coefficient_bruteforce(
    grid: WordGrid, exponents: dict[VarId, int]
) -> tuple[int, int]:
    """Search all (n^2)! column permutations of the grid's discriminant
    expansion for the monomial with these exponents.

    Returns (coefficient of the monomial in the identity-permutation
    product, number of non-identity permutations whose product contains
    it).  Hard-capped at n = 2, where the sum has 24 terms.
    """
    n = grid.n
    if n > 2:
        raise TooLarge(f"permutation expansion has ({n * n})! terms; capped at n=2")
    flat = grid.flatten()
    nn = n * n
    # entry_polys[k][(i, j)]: entry (i, j) of word k evaluated symbolically
    entry_polys = [
        {
            (i, j): _entry_polynomial(flat[k], n, i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        }
        for k in range(nn)
    ]
    positions = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    target = Counter(exponents)
    coeff_identity = 0
    other_hits = 0
    for sigma in itertools.permutations(range(nn)):
        factors = [
            entry_polys[sigma[idx]][pos] for idx, pos in enumerate(positions)
        ]
        coeff = _coefficient_in_product(factors, target)
        if sigma == tuple(range(nn)):
            coeff_identity = coeff
        elif coeff != 0:
            other_hits += 1
    return coeff_identity, other_hits


@pytest.fixture(scope="session")
def fp_default() -> exactalg.ScalarRing:
    return exactalg.prime_field((1 << 61) - 1)


@pytest.fixture(scope="session")
def fp101() -> exactalg.ScalarRing:
    return exactalg.prime_field(101)


@pytest.fixture(scope="session")
def zz() -> exactalg.ScalarRing:
    return exactalg.big_integer()
