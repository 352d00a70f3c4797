"""Shared oracles: small independent implementations used to pin expected
values, kept deliberately separate from the library's code paths."""

from __future__ import annotations

from fractions import Fraction

import pytest

from sweepwords import exactalg


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


def mat(rows: list[list[int]], ring: exactalg.ScalarRing) -> exactalg.Matrix:
    return exactalg.Matrix.from_rows(rows, ring)


def mat_add(a: exactalg.Matrix, b: exactalg.Matrix) -> exactalg.Matrix:
    """Entrywise sum of two matrices of one shape over one ring."""
    assert (a.n_rows, a.n_cols, a.ring) == (b.n_rows, b.n_cols, b.ring)
    entries = tuple(a.ring.canon(x + y) for x, y in zip(a.entries, b.entries))
    return exactalg.Matrix(a.n_rows, a.n_cols, entries, a.ring)


def mat_scale(m: exactalg.Matrix, c: int) -> exactalg.Matrix:
    """The matrix c * m."""
    entries = tuple(m.ring.canon(c * x) for x in m.entries)
    return exactalg.Matrix(m.n_rows, m.n_cols, entries, m.ring)


def mat_transpose(m: exactalg.Matrix) -> exactalg.Matrix:
    return mat([list(col) for col in zip(*m.rows())], m.ring)


@pytest.fixture(scope="session")
def fp_default() -> exactalg.ScalarRing:
    return exactalg.prime_field((1 << 61) - 1)


@pytest.fixture(scope="session")
def fp101() -> exactalg.ScalarRing:
    return exactalg.prime_field(101)


@pytest.fixture(scope="session")
def zz() -> exactalg.ScalarRing:
    return exactalg.big_integer()
