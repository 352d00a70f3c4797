"""Deterministic integer tuples whose grid discriminant is provably nonzero.

The construction supports the matrices exactly on the variables of the
certificate monomial and fills each supported entry with a distinct power
of one base B.  Correctness is certified a posteriori: the discriminant of
the evaluated grid words is computed exactly over the integers, and a zero
result triggers base escalation (B <- B^2, bounded retries).  Everything is
deterministic, so runs are reproducible byte for byte.

The zero pattern of that discriminant matrix depends only on the support,
never on B, and it is far from irreducible: at g = 2 its block-triangular
form has eight 8 x 8 diagonal blocks at n = 8 and blocks of at most
32 x 32 up to n = 16.  `discriminant` computes it as the signed product of
those block determinants, which keeps one witness under half a minute up
to WITNESS_MAX_N.
"""

from __future__ import annotations

import math

from .errors import InvalidInput, TooLarge
from .exactalg import (
    Matrix,
    MatrixTuple,
    big_integer,
    discriminant,
    evaluate_words,
    int_to_decimal,
)
from .words import (
    VarId,
    WordGrid,
    build_word_grid,
    certificate_monomial,
    check_alphabet_size,
    degree_exponent,
    least_alphabet,
    record,
)


# Largest n that `build_and_verify` accepts.  Past n = 8 nearly all of a
# job is `_det_bareiss` on the discriminant's diagonal blocks (eight, of at
# most 32 x 32, at g = 2 and 10 <= n <= 16).  One g = 2 CLI job (2 cores,
# no numpy loaded) takes 0.18 s at n = 8, 2.7 s at n = 9, 3.1 s at n = 12
# and 27 s at n = 16, and it ran past 150 s at n = 17, where the grid
# degree grows from 8 to 10.  g = 3 stays near 1 s up to n = 16.
WITNESS_MAX_N = 16
# Most bits that a `--base` override may have (base < 2^16).  The entries
# are powers of the base, so the discriminant's size, and with it the time
# of every block determinant, grows with the base's bit length.  One g = 2
# CLI job (2 cores, no numpy loaded), default base -> base 65535: n = 16
# 27 s -> 54 s, n = 12 3.6 s -> 8.2 s, n = 8 0.19 s -> 0.22 s; n = 8 took
# 4.0 s at the 333-bit base 10^100 + 7.
WITNESS_MAX_BASE_BITS = 16
# Times `build_and_verify` squares the base after a zero discriminant.
MAX_ESCALATIONS = 3


def check_witness_size(n: int, base: int | None = None) -> None:
    """Raise TooLarge when n exceeds WITNESS_MAX_N or a chosen base has
    more than WITNESS_MAX_BASE_BITS bits."""
    if n > WITNESS_MAX_N:
        raise TooLarge(f"witnesses are capped at n = {WITNESS_MAX_N}; got n = {n}")
    if base is not None and base.bit_length() > WITNESS_MAX_BASE_BITS:
        raise TooLarge(
            f"witness bases are capped at {WITNESS_MAX_BASE_BITS} bits "
            f"(base < 2^{WITNESS_MAX_BASE_BITS}); got {base.bit_length()} bits"
        )


def _m_constant(n: int, d: int) -> int:
    """The reported comparison constant M = n! * (n^(2d-1))^n."""
    return math.factorial(n) * (n ** (2 * d - 1)) ** n


@record
class WitnessSpec:
    """Base, exponent assignment, and reported constants of one witness."""

    n: int
    g: int
    d: int
    base: int
    support: dict[VarId, int]  # variable -> exponent of the base
    m_constant: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "g": self.g,
            "d": self.d,
            "base": str(self.base),
            "support": [
                {"k": k, "i": i, "j": j, "exponent": e}
                for (k, i, j), e in sorted(self.support.items())
            ],
            "m_constant": str(self.m_constant),
        }


def build_witness(
    n: int, g: int, base_override: int | None = None
) -> tuple[WitnessSpec, MatrixTuple]:
    """Distinct-power integer tuple supported on the certificate variables.

    Exponents 0, 1, 2, .. follow the fixed order (letter, level, position);
    the base is 2d * n^2 + 1 unless overridden.  Off-support entries are
    zero.
    """
    if n < 2 or g < 2:
        raise InvalidInput(f"need n >= 2 and g >= 2, got n={n}, g={g}")
    d = degree_exponent(n, g)

    def order(var: VarId) -> tuple[int, int, int, int]:
        # the chain step at level s, counted from the innermost, has width
        # g^(s-1): a loop (1, i, i) first occurs once i <= g^(s-1), and a
        # letter k >= 2 moves |i - j| = (k-1) * g^(s-1)
        k, i, j = var
        level = 1 + degree_exponent(i if k == 1 else abs(i - j) // (k - 1), g)
        return k, level, i, j

    variables = sorted(certificate_monomial(n, g), key=order)
    support = {var: e for e, var in enumerate(variables)}
    if base_override is not None:
        if base_override < 2:
            raise InvalidInput(f"base must be >= 2, got {base_override}")
        base = base_override
    else:
        base = 2 * d * n * n + 1
    ring = big_integer()
    rows = [[[0] * n for _ in range(n)] for _ in range(g)]
    for (k, i, j), e in support.items():
        rows[k - 1][i - 1][j - 1] = base**e
    t = MatrixTuple(tuple(Matrix.from_rows(r, ring) for r in rows))
    spec = WitnessSpec(
        n=n,
        g=g,
        d=d,
        base=base,
        support=support,
        m_constant=_m_constant(n, d),
    )
    return spec, t


def verify_witness(t: MatrixTuple, grid: WordGrid) -> int:
    """Exact integer discriminant of the evaluated grid words.

    Nonzero certifies the witness outright; zero means the base collided
    and the caller should escalate.
    """
    if t.ring.kind != "big_integer":
        raise InvalidInput("witness verification runs over the integers")
    if t.n != grid.n or t.g < grid.g:
        raise InvalidInput("tuple and grid sizes do not match")
    return discriminant(evaluate_words(grid.flatten(), t))


@record
class WitnessReport:
    spec: WitnessSpec
    discriminant: int
    escalations: int

    @property
    def certified(self) -> bool:
        return self.discriminant != 0

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "discriminant": int_to_decimal(self.discriminant),
            "escalations": self.escalations,
            "certified": self.certified,
        }


def build_and_verify(
    n: int,
    g: int,
    base_override: int | None = None,
) -> tuple[WitnessReport, MatrixTuple]:
    """Build a witness and verify it, squaring the base on a zero result.

    The base is squared at most MAX_ESCALATIONS times.  Raises TooLarge,
    before building anything, past the caps of `check_witness_size` or
    when g exceeds the alphabet cap (words.MAX_G).
    """
    check_witness_size(n, base_override)
    check_alphabet_size(g)
    grid = build_word_grid(n, g)
    spec, t = build_witness(n, g, base_override)
    escalations = 0
    value = verify_witness(t, grid)
    while value == 0 and escalations < MAX_ESCALATIONS:
        escalations += 1
        spec, t = build_witness(n, g, spec.base**2)
        value = verify_witness(t, grid)
    report = WitnessReport(spec=spec, discriminant=value, escalations=escalations)
    return report, t


def reported_constants(n: int, g: int) -> dict:
    """The comparison constants M and c_s as their printed formulas read.

    These are surfaced for reporting only; the witness itself never uses
    them (the distinct-power scheme plus exact verification replaces the
    original exponent tables).
    """
    d = degree_exponent(n, g)
    gbar = least_alphabet(n, d)
    c_values = []
    for s in range(1, d + 1):
        if s == 1:
            c_values.append(3)
        else:
            c_values.append(2 * gbar ** (s - 1) * (gbar - 1) + gbar ** (s - 2))
    return {
        "m_constant": str(_m_constant(n, d)),
        "gbar": gbar,
        "c_values": c_values,
        "c_sum": sum(c_values),
        "as_printed": True,
    }
