import json

import pytest

from conftest import evaluate_blocks, identity, prime_discriminant, rows, zeros
from sweepwords import witness
from sweepwords.errors import InvalidInput, TooLarge
from sweepwords.exactalg import Matrix, MatrixTuple, big_integer, prime_field
from sweepwords.genericity import DEFAULT_PRIME
from sweepwords.witness import (
    MAX_ESCALATIONS,
    WITNESS_MAX_BASE_BITS,
    WITNESS_MAX_N,
    build_and_verify,
    build_witness,
    check_witness_size,
    reported_constants,
    verify_witness,
)
from sweepwords.words import MAX_G, build_word_grid, certificate_monomial


def _variable_level(var, g):
    """Recursion level at which a support variable first appears, by search.

    Oracle for the closed form in `build_witness`.  For letter 1 the
    diagonal variable (1, i, i) first occurs once the half-grid reaches i,
    i.e. at the smallest s with i <= g**(s-1).  For a letter k >= 2 the pair
    (i, j) satisfies |i - j| = (k-1) * g**(s-1).
    """
    k, i, j = var
    if k == 1:
        s = 1
        while g ** (s - 1) < i:
            s += 1
        return s
    gap, s = abs(i - j), 1
    while (k - 1) * g ** (s - 1) != gap:
        s += 1
        assert (k - 1) * g ** (s - 1) <= gap, f"{var} is off the support lattice"
    return s


class TestBuildWitness:
    def test_n2_support_and_exponents(self):
        spec, t = build_witness(2, 2)
        assert spec.support == {(1, 1, 1): 0, (2, 1, 2): 1, (2, 2, 1): 2}
        assert spec.base == 9  # 2 * d * n^2 + 1 with d = 1
        assert spec.m_constant == 8  # 2! * (2^1)^2
        x, y = t.matrices
        assert rows(x) == [[1, 0], [0, 0]]
        assert rows(y) == [[0, 9], [81, 0]]

    def test_base_override_bypasses_formula(self):
        spec, _ = build_witness(2, 2, base_override=2)
        assert spec.base == 2
        with pytest.raises(InvalidInput):
            build_witness(2, 2, base_override=1)

    def test_exponents_are_distinct(self):
        for n in range(2, 7):
            spec, _ = build_witness(n, 2)
            exps = list(spec.support.values())
            assert sorted(exps) == list(range(len(exps)))

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_exponents_follow_letter_level_position(self, g):
        for n in range(2, 17):
            variables = sorted(
                certificate_monomial(n, g),
                key=lambda v: (v[0], _variable_level(v, g), v[1], v[2]),
            )
            spec, _ = build_witness(n, g)
            assert spec.support == {var: e for e, var in enumerate(variables)}

    def test_support_positions_match_certificate_variables(self):
        for n in (3, 4, 6):
            spec, _ = build_witness(n, 2)
            assert set(spec.support) == set(certificate_monomial(n, 2))


class TestVerifyWitness:
    def test_n2_base_ten_discriminant(self):
        spec, t = build_witness(2, 2, base_override=10)
        value = verify_witness(t, build_word_grid(2, 2))
        # upper-triangular evaluation: product of B^0*B^0, B^0*B^1,
        # B^0*B^2, B^1*B^2 = B^6
        assert value == 10**6

    def test_all_zero_tuple_gives_zero(self):
        ring = big_integer()
        zero = zeros(2, ring)
        assert verify_witness(MatrixTuple((zero, zero)), build_word_grid(2, 2)) == 0

    def test_n3_is_nonzero(self):
        _, t = build_witness(3, 2)
        assert verify_witness(t, build_word_grid(3, 2)) != 0

    def test_requires_integer_ring(self):
        ring = prime_field(101)
        t = MatrixTuple((identity(2, ring), identity(2, ring)))
        with pytest.raises(InvalidInput):
            verify_witness(t, build_word_grid(2, 2))


class TestBuildAndVerify:
    def test_no_escalations_needed_at_small_sizes(self):
        for n in (2, 3, 4):
            report, _ = build_and_verify(n, 2)
            assert report.certified
            assert report.escalations == 0

    def test_escalation_squares_the_base(self, monkeypatch):
        calls = []

        def flaky(t, grid):
            calls.append(t.matrices[1].entries)
            return 0 if len(calls) <= 2 else verify_witness(t, grid)

        monkeypatch.setattr(witness, "verify_witness", flaky)
        report, _ = build_and_verify(2, 2, base_override=10)
        assert report.escalations == 2
        assert report.spec.base == 10**4  # squared twice
        assert report.certified

    def test_gives_up_after_max_escalations(self, monkeypatch):
        monkeypatch.setattr(witness, "verify_witness", lambda t, g: 0)
        report, _ = build_and_verify(2, 2, base_override=10)
        assert not report.certified
        assert report.escalations == MAX_ESCALATIONS == 3
        assert report.spec.base == 10**8  # squared three times

    def test_reproducible_byte_for_byte(self):
        a, _ = build_and_verify(4, 2)
        b, _ = build_and_verify(4, 2)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )

    def test_reduction_mod_prime_agrees(self):
        p = DEFAULT_PRIME
        pring = prime_field(p)
        for n in (2, 3, 4):
            report, t = build_and_verify(n, 2)
            reduced = MatrixTuple(
                tuple(Matrix.from_rows(rows(m), pring) for m in t.matrices)
            )
            grid = build_word_grid(n, 2)
            dp = prime_discriminant(evaluate_blocks(grid.flatten(), reduced))
            assert dp == report.discriminant % p


class TestWitnessCap:
    def test_refuses_before_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the size check")

        for name in ("build_word_grid", "build_witness", "verify_witness"):
            monkeypatch.setattr(witness, name, refuse)
        for g in (2, 3):
            with pytest.raises(TooLarge):
                build_and_verify(WITNESS_MAX_N + 1, g)

    def test_alphabet_above_cap_is_refused_before_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the alphabet check")

        for name in ("build_word_grid", "build_witness", "verify_witness"):
            monkeypatch.setattr(witness, name, refuse)
        with pytest.raises(TooLarge):
            build_and_verify(2, MAX_G + 1)

    def test_cap_is_inclusive(self):
        check_witness_size(WITNESS_MAX_N)
        with pytest.raises(TooLarge):
            check_witness_size(WITNESS_MAX_N + 1)

    def test_base_cap_is_inclusive(self):
        largest = (1 << WITNESS_MAX_BASE_BITS) - 1
        check_witness_size(WITNESS_MAX_N, largest)
        with pytest.raises(TooLarge):
            check_witness_size(2, largest + 1)
        # the benchmark's witness-n8 bases, and the bases the tests pass
        for base in [*range(385, 401), 2, 9, 10, 2049]:
            check_witness_size(8, base)

    def test_base_above_cap_is_refused_before_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the base check")

        for name in ("build_word_grid", "build_witness", "verify_witness"):
            monkeypatch.setattr(witness, name, refuse)
        for base in (1 << WITNESS_MAX_BASE_BITS, 10**100 + 7):
            with pytest.raises(TooLarge, match="bases are capped"):
                build_and_verify(2, 2, base_override=base)


class TestReportedConstants:
    def test_n2(self):
        data = reported_constants(2, 2)
        assert data["m_constant"] == "8"
        assert data["c_values"] == [3]
        assert data["gbar"] == 2

    def test_n4(self):
        data = reported_constants(4, 2)
        # s = 2 term: 2 * gbar * (gbar - 1) + 1 = 5 for gbar = 2
        assert data["c_values"] == [3, 5]
        assert data["c_sum"] == 8

    def test_n8(self):
        data = reported_constants(8, 2)
        assert data["c_values"] == [3, 5, 10]
        assert data["as_printed"] is True
