import itertools
from types import SimpleNamespace

import pytest

from conftest import monomial_coefficient_bruteforce
from sweepwords import words
from sweepwords.errors import InvalidInput, TooLarge
from sweepwords.words import (
    MAX_G,
    WORDS_MAX_D,
    WORDS_MAX_N,
    WordGrid,
    all_words,
    build_word_grid,
    certificate_monomial,
    check_grid_size,
    degree_exponent,
    entry_variable_chain,
    least_alphabet,
    word_string,
)


def strings(ws):
    """The string forms of words over two letters."""
    return [word_string(w, 2) for w in ws]


class TestWord:
    def test_string_round_trip(self):
        assert word_string((1, 2, 1, 3), 3) == "abac"
        assert word_string((), 2) == ""
        assert word_string((26,), 26) == "z"
        # the refusal goes by the alphabet, whatever letters the word uses
        with pytest.raises(InvalidInput, match="g <= 26"):
            word_string((1, 2), 27)


class TestAllWords:
    def test_degree_zero_is_identity_singleton(self):
        assert all_words(2, 0) == [()]

    def test_degree_one(self):
        assert strings(all_words(2, 1)) == ["a", "b"]

    def test_degree_two(self):
        assert strings(all_words(2, 2)) == ["aa", "ab", "ba", "bb"]

    @pytest.mark.parametrize("g,s", [(2, 3), (2, 5), (3, 3), (4, 2)])
    def test_count_distinct_strictly_decreasing(self, g, s):
        ws = all_words(g, s)
        assert len(ws) == g**s
        assert len(set(ws)) == g**s
        # letter 1 is the largest, so decreasing word order is ascending
        # natural order on the letter tuples
        assert ws == sorted(ws)


class TestDegreeExponent:
    def test_smallest_covering_power(self):
        assert [degree_exponent(n, 2) for n in (1, 2, 3, 4, 5)] == [0, 1, 2, 2, 3]

    @pytest.mark.parametrize("g", [0, 1])
    def test_unary_alphabet_rejected(self, g):
        # g^d never reaches n >= 2, so the search for d would not end
        with pytest.raises(InvalidInput):
            degree_exponent(3, g)


class TestLeastAlphabet:
    @pytest.mark.parametrize(
        "n,d,gbar",
        [(1, 0, 1), (2, 1, 2), (4, 2, 2), (5, 2, 3), (9, 2, 3), (10, 2, 4), (8, 3, 2)],
    )
    def test_smallest_letter_count(self, n, d, gbar):
        assert least_alphabet(n, d) == gbar

    def test_inverts_degree_exponent(self):
        # gbar letters reach n words at degree d, gbar - 1 letters do not
        for n in range(2, 40):
            for d in range(1, 5):
                gbar = least_alphabet(n, d)
                assert gbar**d >= n > (gbar - 1) ** d
                assert degree_exponent(n, gbar) <= d

    def test_degree_zero_is_refused(self):
        with pytest.raises(InvalidInput):
            least_alphabet(2, 0)


class TestGridCaps:
    def test_caps_are_inclusive(self):
        # the natural half-degree of every admitted n stays within the d cap
        assert degree_exponent(WORDS_MAX_N, 2) <= WORDS_MAX_D
        check_grid_size(WORDS_MAX_N, MAX_G, WORDS_MAX_D)
        for n, g, d in [
            (WORDS_MAX_N + 1, 2, 9),
            (2, MAX_G + 1, 1),
            (2, 2, WORDS_MAX_D + 1),
        ]:
            with pytest.raises(TooLarge):
                check_grid_size(n, g, d)

    def test_refused_before_any_word(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a word before the size check")

        # the grid's words are the letter tuples of itertools.product
        monkeypatch.setattr(
            words, "itertools", SimpleNamespace(product=refuse, islice=refuse)
        )
        for n, g, d in [
            (WORDS_MAX_N + 1, 2, None),
            (2, 2, WORDS_MAX_D + 1),
            (2, 2, 10**18),
            (2, MAX_G + 1, None),
        ]:
            with pytest.raises(TooLarge):
                build_word_grid(n, g, d)


class TestWordGrid:
    def test_n2_grid(self):
        grid = build_word_grid(2, 2)
        assert [strings(row) for row in grid.grid] == [["aa", "ab"], ["ba", "bb"]]
        assert grid.d == 1

    def test_n4_entries(self):
        grid = build_word_grid(4, 2)
        assert grid.grid[0][0] == (1, 1, 1, 1)
        # outer(1) * v1[i_2] * v1[j_2] * outer(3) with i_2 = j_2 = 1
        assert grid.grid[0][2] == (1, 1, 1, 2)
        assert grid.grid[3][3] == (2, 2, 2, 2)

    def test_n3_is_leading_subgrid_of_n4(self):
        g3 = build_word_grid(3, 2)
        g4 = build_word_grid(4, 2)
        for i in range(1, 4):
            for j in range(1, 4):
                assert g3.grid[i - 1][j - 1] == g4.grid[i - 1][j - 1]

    def test_matches_prefix_times_reversed_suffix(self):
        # independent recomputation of every entry from the enumeration
        for n, g in [(4, 2), (8, 2), (9, 3), (5, 2)]:
            grid = build_word_grid(n, g)
            v = all_words(g, grid.d)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    expected = v[i - 1] + tuple(reversed(v[j - 1]))
                    assert grid.grid[i - 1][j - 1] == expected

    @pytest.mark.parametrize("n,g", [(2, 2), (3, 2), (7, 2), (16, 2), (3, 3), (10, 3)])
    def test_uniform_degree(self, n, g):
        grid = build_word_grid(n, g)
        d = degree_exponent(n, g)
        assert grid.d == d
        assert all(len(w) == 2 * d for w in grid.flatten())

    @pytest.mark.parametrize("g,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_full_grid_enumerates_all_words_once(self, g, d):
        grid = build_word_grid(g**d, g)
        seen = set(grid.flatten())
        assert len(seen) == g ** (2 * d)
        assert seen == set(all_words(g, 2 * d))

    @pytest.mark.parametrize("n,g", [(4, 2), (5, 2), (9, 3)])
    def test_reversal_symmetry(self, n, g):
        grid = build_word_grid(n, g)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                word = grid.grid[i - 1][j - 1]
                assert tuple(reversed(word)) == grid.grid[j - 1][i - 1]

    def test_flatten_is_row_major(self):
        grid = build_word_grid(3, 2)
        flat = grid.flatten()
        for i in range(1, 4):
            for j in range(1, 4):
                assert flat[(i - 1) * 3 + (j - 1)] == grid.grid[i - 1][j - 1]

    def test_degree_override(self):
        grid = build_word_grid(2, 2, d=2)
        assert grid.d == 2
        assert all(len(w) == 4 for w in grid.flatten())
        big = build_word_grid(4, 2)
        assert grid.grid[1][0] == big.grid[1][0]
        with pytest.raises(InvalidInput):
            build_word_grid(4, 2, d=1)

    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidInput):
            build_word_grid(1, 2)
        with pytest.raises(InvalidInput):
            build_word_grid(4, 1)

    def test_json_round_trip(self):
        grid = build_word_grid(3, 2)
        data = grid.to_json()
        assert (data["n"], data["g"], data["d"]) == (3, 2, 2)
        assert data["grid"] == [strings(row) for row in grid.grid]
        assert data["grid"][0] == ["aaaa", "aaba", "aaab"]


class TestCertificateMonomial:
    def test_n2_exact(self):
        mono = certificate_monomial(2, 2)
        assert mono == {(1, 1, 1): 4, (2, 1, 2): 2, (2, 2, 1): 2}
        assert sum(mono.values()) == 8

    @pytest.mark.parametrize("n,g", [(2, 2), (3, 2), (4, 2), (8, 2), (3, 3), (9, 3)])
    def test_total_degree(self, n, g):
        mono = certificate_monomial(n, g)
        assert sum(mono.values()) == 2 * degree_exponent(n, g) * n * n
        assert all(e > 0 for e in mono.values())

    @pytest.mark.parametrize("n,g", [(4, 2), (8, 2), (9, 3)])
    def test_letter_one_variables_are_diagonal(self, n, g):
        mono = certificate_monomial(n, g)
        for (k, i, j) in mono:
            if k == 1:
                assert i == j

    def test_n4_loop_degrees_match_level_two_graph(self):
        # degrees of the diagonal variables equal the loop multiplicities
        # of the level-2 graph: 24 on vertex 1 and 8 on vertex 2
        mono = certificate_monomial(4, 2)
        assert mono[(1, 1, 1)] == 24
        assert mono[(1, 2, 2)] == 8
        assert mono[(2, 1, 2)] == 8
        assert mono[(2, 3, 1)] == 4

    def test_entry_chain_has_one_pair_per_level(self):
        for n, g in [(4, 2), (9, 3)]:
            d = degree_exponent(n, g)
            for i, j in itertools.product(range(1, n + 1), repeat=2):
                assert len(entry_variable_chain(n, g, i, j)) == 2 * d


class TestBruteforce:
    def test_identity_isolation_at_n2(self):
        grid = build_word_grid(2, 2)
        mono = certificate_monomial(2, 2)
        assert monomial_coefficient_bruteforce(grid, mono) == (1, 0)

    def test_pure_diagonal_monomial_never_appears(self):
        grid = build_word_grid(2, 2)
        mono = {(1, 1, 1): 8}
        coeff, hits = monomial_coefficient_bruteforce(grid, mono)
        assert coeff == 0
        assert hits == 0

    def test_swapped_grid_moves_the_hit_off_identity(self):
        grid = build_word_grid(2, 2)
        rows = [list(row) for row in grid.grid]
        rows[0][1], rows[1][0] = rows[1][0], rows[0][1]
        swapped = WordGrid(2, 2, 1, tuple(tuple(r) for r in rows))
        coeff, hits = monomial_coefficient_bruteforce(
            swapped, certificate_monomial(2, 2)
        )
        assert coeff == 0
        assert hits >= 1

    def test_hard_cap(self):
        with pytest.raises(TooLarge):
            monomial_coefficient_bruteforce(
                build_word_grid(3, 2), certificate_monomial(3, 2)
            )
