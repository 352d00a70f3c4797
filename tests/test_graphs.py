import json
from collections import Counter

import pytest

from conftest import word_of_walk
from sweepwords import graphs
from sweepwords.errors import BudgetExceeded, InvalidInput, TooLarge
from sweepwords.graphs import (
    GRAPH_MAX_VERTICES,
    SEARCH_MAX_WALKS,
    LabeledMultigraph,
    build_graph,
    check_graph_size,
    derive_walks_from_certificate,
    enumerate_partitions,
    verify_partition,
)
from sweepwords.words import MAX_G, build_word_grid

# every (g, d) with d >= 1 and g^d <= 64
SMALL_LEVELS = [
    (g, d) for g in range(2, 65) for d in range(1, 7) if g**d <= 64
]


def _walk_edges(d: int, i: int, j: int, g: int) -> list[tuple[int, int, int]]:
    """The walk from i to j at level d, as its own recursion.

    Oracle for `derive_walks_from_certificate`, which unfolds the certificate
    chain instead: the walk opens i -> i_d with label ceil(i / g^(d-1)),
    closes j_d -> j with label ceil(j / g^(d-1)), and recurses on the
    residues (i_d, j_d) in between.
    """
    if d == 0:
        return []
    h = g ** (d - 1)
    a = (i - 1) // h + 1
    b = (j - 1) // h + 1
    i2 = (i - 1) % h + 1
    j2 = (j - 1) % h + 1
    return [(i, i2, a)] + _walk_edges(d - 1, i2, j2, g) + [(j2, j, b)]


def _edge_usage(walks: dict) -> Counter:
    """How often the partition's walks traverse each edge key."""
    return Counter(edge for ws in walks.values() for walk in ws for edge in walk)


class TestBuildGraph:
    def test_level_one_multiplicities(self):
        g1 = build_graph(2, 1)
        assert g1.edges == {(1, 1, 1): 4, (1, 2, 2): 2, (2, 1, 2): 2}

    def test_level_two_multiplicities(self):
        g2 = build_graph(2, 2)
        assert g2.edges == {
            (1, 1, 1): 24,
            (2, 2, 1): 8,
            (1, 2, 2): 8,
            (2, 1, 2): 8,
            (1, 3, 2): 4,
            (3, 1, 2): 4,
            (2, 4, 2): 4,
            (4, 2, 2): 4,
        }

    def test_level_three_total(self):
        assert sum(build_graph(2, 3).edges.values()) == 384  # 2^(2d+1) * d at d = 3

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    def test_edge_count_formula(self, g, d, m):
        graph = build_graph(g, d, m)
        assert sum(graph.edges.values()) == m * 2 * d * g ** (2 * d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_two_letter_labels_split_evenly(self, d):
        counts = build_graph(2, d).label_counts()
        assert counts[1] == counts[2]

    @pytest.mark.parametrize("g,d", [(2, 2), (2, 3), (3, 2)])
    def test_no_loops_on_upper_vertices(self, g, d):
        graph = build_graph(g, d)
        h = g ** (d - 1)
        for (u, v, label), mult in graph.edges.items():
            if u == v:
                assert label == 1
                assert u <= h

    def test_level_zero_is_empty(self):
        g0 = build_graph(2, 0)
        assert g0.edges == {} and g0.n_vertices == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidInput):
            build_graph(1, 1)
        with pytest.raises(InvalidInput):
            build_graph(2, -1)
        with pytest.raises(InvalidInput):
            build_graph(2, 1, 0)


class TestWalks:
    def test_word_of_empty_walk(self):
        assert word_of_walk(()) == ()

    def test_word_of_two_loops(self):
        walk = ((1, 1, 1), (1, 1, 1))
        assert word_of_walk(walk) == (1, 1)

    def test_word_of_round_trip_walk(self):
        walk = ((2, 1, 2), (1, 2, 2))
        assert word_of_walk(walk) == (2, 2)
        assert walk[0][0] == walk[-1][1] == 2


class TestDeriveWalks:
    def test_level_one_walks_exactly(self):
        assert derive_walks_from_certificate(build_graph(2, 1)) == {
            (1, 1): (((1, 1, 1), (1, 1, 1)),),
            (1, 2): (((1, 1, 1), (1, 2, 2)),),
            (2, 1): (((2, 1, 2), (1, 1, 1)),),
            (2, 2): (((2, 1, 2), (1, 2, 2)),),
        }

    @pytest.mark.parametrize("g,d", [(2, 1), (2, 2), (3, 1)])
    def test_walk_words_equal_grid_entries(self, g, d):
        n = g**d
        part = derive_walks_from_certificate(build_graph(g, d))
        grid = build_word_grid(n, g)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                (walk,) = part[(i, j)]
                assert word_of_walk(walk) == grid.grid[i - 1][j - 1]

    @pytest.mark.parametrize("g,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_partition_verifies_against_graph(self, g, d):
        graph = build_graph(g, d)
        assert verify_partition(graph, derive_walks_from_certificate(graph))

    @pytest.mark.parametrize("g,d", SMALL_LEVELS)
    def test_edge_usage_matches_certificate_exponents(self, g, d):
        # the unfolded certificate uses every edge of the independently
        # built graph exactly as often as its multiplicity
        graph = build_graph(g, d)
        assert _edge_usage(derive_walks_from_certificate(graph)) == Counter(graph.edges)

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("m", [1, 3])
    def test_level_zero_is_the_trivial_partition(self, g, m):
        # one vertex, no edge: m empty walks at (1, 1), reading the empty word
        graph = build_graph(g, 0, m)
        part = derive_walks_from_certificate(graph)
        assert part == {(1, 1): ((),) * m}
        assert verify_partition(graph, part)

    @pytest.mark.parametrize("g,d", [(2, 1), (2, 2), (3, 1)])
    @pytest.mark.parametrize("m", [2, 3])
    def test_m_copies_of_each_walk(self, g, d, m):
        one = derive_walks_from_certificate(build_graph(g, d))
        part = derive_walks_from_certificate(build_graph(g, d, m))
        assert part == {pair: ws * m for pair, ws in one.items()}

    def test_level_two_usage_matches_graph_multiplicities(self):
        part = derive_walks_from_certificate(build_graph(2, 2))
        assert _edge_usage(part) == build_graph(2, 2).edges

    @pytest.mark.parametrize("g,d", SMALL_LEVELS)
    def test_unfolded_chain_matches_walk_recursion(self, g, d):
        n = g**d
        part = derive_walks_from_certificate(build_graph(g, d))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert part[(i, j)] == (tuple(_walk_edges(d, i, j, g)),)


class TestGraphCap:
    def test_vertex_cap_is_inclusive(self):
        assert GRAPH_MAX_VERTICES == 2**16
        check_graph_size(2, 16)
        check_graph_size(256, 2)
        with pytest.raises(TooLarge):
            check_graph_size(2, 17)

    def test_alphabet_cap_is_inclusive(self):
        check_graph_size(MAX_G, 1)
        with pytest.raises(TooLarge):
            check_graph_size(MAX_G + 1, 0)

    def test_huge_level_is_refused_at_once(self):
        with pytest.raises(TooLarge):
            check_graph_size(2, 10**18)

    def test_refused_before_any_edge(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built edges before the size check")

        monkeypatch.setattr(graphs, "Counter", refuse)
        monkeypatch.setattr(graphs, "LabeledMultigraph", refuse)
        for g, d in [(2, 17), (256, 3), (MAX_G + 1, 0), (2, 10**18)]:
            with pytest.raises(TooLarge):
                build_graph(g, d)


class TestVerifyPartition:
    def setup_method(self):
        self.graph = build_graph(2, 1)
        self.walks = derive_walks_from_certificate(self.graph)

    def test_derived_partition_passes(self):
        assert verify_partition(self.graph, self.walks)

    def test_duplicate_word_fails_coverage(self):
        walks = dict(self.walks)
        # replace the aa walk at (1, 1) with the 1 -> 2 -> 1 walk reading bb:
        # endpoints still match but bb is now covered twice and aa never
        walks[(1, 1)] = (((1, 2, 2), (2, 1, 2)),)
        assert not verify_partition(self.graph, walks)

    def test_swapped_endpoint_slots_fail(self):
        walks = dict(self.walks)
        walks[(1, 2)], walks[(2, 1)] = walks[(2, 1)], walks[(1, 2)]
        assert not verify_partition(self.graph, walks)

    def test_wrong_walk_count_fails(self):
        walks = dict(self.walks)
        walks[(1, 1)] = walks[(1, 1)] * 2
        assert not verify_partition(self.graph, walks)

    def test_missing_pair_fails(self):
        walks = dict(self.walks)
        del walks[(2, 2)]
        assert not verify_partition(self.graph, walks)
        # at d = 0 the one pair (1, 1) moved to (2, 2) with its empty walk:
        # walk count, endpoints, edges and words all still match
        assert not verify_partition(build_graph(2, 0), {(2, 2): ((),)})

    def test_extra_pair_fails(self):
        # a pair outside [1, 2]^2, even one that holds no walk
        walks = dict(self.walks)
        walks[(3, 3)] = ()
        assert not verify_partition(self.graph, walks)

    def test_wrong_length_walk_fails(self):
        walks = dict(self.walks)
        # an empty walk at (1, 1) and a length-4 walk 1 -> 1 -> 1 -> 1 -> 2
        # at (1, 2): endpoints and edge counts still match, but the words
        # (), aaab, ba, bb are not the four words of length 2
        walks[(1, 1)] = ((),)
        walks[(1, 2)] = (((1, 1, 1),) * 3 + ((1, 2, 2),),)
        assert _edge_usage(walks) == Counter(self.graph.edges)
        assert not verify_partition(self.graph, walks)

    def test_broken_walk_fails(self):
        # swap the fifth edges of the (1, 1) and (1, 2) walks of level 3:
        # both are labeled 1, so endpoints, words and edge counts all still
        # match, but the (1, 1) walk now jumps 1 -> 2 between its edges
        graph = build_graph(2, 3)
        walks = derive_walks_from_certificate(graph)
        a, b = list(walks[(1, 1)][0]), list(walks[(1, 2)][0])
        assert a[4][2] == b[4][2] and a[4] != b[4]
        a[4], b[4] = b[4], a[4]
        walks[(1, 1)], walks[(1, 2)] = (tuple(a),), (tuple(b),)
        assert _edge_usage(walks) == Counter(graph.edges)
        assert not verify_partition(graph, walks)

    def test_edge_usage_mismatch_fails(self):
        edges = dict(self.graph.edges)
        edges[(1, 1, 1)] += 1
        graph = LabeledMultigraph(2, 1, 1, edges)
        assert not verify_partition(graph, self.walks)

    def test_scaled_partition_verifies_on_scaled_graph(self):
        graph = build_graph(2, 1, 3)
        assert verify_partition(graph, derive_walks_from_certificate(graph))


class TestEnumerate:
    @pytest.mark.parametrize(
        "g,d,m", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (2, 2, 1)]
    )
    def test_partition_is_unique(self, g, d, m):
        count = enumerate_partitions(build_graph(g, d, m), cap=2, budget=10**8)
        assert count == 1

    def test_budget_guard_raises(self):
        with pytest.raises(BudgetExceeded):
            enumerate_partitions(build_graph(2, 2), cap=2, budget=10)

    def test_cap_validation(self):
        with pytest.raises(InvalidInput):
            enumerate_partitions(build_graph(2, 1), cap=1)

    def test_negative_budget_is_invalid(self):
        with pytest.raises(InvalidInput, match="budget"):
            enumerate_partitions(build_graph(2, 1), cap=2, budget=-1)

    def test_walk_cap_is_inclusive(self):
        # g = 2, d = 1 places 4 m walks; one copy more is refused before
        # any candidate walk is listed
        m = SEARCH_MAX_WALKS // 4
        assert enumerate_partitions(build_graph(2, 1, m), cap=2, budget=10**6) == 1

    def test_walk_cap_refuses_before_the_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("listed candidate walks before the walk cap")

        monkeypatch.setattr(graphs, "_candidate_walks", refuse)
        for g, d, m in [(2, 1, SEARCH_MAX_WALKS // 4 + 1), (2, 1, 400), (3, 3, 2)]:
            with pytest.raises(TooLarge, match="walks"):
                enumerate_partitions(build_graph(g, d, m), cap=2)

    @pytest.mark.parametrize("g,d,m", [(2, 2, 3), (2, 4, 1), (3, 3, 1)])
    def test_admitted_searches_start(self, g, d, m, monkeypatch):
        # 48, 256 and 729 walks: past the cap checks, the search lists its
        # candidate walks
        class Started(Exception):
            pass

        def started(*args, **kwargs):
            raise Started

        monkeypatch.setattr(graphs, "_candidate_walks", started)
        assert g ** (2 * d) * m <= SEARCH_MAX_WALKS
        with pytest.raises(Started):
            enumerate_partitions(build_graph(g, d, m), cap=2)

    def test_unsatisfiable_graph_counts_zero(self):
        # remove one loop: totals no longer match the words' letter needs
        graph = build_graph(2, 1)
        edges = dict(graph.edges)
        edges[(1, 1, 1)] -= 1
        broken = LabeledMultigraph(2, 1, 1, edges)
        assert enumerate_partitions(broken, cap=2, budget=10**6) == 0


class TestPeeling:
    @pytest.mark.parametrize("g,d", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_removing_outer_edges_leaves_previous_level(self, g, d, m):
        graph = build_graph(g, d, m)
        remaining = dict(graph.edges)
        for walks in derive_walks_from_certificate(graph).values():
            for walk in walks:
                remaining[walk[0]] -= 1
                remaining[walk[-1]] -= 1
        remaining = {k: v for k, v in remaining.items() if v}
        assert remaining == build_graph(g, d - 1, g * g * m).edges


class TestSerialization:
    def test_json_round_trip(self):
        graph = build_graph(2, 2)
        data = json.loads(json.dumps(graph.to_json()))
        assert (data["g"], data["d"], data["m"]) == (2, 2, 1)
        edges = {(e["from"], e["to"], e["label"]): e["mult"] for e in data["edges"]}
        assert edges == graph.edges

    def test_dot_output(self):
        dot = build_graph(2, 1).to_dot()
        assert dot.startswith("digraph")
        assert '1 -> 1 [label="x1 *4", style=dashed];' in dot
