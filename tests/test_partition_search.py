"""Differential tests for the walk-partition search.

`oracle_partitions` is the earlier backtracker, which re-walks the residual
graph from every start vertex at every search node.  It is kept here as the
oracle for `enumerate_partitions`, which lists every word's walks once and
filters them per node.  It counts its `search` calls and spends its budget
on them.  By default it tries words and walks in the order the search
does, worked out from its own walks in the full graph: the word whose
walks reach the fewest vertex pairs first, then the one with the fewest
walks, ties in decreasing lexicographic order; each word's walks in
(start, end, steps) order.

Given a dual certificate, the oracle fixes reduced costs as the search
does, but decides by its own exact `Fraction` check (`reduced_costs`):
when every full-graph walk has (A^T z)_w >= 0 and b^T z <= 0, it tries
only the walks with (A^T z)_w = 0.  `assert_same_search` hands it the
certificate file that `enumerate_partitions` reads, from `graphs.DUALS_DIR`.

Both then visit the same search tree, so their counts and their node counts
(oracle `search` calls, search nodes of `enumerate_partitions`) must agree.
The node count of `enumerate_partitions` is read off its budget: with
`budget = nodes` it finishes, and with `budget = nodes - 1` it raises
BudgetExceeded at node `nodes`.  On a tree larger than the budget, both
must stop at the same node.  With `most_constrained_first=False` and no
certificate the oracle takes words in decreasing lexicographic order and
walks in (start, steps) order over every walk, a different tree with the
same count.
"""

from __future__ import annotations

import importlib.util
import json
import os
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from sweepwords import graphs
from sweepwords.errors import BudgetExceeded, InvalidInput, TooLarge
from sweepwords.graphs import (
    CANDIDATE_WALKS_MAX,
    LabeledMultigraph,
    build_graph,
    derive_walks_from_certificate,
    enumerate_partitions,
)
from sweepwords.words import all_words


class _Saturated(Exception):
    pass


def adjacency(graph: LabeledMultigraph) -> dict[tuple[int, int], list[int]]:
    """Each (source, label)'s targets in ascending order."""
    adj: dict[tuple[int, int], list[int]] = {}
    for (u, v, label) in sorted(graph.edges):
        adj.setdefault((u, label), []).append(v)
    return adj


def walks_in(
    edges: Counter[tuple[int, int, int]],
    adj: dict[tuple[int, int], list[int]],
    n_side: int,
    letters: tuple[int, ...],
) -> list[tuple[int, tuple]]:
    """Every (start, steps) walk reading `letters` that uses each edge at
    most as often as `edges` holds it, in (start, steps) order."""
    found: list[tuple[int, tuple]] = []
    usage: Counter[tuple[int, int, int]] = Counter()
    steps: list[tuple[int, int]] = []

    def walk(pos: int, depth: int, start: int):
        if depth == len(letters):
            found.append((start, tuple(steps)))
            return
        letter = letters[depth]
        for target in adj.get((pos, letter), ()):
            key = (pos, target, letter)
            if edges[key] - usage[key] > 0:
                usage[key] += 1
                steps.append((target, letter))
                walk(target, depth + 1, start)
                steps.pop()
                usage[key] -= 1

    for start in range(1, n_side + 1):
        walk(start, 0, start)
    return found


# the levels that ship a dual certificate
SHIPPED = [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3)]


def read_certificate(g: int, d: int) -> dict | None:
    """The certificate file that `enumerate_partitions` reads for (g, d)."""
    path = Path(graphs.DUALS_DIR) / f"g{g}d{d}.json"
    return json.loads(path.read_text()) if path.exists() else None


def reduced_costs(
    graph: LabeledMultigraph, certificate: dict
) -> tuple[Fraction, dict[tuple[tuple[int, ...], int, tuple], Fraction]]:
    """b^T z and (A^T z)_w for every walk w of the full graph, exactly.

    A walk is keyed (letters, start, steps).  Its column of A has a 1 in
    its word's row and in its (start, end) pair's row, and its number of
    uses of each edge in that edge's row; b is m per word, m per pair and
    each edge's multiplicity.  z is the file's numerators over its
    denominator, 0 on an edge the file does not list.
    """
    den = certificate["denominator"]
    n_side, m = graph.n_vertices, graph.m
    words = all_words(graph.g, 2 * graph.d)
    z_word = {
        letters: Fraction(z, den) for letters, z in zip(words, certificate["words"])
    }
    z_pair = {
        (i, j): Fraction(certificate["pairs"][(i - 1) * n_side + j - 1], den)
        for i in range(1, n_side + 1)
        for j in range(1, n_side + 1)
    }
    z_edge = {(u, v, label): Fraction(z, den) for u, v, label, z in certificate["edges"]}
    b_z = m * (sum(z_word.values()) + sum(z_pair.values())) + sum(
        mult * z_edge.get(key, 0) for key, mult in graph.edges.items()
    )
    costs = {}
    edges, adj = Counter(graph.edges), adjacency(graph)
    for letters in words:
        for start, steps in walks_in(edges, adj, n_side, letters):
            cost = z_word[letters]
            pos = start
            for target, label in steps:
                cost += z_edge.get((pos, target, label), 0)
                pos = target
            costs[(letters, start, steps)] = cost + z_pair[(start, pos)]
    return b_z, costs


def zero_cost_walks(
    graph: LabeledMultigraph, certificate: dict | None
) -> set[tuple[tuple[int, ...], int, tuple]] | None:
    """The walks of zero reduced cost when the certificate holds on the
    graph (every (A^T z)_w >= 0 and b^T z <= 0), else None.  A certificate
    without a positive denominator, or one number per word and per vertex
    pair, does not hold."""
    if (
        certificate is None
        or certificate["denominator"] <= 0
        or len(certificate["words"]) != graph.g ** (2 * graph.d)
        or len(certificate["pairs"]) != graph.n_vertices**2
    ):
        return None
    b_z, costs = reduced_costs(graph, certificate)
    if b_z > 0 or min(costs.values(), default=0) < 0:
        return None
    return {walk for walk, cost in costs.items() if cost == 0}


def oracle_partitions(
    graph: LabeledMultigraph,
    cap: int,
    budget: int = 100_000_000,
    most_constrained_first: bool = True,
    certificate: dict | None = None,
) -> tuple[int, int]:
    """(count, search calls) of the re-walking backtracker.

    Its budget counts `search` calls, not steps of the walk enumeration.
    When the certificate holds on the graph, it tries only the walks of
    zero reduced cost.
    """
    if cap < 2:
        raise InvalidInput(f"cap must be >= 2, got {cap}")
    g, d, m = graph.g, graph.d, graph.m
    n_side = graph.n_vertices
    words = all_words(g, 2 * d)
    edges_rem: Counter[tuple[int, int, int]] = Counter(graph.edges)
    pair_rem = {
        (i, j): m
        for i in range(1, n_side + 1)
        for j in range(1, n_side + 1)
    }
    label_rem = graph.label_counts()
    adj = adjacency(graph)
    zero_cost = zero_cost_walks(graph, certificate)

    def candidate_walks(letters: tuple[int, ...]) -> list[tuple[int, tuple]]:
        found = walks_in(edges_rem, adj, n_side, letters)
        if zero_cost is None:
            return found
        return [walk for walk in found if (letters, *walk) in zero_cost]

    def walk_key(walk: tuple[int, tuple]) -> tuple:
        """The walk's place in the order a word's walks are tried in."""
        start, steps = walk
        if not most_constrained_first:
            return walk
        return (start, steps[-1][0] if steps else start, steps)

    if most_constrained_first:
        # fewest vertex pairs, then fewest walks, in the full graph; the
        # sort is stable, so ties stay in decreasing lexicographic order
        full = {letters: candidate_walks(letters) for letters in words}
        words.sort(
            key=lambda letters: (
                len({walk_key(walk)[:2] for walk in full[letters]}),
                len(full[letters]),
            )
        )
    suffix_need: list[Counter[int]] = [Counter() for _ in range(len(words) + 1)]
    for idx in range(len(words) - 1, -1, -1):
        need = suffix_need[idx + 1].copy()
        for letter in words[idx]:
            need[letter] += m
        suffix_need[idx] = need
    if Counter({k: v for k, v in label_rem.items() if v}) != Counter(
        {k: v for k, v in suffix_need[0].items() if v}
    ):
        return 0, 0

    state = {"count": 0, "searches": 0}

    def place(walk: tuple[int, tuple], sign: int):
        start, steps = walk
        pos = start
        for target, label in steps:
            edges_rem[(pos, target, label)] -= sign
            label_rem[label] -= sign
            pos = target
        pair_rem[(start, pos)] -= sign

    def search(word_idx: int, copy_idx: int, min_walk):
        state["searches"] += 1
        if state["searches"] > budget:
            raise BudgetExceeded(state["searches"], budget)
        if word_idx == len(words):
            state["count"] += 1
            if state["count"] >= cap:
                raise _Saturated
            return
        letters = words[word_idx]
        for walk in sorted(candidate_walks(letters), key=walk_key):
            if min_walk is not None and walk_key(walk) < min_walk:
                continue
            start, steps = walk
            end = steps[-1][0] if steps else start
            if pair_rem[(start, end)] == 0:
                continue
            place(walk, 1)
            if copy_idx + 1 == m:
                need = suffix_need[word_idx + 1]
                if all(label_rem[k] == need[k] for k in range(1, g + 1)):
                    search(word_idx + 1, 0, None)
            else:
                search(word_idx, copy_idx + 1, walk_key(walk))
            place(walk, -1)

    try:
        search(0, 0, None)
    except _Saturated:
        pass
    return state["count"], state["searches"]


def assert_same_search(
    graph: LabeledMultigraph, cap: int, budget: int = 100_000_000
) -> tuple[int, int] | None:
    """Equal counts and node counts of the search and the oracle, both
    given the certificate file of the graph's level.

    Returns (count, nodes), or None when both stop at node budget + 1.
    """
    certificate = read_certificate(graph.g, graph.d)
    try:
        count, nodes = oracle_partitions(graph, cap, budget, certificate=certificate)
    except BudgetExceeded as exc:
        assert exc.nodes == budget + 1
        with pytest.raises(BudgetExceeded) as ours:
            enumerate_partitions(graph, cap, budget)
        assert ours.value.nodes == budget + 1
        return None
    assert enumerate_partitions(graph, cap, budget=nodes) == count
    if nodes:
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_partitions(graph, cap, budget=nodes - 1)
        assert exc.value.nodes == nodes
    return count, nodes


def broken_level_one() -> LabeledMultigraph:
    """Level 1 with one loop removed: label totals no longer match."""
    edges = dict(build_graph(2, 1).edges)
    edges[(1, 1, 1)] -= 1
    return LabeledMultigraph(2, 1, 1, edges)


@st.composite
def planted_graphs(draw) -> LabeledMultigraph:
    """Edges of m walks per ordered pair, each reading a distinct word.

    The walks start as the certificate's partition of the level-d graph
    scaled by m.  A drawn set of (pair, copy) slots then trades words at
    random, and each of those slots walks through random intermediate
    vertices, so the graph keeps at least one partition and often has
    several.  Re-dealing every slot of g = 3, d = 2 gives graphs with over a
    million candidate walks, so at d = 2 at most eight slots move.  With
    `moved`, one edge is re-aimed at another vertex: label totals still
    match, so the search runs but may find nothing.
    """
    g = draw(st.sampled_from([2, 3]))
    d = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 2))
    n_side = g**d
    vertex = st.integers(1, n_side)
    slots = [
        [i, j, [label for _, _, label in walk], [v for _, v, _ in walk[:-1]]]
        for (i, j), walks in sorted(
            derive_walks_from_certificate(build_graph(g, d, m)).items()
        )
        for walk in walks
    ]
    chosen = draw(
        st.lists(
            st.sampled_from(range(len(slots))),
            max_size=len(slots) if d == 1 else 8,
            unique=True,
        )
    )
    dealt = draw(st.permutations([slots[c][2] for c in chosen]))
    for c, letters in zip(chosen, dealt):
        slots[c][2] = letters
        slots[c][3] = draw(st.lists(vertex, min_size=2 * d - 1, max_size=2 * d - 1))
    edges: Counter[tuple[int, int, int]] = Counter()
    for i, j, letters, mids in slots:
        path = [i, *mids, j]
        for pos, letter in enumerate(letters):
            edges[(path[pos], path[pos + 1], letter)] += 1
    if draw(st.booleans(), label="moved"):
        (u, v, label) = draw(st.sampled_from(sorted(edges)))
        edges[(u, v, label)] -= 1
        edges[(u, draw(vertex), label)] += 1
        edges = +edges
    return LabeledMultigraph(g, d, m, dict(edges))


# search nodes a planted graph may take; the oracle spends up to ~0.15 ms
# on each of them
PLANTED_BUDGET = 1_000


def complete_level_one() -> LabeledMultigraph:
    """Every (source, target, label) on two vertices once: 12 partitions."""
    edges = {(u, v, label): 1 for u in (1, 2) for v in (1, 2) for label in (1, 2)}
    return LabeledMultigraph(2, 1, 1, edges)


def assert_lists_like_oracle(graph: LabeledMultigraph) -> None:
    """`_candidate_walks` lists, word by word, the walks of `walks_in` in
    order: as (pair index, ((edge id, uses), ...)) with edge ids indexing
    the sorted edge keys in the order the walk first uses them, stably
    sorted by pair, so (start, steps) order holds inside a pair."""
    keys = sorted(graph.edges)
    edge_id = {key: idx for idx, key in enumerate(keys)}
    n_side, adj, edges = graph.n_vertices, adjacency(graph), Counter(graph.edges)
    words = all_words(graph.g, 2 * graph.d)
    expected = []
    for letters in words:
        walks = []
        for start, steps in walks_in(edges, adj, n_side, letters):
            pos, usage = start, {}
            for target, label in steps:
                edge = edge_id[(pos, target, label)]
                usage[edge] = usage.get(edge, 0) + 1
                pos = target
            walks.append(((start - 1) * n_side + pos - 1, tuple(usage.items())))
        expected.append(sorted(walks, key=lambda walk: walk[0]))
    mult, listed = graphs._candidate_walks(graph, words)
    assert mult == [graph.edges[key] for key in keys]
    assert listed == expected


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "g,d,m",
        [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (2, 2, 1), (2, 2, 2), (2, 2, 3)],
    )
    def test_finishing_graphs(self, g, d, m):
        # each level's certificate keeps one walk per word, so the search
        # places its g^(2d) * m walks in one node each, plus the leaf
        count, nodes = assert_same_search(build_graph(g, d, m), cap=2)
        assert count == 1 and nodes == g ** (2 * d) * m + 1

    def test_level_two_scaled_by_three_node_count(self):
        # the uniqueness search of the graph-d2m3 benchmark workload
        assert enumerate_partitions(build_graph(2, 2, 3), cap=2, budget=49) == 1
        with pytest.raises(BudgetExceeded):
            enumerate_partitions(build_graph(2, 2, 3), cap=2, budget=48)

    def test_three_letters_level_two_is_unique(self):
        # 581 candidate walks, of which the certificate keeps 81
        assert enumerate_partitions(build_graph(3, 2), cap=2, budget=82) == 1
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_partitions(build_graph(3, 2), cap=2, budget=81)
        assert exc.value.nodes == 82

    @pytest.mark.parametrize("g,d", SHIPPED)
    def test_lister_on_shipped_levels(self, g, d):
        assert_lists_like_oracle(build_graph(g, d))

    def test_lister_drops_walks_that_reuse_an_edge(self):
        # every edge of complete_level_one is there once, so the walks
        # 1 -> 1 -> 1 and 2 -> 2 -> 2 reading (1, 1) would use a loop twice;
        # with the loop at 1 doubled, the first of them is listed.  Edge
        # ids: (1, 1, 1) = 0, (1, 2, 1) = 2, (2, 1, 1) = 4, (2, 2, 1) = 6
        graph = complete_level_one()
        assert_lists_like_oracle(graph)
        rest = [
            (0, ((2, 1), (4, 1))),
            (1, ((0, 1), (2, 1))),
            (1, ((2, 1), (6, 1))),
            (2, ((4, 1), (0, 1))),
            (2, ((6, 1), (4, 1))),
            (3, ((4, 1), (2, 1))),
        ]
        assert graphs._candidate_walks(graph, [(1, 1)])[1] == [rest]
        doubled = LabeledMultigraph(2, 1, 1, {**graph.edges, (1, 1, 1): 2})
        assert_lists_like_oracle(doubled)
        assert graphs._candidate_walks(doubled, [(1, 1)])[1] == [
            [(0, ((0, 2),)), *rest]
        ]

    def test_broken_graph(self):
        assert assert_same_search(broken_level_one(), cap=2) == (0, 0)

    def test_level_zero(self):
        assert assert_same_search(build_graph(2, 0, 2), cap=2) == (1, 3)

    @pytest.mark.parametrize("cap,count", [(2, 2), (5, 5), (13, 12)])
    def test_many_partitions(self, cap, count):
        result = assert_same_search(complete_level_one(), cap)
        assert result is not None and result[0] == count

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(graph=planted_graphs(), cap=st.sampled_from([2, 5]))
    def test_planted_graphs(self, graph, cap):
        # level-one trees mostly finish or saturate within the budget; the
        # rest must stop at the same node.  Each level ships a certificate,
        # which holds on some planted graphs and prunes their walks
        assert_lists_like_oracle(graph)
        result = assert_same_search(graph, cap, budget=PLANTED_BUDGET)
        outcome = "stopped at the budget" if result is None else f"count {result[0]}"
        held = zero_cost_walks(graph, read_certificate(graph.g, graph.d))
        fixing = "refused" if held is None else "holds"
        event(f"g={graph.g} d={graph.d}: {outcome}, certificate {fixing}")


class TestOrderIndependence:
    """The old order (words in decreasing lexicographic order, each word's
    walks in (start, steps) order) over every walk searches another tree to
    the same count, with or without reduced-cost fixing in the search."""

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        graph=st.one_of(planted_graphs(), st.just(complete_level_one())),
        cap=st.sampled_from([2, 5, 13]),
    )
    def test_same_count_as_old_order(self, graph, cap):
        # either order may reach the cap or the budget far sooner than the
        # other, so only searches that both finish are compared
        try:
            old, _ = oracle_partitions(
                graph, cap, PLANTED_BUDGET, most_constrained_first=False
            )
            count = enumerate_partitions(graph, cap, budget=100 * PLANTED_BUDGET)
        except BudgetExceeded:
            event(f"g={graph.g} d={graph.d}: stopped at the budget")
            return
        held = zero_cost_walks(graph, read_certificate(graph.g, graph.d))
        fixing = "refused" if held is None else "holds"
        event(f"g={graph.g} d={graph.d}: count {old}, certificate {fixing}")
        assert count == old


class TestBounds:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("budget", [0, 1, 2, 7, 16])
    def test_budget_exceeded_at_budget_plus_one(self, d, budget):
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_partitions(build_graph(2, d), cap=2, budget=budget)
        assert exc.value.nodes == budget + 1
        assert exc.value.budget == budget

    def test_candidate_walk_cap_fires_before_the_search(self, monkeypatch):
        # level 2 lists 116 walks; with the cap below that, the search
        # refuses before its first node, so a zero budget is never reached
        monkeypatch.setattr(graphs, "CANDIDATE_WALKS_MAX", 115)
        with pytest.raises(TooLarge):
            enumerate_partitions(build_graph(2, 2), cap=2, budget=0)
        monkeypatch.setattr(graphs, "CANDIDATE_WALKS_MAX", 116)
        assert enumerate_partitions(build_graph(2, 2), cap=2) == 1

    def test_cap_admits_level_four(self):
        # 181,722 candidate walks: under the cap, so the search starts
        assert CANDIDATE_WALKS_MAX >= 181_722
        with pytest.raises(BudgetExceeded):
            enumerate_partitions(build_graph(2, 4), cap=2, budget=0)


def certificate_walks(g: int, d: int) -> set[tuple[tuple[int, ...], int, tuple]]:
    """The walks of `derive_walks_from_certificate`, keyed (letters, start,
    steps) as `walks_in` lists them: steps are (target, label) pairs."""
    return {
        (
            tuple(label for _, _, label in walk),
            walk[0][0],
            tuple((v, label) for _, v, label in walk),
        )
        for walks in derive_walks_from_certificate(build_graph(g, d)).values()
        for walk in walks
    }


def as_search_walks(
    graph: LabeledMultigraph, walks: set[tuple[tuple[int, ...], int, tuple]]
) -> set[tuple[tuple[int, ...], int, frozenset]]:
    """Each walk as the search stores it: (letters, pair index, its
    (edge id, uses) pairs), edge ids indexing the sorted edge keys."""
    edge_id = {key: idx for idx, key in enumerate(sorted(graph.edges))}
    n_side = graph.n_vertices
    stored = set()
    for letters, start, steps in walks:
        pos, usage = start, Counter()
        for target, label in steps:
            usage[edge_id[(pos, target, label)]] += 1
            pos = target
        stored.add((letters, (start - 1) * n_side + pos - 1, frozenset(usage.items())))
    return stored


def kept_walks(graph: LabeledMultigraph) -> set[tuple[tuple[int, ...], int, frozenset]]:
    """The walks the search keeps, in the form of `as_search_walks`."""
    words = all_words(graph.g, 2 * graph.d)
    _, walks_by_word = graphs._candidate_walks(graph, words)
    return {
        (letters, pair, frozenset(steps))
        for letters, walks in zip(words, graphs._fix_reduced_costs(graph, walks_by_word))
        for pair, steps in walks
    }


def write_certificate(directory: Path, certificate: dict) -> None:
    path = directory / f"g{certificate['g']}d{certificate['d']}.json"
    path.write_text(json.dumps(certificate))


class TestReducedCostFixing:
    """The shipped dual certificates, checked by `reduced_costs` with
    Fractions, and the search's refusal of certificates that fail."""

    def test_every_shipped_level_resolves_from_the_package(self):
        # the files sit beside graphs.py, where a non-editable install
        # puts them as package data
        duals = Path(graphs.__file__).parent / "duals"
        assert Path(graphs.DUALS_DIR) == duals
        assert sorted(os.listdir(duals)) == sorted(f"g{g}d{d}.json" for g, d in SHIPPED)
        for g, d in SHIPPED:
            certificate = read_certificate(g, d)
            assert (certificate["g"], certificate["d"]) == (g, d)

    @pytest.mark.parametrize("g,d", SHIPPED)
    def test_shipped_certificate_verifies_exactly(self, g, d):
        # A^T z >= c' (1 off the certificate's walks, 0 on them) and
        # b^T z <= 0: the certificate's walks are the level's one partition
        # at every m, and exactly they have zero reduced cost
        ours = certificate_walks(g, d)
        for m in (1, 2):
            b_z, costs = reduced_costs(build_graph(g, d, m), read_certificate(g, d))
            assert b_z <= 0
            assert ours <= costs.keys()
            for walk, cost in costs.items():
                assert cost >= (0 if walk in ours else 1)
            assert {walk for walk, cost in costs.items() if cost == 0} == ours

    @pytest.mark.parametrize("g,d", SHIPPED)
    def test_search_keeps_the_certificate_walks(self, g, d):
        graph = build_graph(g, d)
        assert kept_walks(graph) == as_search_walks(graph, certificate_walks(g, d))

    @pytest.mark.parametrize(
        "change",
        [
            # lowers one word's certificate walk to cost -1 / denominator
            -1,
            # every cost stays >= 0, but b^T z = m / denominator > 0
            +1,
        ],
    )
    @pytest.mark.parametrize(
        "g,d,m,budget,full",
        [
            # the full search's (count, nodes); fixing takes 17 and 33 nodes
            (2, 2, 1, 10**6, (1, 142)),
            (2, 2, 2, 10**6, (1, 1_968)),
            # the full search runs past the budget; fixing takes 65 nodes
            (2, 3, 1, 1_000, None),
        ],
    )
    def test_failing_certificate_is_refused(
        self, g, d, m, budget, full, change, tmp_path, monkeypatch
    ):
        certificate = read_certificate(g, d)
        certificate["words"][0] += change * certificate["denominator"]
        graph = build_graph(g, d, m)
        assert zero_cost_walks(graph, certificate) is None
        write_certificate(tmp_path, certificate)
        monkeypatch.setattr(graphs, "DUALS_DIR", str(tmp_path))
        assert assert_same_search(graph, cap=2, budget=budget) == full

    @pytest.mark.parametrize(
        "entry,malform",
        [
            # the numerators alone pass, but z = -numerators fails
            ("denominator", lambda den: -den),
            ("words", lambda z: z[:-1]),
            ("pairs", lambda z: z[:-1]),
            # the first pair's numerator is 0, so b^T z stays <= 0 and only
            # the pair count refuses the file
            pytest.param("pairs", lambda z: z[1:], id="pairs-first-removed"),
        ],
    )
    def test_malformed_certificate_is_refused(
        self, entry, malform, tmp_path, monkeypatch
    ):
        certificate = read_certificate(2, 2)
        certificate[entry] = malform(certificate[entry])
        write_certificate(tmp_path, certificate)
        monkeypatch.setattr(graphs, "DUALS_DIR", str(tmp_path))
        assert assert_same_search(build_graph(2, 2), cap=2) == (1, 142)

    @pytest.mark.parametrize("g,d,m", [(2, 2, 1), (2, 2, 2), (3, 2, 1)])
    def test_zero_certificate_keeps_every_walk(self, g, d, m, tmp_path, monkeypatch):
        # z = 0 holds on every graph and prices every walk at 0, so the
        # kept lists are the full ones
        graph = build_graph(g, d, m)
        words = all_words(g, 2 * d)
        _, walks_by_word = graphs._candidate_walks(graph, words)
        certificate = read_certificate(g, d)
        for entry in ("words", "pairs"):
            certificate[entry] = [0] * len(certificate[entry])
        certificate["edges"] = []
        write_certificate(tmp_path, certificate)
        monkeypatch.setattr(graphs, "DUALS_DIR", str(tmp_path))
        fixed = graphs._fix_reduced_costs(graph, walks_by_word)
        assert fixed is not walks_by_word
        assert fixed == walks_by_word

    def test_missing_certificate_is_the_full_search(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graphs, "DUALS_DIR", str(tmp_path))
        assert read_certificate(2, 2) is None
        assert assert_same_search(build_graph(2, 2), cap=2) == (1, 142)


def load_writer():
    """`tools/dual_certificates.py` as a module; scipy loads only in `solve`."""
    path = Path(__file__).resolve().parent.parent / "tools" / "dual_certificates.py"
    spec = importlib.util.spec_from_file_location("dual_certificates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWriterCheck:
    """The certificate writer's exact check (A^T z >= c' and b^T z <= 0)
    accepts every shipped file and refuses what the search refuses."""

    @pytest.mark.parametrize("g,d", SHIPPED)
    def test_accepts_every_shipped_level(self, g, d):
        writer = load_writer()
        for m in (1, 2):
            assert writer.check(g, d, m, read_certificate(g, d))

    @pytest.mark.parametrize(
        "entry,malform",
        [
            pytest.param("denominator", lambda den: -den, id="negated-denominator"),
            pytest.param("words", lambda z: z[:-1], id="short-words"),
            pytest.param("pairs", lambda z: z[:-1], id="short-pairs"),
            pytest.param("pairs", lambda z: z[1:], id="first-pair-removed"),
            # with denominator 1: the first word's certificate walk at cost
            # -1, and b^T z raised from 0 to m
            pytest.param("words", lambda z: [z[0] - 1, *z[1:]], id="negative-cost"),
            pytest.param("words", lambda z: [z[0] + 1, *z[1:]], id="positive-b-z"),
        ],
    )
    def test_refuses_what_the_search_refuses(self, entry, malform):
        writer = load_writer()
        certificate = read_certificate(2, 2)
        assert certificate["denominator"] == 1
        certificate[entry] = malform(certificate[entry])
        for m in (1, 2):
            assert not writer.check(2, 2, m, certificate)
