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

Both then visit the same search tree, so their counts and their node counts
(oracle `search` calls, search nodes of `enumerate_partitions`) must agree.
The node count of `enumerate_partitions` is read off its budget: with
`budget = nodes` it finishes, and with `budget = nodes - 1` it raises
BudgetExceeded at node `nodes`.  On a tree larger than the budget, both
must stop at the same node.  With `most_constrained_first=False` the
oracle takes words in decreasing lexicographic order and walks in
(start, steps) order, a different tree with the same count.
"""

from __future__ import annotations

from collections import Counter

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
    scale_partition,
)
from sweepwords.words import all_words


class _Saturated(Exception):
    pass


def oracle_partitions(
    graph: LabeledMultigraph,
    cap: int,
    budget: int = 100_000_000,
    most_constrained_first: bool = True,
) -> tuple[int, int]:
    """(count, search calls) of the re-walking backtracker.

    Its budget counts `search` calls, not steps of the walk enumeration.
    """
    if cap < 2:
        raise InvalidInput(f"cap must be >= 2, got {cap}")
    g, d, m = graph.g, graph.d, graph.m
    n_side = graph.n_vertices
    words = [w.letters for w in all_words(g, 2 * d)]
    edges_rem: Counter[tuple[int, int, int]] = Counter(graph.edges)
    pair_rem = {
        (i, j): m
        for i in range(1, n_side + 1)
        for j in range(1, n_side + 1)
    }
    label_rem = graph.label_counts()
    adj: dict[tuple[int, int], list[int]] = {}
    for (u, v, label) in sorted(graph.edges):
        adj.setdefault((u, label), []).append(v)

    def candidate_walks(letters: tuple[int, ...]) -> list[tuple[int, tuple]]:
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
                if edges_rem[key] - usage[key] > 0:
                    usage[key] += 1
                    steps.append((target, letter))
                    walk(target, depth + 1, start)
                    steps.pop()
                    usage[key] -= 1

        for start in range(1, n_side + 1):
            walk(start, 0, start)
        return found

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
    """Equal counts and node counts of the search and the oracle.

    Returns (count, nodes), or None when both stop at node budget + 1.
    """
    try:
        count, nodes = oracle_partitions(graph, cap, budget)
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
        [i, j, [label for _, label in walk.steps], [v for v, _ in walk.steps[:-1]]]
        for (i, j), walks in sorted(
            scale_partition(derive_walks_from_certificate(n_side, g), m).walks.items()
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


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "g,d,m",
        [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (2, 2, 1), (2, 2, 2), (2, 2, 3)],
    )
    def test_finishing_graphs(self, g, d, m):
        count, nodes = assert_same_search(build_graph(g, d, m), cap=2)
        assert count == 1 and nodes > 0

    def test_level_two_scaled_by_three_node_count(self):
        # the uniqueness search of the graph-d2m3 benchmark workload
        assert enumerate_partitions(build_graph(2, 2, 3), cap=2, budget=15_054) == 1
        with pytest.raises(BudgetExceeded):
            enumerate_partitions(build_graph(2, 2, 3), cap=2, budget=15_053)

    def test_three_letters_level_two_is_unique(self):
        # 581 candidate walks; too many search nodes for the oracle
        assert enumerate_partitions(build_graph(3, 2), cap=2, budget=448_951) == 1
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_partitions(build_graph(3, 2), cap=2, budget=448_950)
        assert exc.value.nodes == 448_951

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
        # rest must stop at the same node
        result = assert_same_search(graph, cap, budget=PLANTED_BUDGET)
        outcome = "stopped at the budget" if result is None else f"count {result[0]}"
        event(f"g={graph.g} d={graph.d}: {outcome}")


class TestOrderIndependence:
    """The old order (words in decreasing lexicographic order, each word's
    walks in (start, steps) order) searches another tree to the same count."""

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
        event(f"g={graph.g} d={graph.d}: count {old}")
        assert count == old


class TestBounds:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("budget", [0, 1, 2, 7, 100])
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
