"""Recursive labeled multigraphs and their edge-disjoint walk partitions.

The level-d graph on g**d vertices is built by scaling every edge of the
level-(d-1) graph by g^2, then attaching, for each vertex i <= g**(d-1),
2*g**d loops labeled 1 and g**d edges each way between i and
i + (k-1)*g**(d-1) labeled k for k = 2..g.  The whole edge multiset (scaled
by an optional factor m) decomposes into m walks of length 2d from i to j
for every ordered vertex pair (i, j), realizing every degree-2d word exactly
m times -- and it does so in exactly one way, which the backtracking counter
below verifies exhaustively.

Before it searches, the counter drops every walk that a checked-in LP dual
certificate prices above zero (reduced-cost fixing).  The certificate of
level (g, d) is a rational z over the graph's rows, one per word, one per
ordered vertex pair and one per edge, stored as integer numerators over one
positive common denominator in `duals/g{g}d{d}.json`.  Each run checks it
against this graph's own rows: if every candidate walk w has reduced cost
(A^T z)_w >= 0 and b^T z <= 0, then for every partition x,
0 <= sum_w x_w (A^T z)_w = b^T z <= 0, so no partition uses a walk of
positive reduced cost, and the count stays exact.  A graph without a
certificate, or one that fails the check, is searched over all its walks.
`tools/dual_certificates.py` writes the certificates.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from operator import itemgetter

from .errors import BudgetExceeded, InvalidInput, TooLarge
from .words import (
    all_words,
    check_alphabet_size,
    entry_variable_chain,
    record,
)

# Largest vertex count g**d that `build_graph` accepts.  A `graph` CLI job
# (wall time / max RSS, 2 cores) takes 0.79 s / 71 MB at g = 2, d = 14,
# 2.1 s / 221 MB at g = 2, d = 16 (1.7 s / 180 MB at g = 256, d = 2) and
# 11 s / 823 MB at g = 2, d = 18.
GRAPH_MAX_VERTICES = 2**16


@record
class LabeledMultigraph:
    """Directed multigraph on vertices 1..g**d with labels in [1, g]."""

    g: int
    d: int
    m: int
    edges: dict[tuple[int, int, int], int]  # (source, target, label) -> mult

    @property
    def n_vertices(self) -> int:
        return self.g**self.d

    def label_counts(self) -> Counter[int]:
        counts: Counter[int] = Counter()
        for (_, _, label), mult in self.edges.items():
            counts[label] += mult
        return counts

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "d": self.d,
            "m": self.m,
            "edges": [
                {"from": u, "to": v, "label": label, "mult": mult}
                for (u, v, label), mult in sorted(self.edges.items())
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph walks {"]
        for (u, v, label), mult in sorted(self.edges.items()):
            style = "dashed" if label == 1 else "solid"
            lines.append(
                f'  {u} -> {v} [label="x{label} *{mult}", style={style}];'
            )
        lines.append("}")
        return "\n".join(lines)


def check_graph_size(g: int, d: int) -> None:
    """Raise TooLarge when g exceeds MAX_G or g**d exceeds GRAPH_MAX_VERTICES.

    The vertex count is multiplied up one level at a time, so a huge d is
    refused without forming g**d.
    """
    check_alphabet_size(g)
    vertices = 1
    for _ in range(d):
        vertices *= g
        if vertices > GRAPH_MAX_VERTICES:
            raise TooLarge(
                f"graphs are capped at g**d <= {GRAPH_MAX_VERTICES} vertices; "
                f"got g = {g}, d = {d}"
            )


def build_graph(g: int, d: int, m: int = 1) -> LabeledMultigraph:
    """The level-d graph with all multiplicities scaled by m.

    Raises TooLarge, before any edge exists, past `check_graph_size`.
    """
    if g < 2 or d < 0 or m < 1:
        raise InvalidInput(f"need g >= 2, d >= 0, m >= 1; got ({g}, {d}, {m})")
    check_graph_size(g, d)
    edges: Counter[tuple[int, int, int]] = Counter()
    for level in range(1, d + 1):
        for key in edges:
            edges[key] *= g * g
        h = g ** (level - 1)
        new = g**level
        for i in range(1, h + 1):
            edges[(i, i, 1)] += 2 * new
            for k in range(2, g + 1):
                j = i + (k - 1) * h
                edges[(i, j, k)] += new
                edges[(j, i, k)] += new
    if m > 1:
        for key in edges:
            edges[key] *= m
    return LabeledMultigraph(g, d, m, dict(edges))


def derive_walks_from_certificate(
    graph: LabeledMultigraph,
) -> dict[tuple[int, int], tuple[tuple[tuple[int, int, int], ...], ...]]:
    """Unfold the certificate factors into the graph's canonical walk partition.

    A walk is the tuple of the graph's edge keys (source, target, label) it
    traverses, and the partition maps every ordered vertex pair (i, j) to
    its walks.  Each variable (k, a, b) of the chain at position (i, j) of
    the side g**d grid is the edge (a, b, k).  The chain lists an opening
    and a closing variable per level, outermost first; the walk takes the
    openings in that order and then the closings in reverse, giving a walk
    of length 2d from i to j whose word is the grid entry (i, j).  Every
    pair carries the graph's m copies of its walk; at d = 0 that is m empty
    walks at (1, 1).
    """
    n_side = graph.n_vertices
    walks = {}
    for i in range(1, n_side + 1):
        for j in range(1, n_side + 1):
            chain = entry_variable_chain(n_side, graph.g, i, j)
            walk = tuple((a, b, k) for k, a, b in chain[0::2] + chain[-1::-2])
            walks[(i, j)] = (walk,) * graph.m
    return walks


def verify_partition(graph: LabeledMultigraph, walks: dict) -> bool:
    """Whether `walks` (pair (i, j) -> walks as edge-key tuples) partitions the graph.

    The dict holds exactly the n^2 ordered vertex pairs, each with m walks
    that start at i, end at j and whose consecutive edges meet; the walks
    use every edge exactly as often as its multiplicity, and their words
    cover every word of length 2d exactly m times.  A walk of another
    length reads a word that the coverage never expects.
    """
    side = range(1, graph.n_vertices + 1)
    if walks.keys() != {(i, j) for i in side for j in side}:
        return False
    edges: Counter[tuple[int, int, int]] = Counter()
    words: Counter[tuple[int, ...]] = Counter()
    for (i, j), ws in walks.items():
        if len(ws) != graph.m:
            return False
        for walk in ws:
            if [i, *(v for _, v, _ in walk)] != [*(u for u, _, _ in walk), j]:
                return False
            edges.update(walk)
            words[tuple(label for _, _, label in walk)] += 1
    return edges == Counter(graph.edges) and words == Counter(
        dict.fromkeys(all_words(graph.g, 2 * graph.d), graph.m)
    )


class _Saturated(Exception):
    pass


# candidate walks (summed over all words) the search stores before it
# refuses the graph: g = 2, d = 4 stores 181,722 (~30 MB), and g = 2, d = 5
# stops here
CANDIDATE_WALKS_MAX = 250_000
# walks one partition places, g^(2d) * m, that the search accepts.  It
# recurses once per placed walk, and at the CLI under the default recursion
# limit of 1000 frames it broke at 996 walks (g = 2, d = 1, m = 249) with a
# RecursionError; the cap leaves callers ~230 frames and admits g = 3, d = 3
# (729 walks).
SEARCH_MAX_WALKS = 768

# where the dual certificate of level (g, d) lives, as g{g}d{d}.json: its
# positive "denominator", and integer numerators for the "words" (in the
# order of `all_words`), the "pairs" (row-major, (1, 1), (1, 2), ...) and
# the "edges", each as [source, target, label, z]; an edge of the graph that
# the file does not list has z = 0
DUALS_DIR = os.path.join(os.path.dirname(__file__), "duals")


def _candidate_walks(
    graph: LabeledMultigraph, words: list[tuple[int, ...]]
) -> tuple[list[int], list[list[tuple]]]:
    """Edge multiplicities by edge id, and every word's walks in the full graph.

    A walk is (pair index, ((edge id, uses), ...)): its pair index is
    (start - 1) * n_side + (end - 1), and its edges come in the order the
    walk first uses them.  Each word's walks are built in one layered pass,
    every partial walk extended by one letter at a time from every start
    vertex, targets ascending; a finished walk that uses an edge more often
    than its multiplicity is dropped.  The walks come in pair order, and in
    (start, steps) lexicographic order inside a pair, which is the order the
    search tries them in.
    """
    n_side = graph.n_vertices
    keys = sorted(graph.edges)
    mult = [graph.edges[key] for key in keys]
    min_mult = min(mult, default=0)
    # adjacency by (source, label), targets ascending for canonical order
    adj: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for edge, (u, v, label) in enumerate(keys):
        adj.setdefault((u, label), []).append((v, edge))
    # one shared tuple per distinct (edge id, uses): a stored walk of
    # length 8 then takes ~160 bytes
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    stored = 0
    walks_by_word = []
    for letters in words:
        # (start, position, edge ids) in (start, steps) lexicographic order
        layer = [(start, start, ()) for start in range(1, n_side + 1)]
        for letter in letters:
            layer = [
                (start, target, edges + (edge,))
                for start, pos, edges in layer
                for target, edge in adj.get((pos, letter), ())
            ]
        # a walk uses no edge more often than it has letters, so only a
        # smaller multiplicity can drop one
        check = min_mult < len(letters)
        walks = []
        for start, end, edges in layer:
            usage = Counter(edges).items()
            if check and any(uses > mult[edge] for edge, uses in usage):
                continue
            steps = tuple(map(shared.setdefault, usage, usage))
            walks.append(((start - 1) * n_side + end - 1, steps))
        # stable, so each pair's walks keep their (start, steps) order
        walks.sort(key=itemgetter(0))
        stored += len(walks)
        if stored > CANDIDATE_WALKS_MAX:
            raise TooLarge(
                f"the partition search is capped at {CANDIDATE_WALKS_MAX} "
                f"candidate walks; this graph's walks of length {len(letters)} "
                "number more"
            )
        walks_by_word.append(walks)
    return mult, walks_by_word


def _reduced_costs(
    graph: LabeledMultigraph, walks_by_word: list[list[tuple]], cert: dict
) -> tuple[int, list[list[int]]] | None:
    """b^T z and each word's walk costs (A^T z)_w, or None if cert does not fit.

    Works in the certificate's integer numerators, which have the signs of
    z when its denominator is positive: b^T z from this graph's rows (m per
    word, m per pair, each edge's multiplicity), and (A^T z)_w for every
    walk of `walks_by_word`, in its order.  A certificate with a
    denominator below 1, or without one word entry per list of
    `walks_by_word` and one pair entry per ordered vertex pair, gives None.
    """
    z_words, z_pairs = cert["words"], cert["pairs"]
    if (
        cert["denominator"] < 1
        or len(z_words) != len(walks_by_word)
        or len(z_pairs) != graph.n_vertices**2
    ):
        return None
    z_listed = {(u, v, label): z for u, v, label, z in cert["edges"]}
    keys = sorted(graph.edges)
    z_edges = [z_listed.get(key, 0) for key in keys]
    b_z = graph.m * (sum(z_words) + sum(z_pairs)) + sum(
        graph.edges[key] * z for key, z in zip(keys, z_edges)
    )
    costs_by_word = []
    for z_word, walks in zip(z_words, walks_by_word):
        costs = []
        for pair, steps in walks:
            # an explicit loop: sum() over a generator per walk made the
            # whole search 5-10% slower
            cost = z_word + z_pairs[pair]
            for edge, uses in steps:
                cost += uses * z_edges[edge]
            costs.append(cost)
        costs_by_word.append(costs)
    return b_z, costs_by_word


def _fix_reduced_costs(
    graph: LabeledMultigraph, walks_by_word: list[list[tuple]]
) -> list[list[tuple]]:
    """Each word's walks of zero reduced cost, if the level's certificate holds.

    Returns `walks_by_word` itself when there is no certificate for (g, d),
    when `_reduced_costs` finds that its shape does not fit the graph, when
    b^T z > 0, or when some walk has (A^T z)_w < 0.  The kept walks keep
    their order.
    """
    try:
        with open(os.path.join(DUALS_DIR, f"g{graph.g}d{graph.d}.json")) as fh:
            cert = json.load(fh)
    except FileNotFoundError:
        return walks_by_word
    priced = _reduced_costs(graph, walks_by_word, cert)
    if priced is None or priced[0] > 0:
        return walks_by_word
    fixed = []
    for walks, costs in zip(walks_by_word, priced[1]):
        if min(costs, default=0) < 0:
            return walks_by_word
        fixed.append([walk for walk, cost in zip(walks, costs) if not cost])
    return fixed


def enumerate_partitions(
    graph: LabeledMultigraph, cap: int, budget: int = 100_000_000
) -> int:
    """Count walk partitions of the graph by exhaustive backtracking.

    Every word's walks in the full graph are listed once up front, and
    `_fix_reduced_costs` keeps only those of zero reduced cost when the
    level's dual certificate passes its exact check on this graph: every
    walk's (A^T z)_w >= 0 and b^T z <= 0 (see the module docstring).
    Without a certificate, or when the check fails, every walk stays.  Words
    are assigned most constrained first: by the number of vertex pairs their
    walks reach, then by their number of walks, ties in decreasing
    lexicographic order.  This static order is tuned for `build_graph`
    graphs; on other graphs it can expand far more nodes than the plain
    decreasing lexicographic order.  Each word's m walks are chosen in
    nondecreasing (start, end, steps) order so that partitions are counted
    as multisets; any fixed word order counts each one exactly once.  After
    the word sort each walk gets the index just past its pair's run, and a
    search node filters its word's list against the residual edge and pair
    counts, skipping the rest of a full pair's run in one step.  A node is
    one partial partition expanded, i.e. one call of `extend`, leaves
    included.  On every `build_graph` level that ships a certificate it
    keeps one walk per word, so the search places the g^(2d) * m walks in
    that many nodes plus one.  The count saturates at `cap`; expanding more
    than `budget` nodes raises BudgetExceeded instead of returning a count.
    A negative budget raises InvalidInput, and a partition of more than
    SEARCH_MAX_WALKS walks or a graph with more than CANDIDATE_WALKS_MAX
    candidate walks raises TooLarge, all before the search.
    """
    if cap < 2:
        raise InvalidInput(f"cap must be >= 2, got {cap}")
    if budget < 0:
        raise InvalidInput(f"budget must be >= 0, got {budget}")
    m = graph.m
    if graph.g ** (2 * graph.d) * m > SEARCH_MAX_WALKS:
        raise TooLarge(
            f"the partition search is capped at g^(2d) * m <= {SEARCH_MAX_WALKS} "
            f"walks; got g = {graph.g}, d = {graph.d}, m = {m}"
        )
    words = all_words(graph.g, 2 * graph.d)
    # every placed walk uses exactly its word's letters, so matching label
    # totals up front is the only label check the search needs
    need: Counter[int] = Counter()
    for letters in words:
        for letter in letters:
            need[letter] += m
    have = graph.label_counts()
    if {k: v for k, v in have.items() if v} != {k: v for k, v in need.items() if v}:
        return 0
    edges_rem, walks_by_word = _candidate_walks(graph, words)
    walks_by_word = _fix_reduced_costs(graph, walks_by_word)
    # stable, so ties keep the decreasing lexicographic order of `words`
    walks_by_word.sort(
        key=lambda walks: (len({pair for pair, _ in walks}), len(walks))
    )
    # a pair's walks are contiguous, so each walk carries the index just
    # past its pair's run
    for w, walks in enumerate(walks_by_word):
        run_end = {pair: idx + 1 for idx, (pair, _) in enumerate(walks)}
        walks_by_word[w] = [(pair, steps, run_end[pair]) for pair, steps in walks]
    pair_rem = [m] * graph.n_vertices**2
    n_words = len(words)
    nodes = 0
    count = 0

    def extend(word_idx: int, copy_idx: int, lo: int):
        nonlocal nodes, count
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes, budget)
        if word_idx == n_words:
            count += 1
            if count >= cap:
                raise _Saturated
            return
        walks = walks_by_word[word_idx]
        last = copy_idx + 1 == m
        # the next copy of this word restarts at this walk's index
        idx = lo
        end = len(walks)
        while idx < end:
            pair, steps, run_end = walks[idx]
            if not pair_rem[pair]:
                idx = run_end
                continue
            for edge, uses in steps:
                if edges_rem[edge] < uses:
                    break
            else:
                pair_rem[pair] -= 1
                for edge, uses in steps:
                    edges_rem[edge] -= uses
                if last:
                    extend(word_idx + 1, 0, 0)
                else:
                    extend(word_idx, copy_idx + 1, idx)
                pair_rem[pair] += 1
                for edge, uses in steps:
                    edges_rem[edge] += uses
            idx += 1

    try:
        extend(0, 0, 0)
    except _Saturated:
        pass
    return count
