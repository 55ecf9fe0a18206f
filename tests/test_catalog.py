import random
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog_reference import generate_graphs
from strategies import graphs
from tensorcut.catalog import all_graphs, canonical_key, connected_graphs, is_isomorphic
from tensorcut.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    join,
)


def test_enumeration_counts():
    # published counts of graphs / connected graphs per order
    assert [len(all_graphs(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    assert [len(connected_graphs(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_enumeration_is_deterministic():
    # the stored table reproduces the generator exactly: same labelling, same order
    for n in range(1, 7):
        assert all_graphs(n) == generate_graphs(n)
    assert all_graphs(5) is all_graphs(5)


def test_order_7_table_is_consistent():
    # generating order 7 takes seconds, so the table is checked by cheaper means
    row = all_graphs(7)
    assert len(row) == 1044
    keys = [canonical_key(g) for g in row]
    assert len(set(keys)) == len(row)
    assert [(len(g.edges), k) for g, k in zip(row, keys)] == sorted(
        (len(g.edges), k) for g, k in zip(row, keys))
    assert sum(g.is_connected() for g in row) == 853
    # each graph extends a graph of order 6 by vertex 6, as the generator builds it
    order_6 = set(all_graphs(6))
    for g in row:
        assert Graph(6, {e for e in g.edges if 6 not in e}) in order_6


def test_enumeration_order_cap():
    with pytest.raises(ValueError):
        all_graphs(8)
    with pytest.raises(ValueError):
        all_graphs(0)


@settings(max_examples=100)
@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_canonical_key_relabel_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph(g.n, {(perm[u], perm[v]) for u, v in g.edges})
    assert canonical_key(g) == canonical_key(h)


def test_canonical_key_matches_full_permutation_scan():
    rng = random.Random(42)
    cases = [rng.choice(all_graphs(rng.randint(2, 5))) for _ in range(40)]
    # symmetric graphs, whose twin classes the search collapses
    cases += [complete_graph(n) for n in range(2, 7)]
    cases += [empty_graph(n) for n in range(2, 7)]
    cases += [complete_bipartite_graph(a, b) for a in range(1, 4) for b in range(a, 7 - a)]
    cases += [reduce(join, map(empty_graph, parts)) for parts in
              [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 1, 2), (1, 1, 3), (1, 2, 3)]]
    for g in cases:
        n = g.n
        best = None
        for perm in permutations(range(n)):
            bits = 0
            for col in range(1, n):
                for row in range(col):
                    bits = (bits << 1) | g.has_edge(perm[row], perm[col])
            best = bits if best is None else min(best, bits)
        assert canonical_key(g) == best


def test_isomorphism_examples():
    assert not is_isomorphic(cycle_graph(6),
                             disjoint_union(complete_graph(3), complete_graph(3)))
    assert is_isomorphic(cycle_graph(4), Graph(4, {(0, 2), (2, 1), (1, 3), (3, 0)}))
    assert not is_isomorphic(complete_graph(3), complete_graph(4))
    # symmetric graphs at the size limit
    assert is_isomorphic(complete_graph(10), complete_graph(10))
    assert is_isomorphic(empty_graph(10), empty_graph(10))
    # both 4-regular with 20 edges; only the first is connected
    crown = Graph(10, {(i, 5 + j) for i in range(5) for j in range(5) if i != j})
    assert not is_isomorphic(crown, disjoint_union(complete_graph(5), complete_graph(5)))


def test_isomorphism_size_guard():
    with pytest.raises(ValueError):
        is_isomorphic(complete_graph(11), complete_graph(11))
