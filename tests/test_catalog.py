import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import graphs
from tensorcut import catalog
from tensorcut.catalog import all_graphs, canonical_key, connected_graphs, is_isomorphic
from tensorcut.graphs import Graph, complete_graph, cycle_graph, disjoint_union


def test_enumeration_counts():
    # published counts of graphs / connected graphs per order
    assert [len(all_graphs(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    assert [len(connected_graphs(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_enumeration_is_deterministic(monkeypatch):
    first = all_graphs(5)
    # rebuild orders 1..5 from scratch, leaving the shared caches untouched
    monkeypatch.setattr(catalog, "all_graphs", all_graphs.__wrapped__)
    assert catalog.all_graphs(5) == first
    assert all_graphs(5) is first


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
    for _ in range(40):
        n = rng.randint(2, 5)
        g = rng.choice(all_graphs(n))
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


def test_isomorphism_size_guard():
    with pytest.raises(ValueError):
        is_isomorphic(complete_graph(11), complete_graph(11))
