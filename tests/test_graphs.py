import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import broken_paths, graphs
from tensorcut.catalog import all_graphs
from tensorcut.graphs import (
    Graph,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    join,
    matching_graph,
    path_graph,
    remove_edges,
)


def test_degree_examples():
    assert complete_graph(4).degree(0) == 3
    assert cycle_graph(5).degree(2) == 2
    assert path_graph(3).degree(0) == 1
    assert path_graph(3).degree(1) == 2


def test_degree_rejects_out_of_range():
    with pytest.raises(ValueError):
        complete_graph(3).degree(3)
    with pytest.raises(ValueError):
        complete_graph(3).degree(-1)


def test_min_degree_examples():
    assert complete_graph(4).min_degree() == 3
    assert complete_bipartite_graph(1, 3).min_degree() == 1
    k3 = join(empty_graph(1), matching_graph(1))
    assert k3 == complete_graph(3)
    assert k3.min_degree() == 2


@settings(max_examples=60)
@given(st.one_of(graphs(max_n=9), broken_paths()))
def test_degrees_match_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    want = [d for _, d in sorted(nxg.degree)]
    assert list(g.degrees) == [g.degree(v) for v in range(g.n)] == want
    assert g.min_degree() == min(want)
    with pytest.raises(ValueError, match="out of range"):
        g.degree(g.n)
    with pytest.raises(ValueError, match="out of range"):
        g.degree(-1)


@pytest.mark.parametrize("n", [1, 2, 5, 70])
def test_degrees_of_edgeless_graphs(n):
    # K_1 included: every degree and the least one are 0
    g = Graph(n)
    assert g.degrees == (0,) * n
    assert g.degree(n - 1) == 0 and g.min_degree() == 0


def test_empty_graph_operations_rejected():
    g = Graph(0)
    assert g.degrees == ()
    with pytest.raises(ValueError):
        g.min_degree()
    with pytest.raises(ValueError):
        g.degree(0)
    with pytest.raises(ValueError):
        g.is_connected()


def test_edge_count_examples():
    assert complete_graph(5).edge_count() == 10
    assert cycle_graph(6).edge_count() == 6
    # join of 3 isolated vertices with 2 disjoint edges: 3*4 cross + 2
    g = join(empty_graph(3), matching_graph(2))
    assert g.edge_count() == 14
    assert all(g.degree(v) == 4 for v in range(7))


def test_is_connected_examples():
    assert cycle_graph(7).is_connected()
    assert not matching_graph(2).is_connected()
    assert Graph(1).is_connected()


def test_is_bipartite_examples():
    assert cycle_graph(6).is_bipartite()
    assert not complete_graph(3).is_bipartite()
    assert complete_bipartite_graph(3, 4).is_bipartite()


def test_cached_connectivity_leaves_equality_and_hash_alone():
    asked, fresh = cycle_graph(5), cycle_graph(5)
    assert asked.is_connected() and not asked.is_bipartite()
    assert asked == fresh and hash(asked) == hash(fresh)
    assert {asked: 1}[fresh] == 1
    # the fresh graph finds its own answers
    assert fresh.is_connected() and not fresh.is_bipartite()


def test_remove_edges_gets_its_own_connectivity():
    g = cycle_graph(6)
    assert g.is_connected() and g.is_bipartite()
    cut = remove_edges(g, {(0, 1), (3, 4)})
    assert cut is not g
    assert not cut.is_connected() and cut.is_bipartite()
    assert g.is_connected()
    odd = remove_edges(complete_graph(4), {(0, 1)})
    assert odd.is_connected() and not odd.is_bipartite()


def test_validation():
    with pytest.raises(ValueError):
        Graph(3, {(1, 1)})
    with pytest.raises(ValueError):
        Graph(3, {(0, 3)})
    with pytest.raises(ValueError):
        Graph(-1)
    # unordered pairs normalize and collapse
    assert Graph(3, {(2, 0)}) == Graph(3, {(0, 2)})
    assert Graph(3, [(0, 1), (1, 0)]).edge_count() == 1
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        complete_bipartite_graph(0, 3)
    with pytest.raises(ValueError):
        matching_graph(0)


def test_remove_edges():
    g = cycle_graph(4)
    assert remove_edges(g, {(0, 1)}).edge_count() == 3
    with pytest.raises(ValueError):
        remove_edges(g, {(0, 2)})


def test_disjoint_union_shifts_ids():
    g = disjoint_union(complete_graph(2), complete_graph(2))
    assert g.edges == frozenset({(0, 1), (2, 3)})
    assert g == matching_graph(2)
    assert not g.is_connected()


@given(graphs())
def test_handshake(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count()


@given(graphs(min_n=1, max_n=5), graphs(min_n=1, max_n=5))
def test_join_edge_count(a, b):
    assert join(a, b).edge_count() == a.edge_count() + b.edge_count() + a.n * b.n


def _bipartite_bruteforce(g: Graph) -> bool:
    # independent oracle: try every 2-coloring
    for bits in range(1 << g.n):
        if all((bits >> u & 1) != (bits >> v & 1) for u, v in g.edges):
            return True
    return g.n == 0


def test_bipartite_matches_bruteforce_exhaustively():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert g.is_bipartite() == _bipartite_bruteforce(g)


@settings(max_examples=60)
@given(graphs(max_n=8))
def test_bipartite_matches_bruteforce_random(g):
    assert g.is_bipartite() == _bipartite_bruteforce(g)


def _check_traversal(g: Graph) -> None:
    # components, connectivity and bipartiteness against networkx
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    labels = g.component_labels()
    parts = {frozenset(v for v in range(g.n) if labels[v] == c) for c in set(labels)}
    assert parts == {frozenset(c) for c in nx.connected_components(nxg)}
    # labels number the components in order of their least vertex
    assert list(dict.fromkeys(labels)) == list(range(len(parts)))
    assert g.component_count() == len(parts)
    # the second call reads the answer the first one found
    for _ in range(2):
        assert g.is_connected() == nx.is_connected(nxg)
        assert g.is_bipartite() == nx.is_bipartite(nxg)


@settings(max_examples=100, deadline=None)
@given(broken_paths(max_n=130))
def test_traversal_matches_networkx(g):
    _check_traversal(g)


@pytest.mark.parametrize("n", [70, 130])
def test_traversal_on_long_paths_and_cycles(n):
    # the masks, and the double cover's 2n bits, span several 64-bit words;
    # the last odd cycle lies wholly above the first word
    low_odd = disjoint_union(cycle_graph(n - 1), Graph(1))
    high_odd = disjoint_union(path_graph(65), cycle_graph(n - 65))
    for g, count, bipartite in [(path_graph(n), 1, True), (cycle_graph(n), 1, True),
                                (low_odd, 2, False), (high_odd, 2, False)]:
        _check_traversal(g)
        assert (g.component_count(), g.is_bipartite()) == (count, bipartite)


@given(graphs(max_n=6))
def test_complement_involution(g):
    assert complement(complement(g)) == g
    full = g.n * (g.n - 1) // 2
    assert complement(g).edge_count() == full - g.edge_count()
