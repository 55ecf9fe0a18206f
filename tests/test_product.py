import random
from itertools import chain, combinations

import networkx as nx
import pytest
from hypothesis import example, given, settings

from strategies import dense_factors, graphs
from tensorcut.catalog import all_graphs, is_isomorphic
from tensorcut.graphs import (
    Graph,
    boundary,
    complete_graph,
    cycle_graph,
    path_graph,
    remove_edges,
)
from tensorcut.product import (
    direct_product,
    fiber,
    fibers_contained,
    format_product_cut,
    induced_cut,
    lifted_edges,
    parse_product_cut,
    product_connected,
    vertex_id,
    vertex_pair,
)

K2 = complete_graph(2)
K3 = complete_graph(3)
K4 = complete_graph(4)


def two_triangles_with_bridge() -> Graph:
    return Graph(6, {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)})


def test_product_examples():
    p = direct_product(K2, K2)
    assert p.n == 4 and p.edge_count() == 2 and not p.is_connected()

    assert is_isomorphic(direct_product(K2, K3), cycle_graph(6))

    p = direct_product(cycle_graph(4), K3)
    assert p.n == 12 and p.edge_count() == 24


def test_product_rejects_empty_factor():
    with pytest.raises(ValueError):
        direct_product(Graph(0), K3)


def test_linearization_bijection():
    h_order = 5
    ids = {vertex_id(x, u, h_order) for x in range(3) for u in range(h_order)}
    assert ids == set(range(15))
    for pid in range(15):
        x, u = vertex_pair(pid, h_order)
        assert vertex_id(x, u, h_order) == pid
    assert list(fiber(2, 5)) == [10, 11, 12, 13, 14]


@settings(max_examples=60)
@given(graphs(min_n=1, max_n=6), graphs(min_n=1, max_n=6))
def test_product_edge_count_and_degrees(g, h):
    p = direct_product(g, h)
    assert p.n == g.n * h.n
    assert p.edge_count() == 2 * g.edge_count() * h.edge_count()
    for x in range(g.n):
        for u in range(h.n):
            assert p.degree(vertex_id(x, u, h.n)) == g.degree(x) * h.degree(u)


@settings(max_examples=80)
@given(graphs(min_n=1, max_n=6), graphs(min_n=1, max_n=6))
@example(Graph(3), complete_graph(3))
@example(complete_graph(3), Graph(2))
@example(Graph(1), Graph(1))
def test_product_equals_networkx_tensor_product(g, h):
    nx_g, nx_h = nx.Graph(), nx.Graph()
    nx_g.add_nodes_from(range(g.n))
    nx_g.add_edges_from(g.edges)
    nx_h.add_nodes_from(range(h.n))
    nx_h.add_edges_from(h.edges)
    ref = nx.tensor_product(nx_g, nx_h)
    ids = {(x, u): vertex_id(x, u, h.n) for x, u in ref.nodes}
    assert sorted(ids.values()) == list(range(g.n * h.n))
    expected = {tuple(sorted((ids[a], ids[b]))) for a, b in ref.edges}
    assert direct_product(g, h) == Graph(g.n * h.n, expected)


def test_product_connected_exhaustive_small():
    for gn in range(2, 5):
        for hn in range(2, 5):
            for g in all_graphs(gn):
                for h in all_graphs(hn):
                    assert product_connected(g, h) == direct_product(g, h).is_connected()


def test_product_connected_examples():
    assert not product_connected(K2, K2)
    assert product_connected(K2, K3)
    assert product_connected(cycle_graph(5), cycle_graph(5))
    assert direct_product(cycle_graph(5), cycle_graph(5)).is_connected()
    with pytest.raises(ValueError):
        product_connected(Graph(1), K3)


def test_induced_cut_examples():
    cut = induced_cut({(0, 1)}, K2, K3)
    assert len(cut) == 6
    # removing every lifted edge leaves the two fibers with no edges between them
    rem = remove_edges(direct_product(K2, K3), cut)
    assert rem.edge_count() == 0

    assert induced_cut(set(), K2, K3) == frozenset()

    g = two_triangles_with_bridge()
    cut = induced_cut({(0, 3)}, g, K4)
    assert len(cut) == 2 * 1 * 6
    assert not remove_edges(direct_product(g, K4), cut).is_connected()


def test_induced_cut_rejects_bad_inputs():
    with pytest.raises(ValueError):
        induced_cut({(0, 2)}, path_graph(3), K3)  # not an edge of g
    with pytest.raises(ValueError):
        induced_cut({(0, 1)}, K2, Graph(3))  # edgeless h


def _edge_subsets(edges):
    edges = sorted(edges)
    return chain.from_iterable(combinations(edges, k) for k in range(len(edges) + 1))


def test_induced_cut_removal_is_factor_deletion():
    # removing the lift of s0 from g x h gives exactly (g - s0) x h
    for g in (path_graph(3), cycle_graph(4), two_triangles_with_bridge()):
        for s0 in _edge_subsets(g.edges):
            cut = induced_cut(s0, g, K3)
            assert len(cut) == 2 * len(s0) * 3
            left = remove_edges(direct_product(g, K3), cut)
            right = direct_product(remove_edges(g, s0), K3)
            assert left == right


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=5), dense_factors(max_n=5))
def test_induced_cut_of_a_side_is_the_boundary_of_its_fibers(g, h):
    # the lift of delta_G(S) is delta of the union of the fibers over S
    product = direct_product(g, h)
    fiber_mask = (1 << h.n) - 1
    for side in range(1 << g.n):
        fibers = sum(fiber_mask << x * h.n for x in range(g.n) if side >> x & 1)
        assert induced_cut(boundary(g, side), g, h) == boundary(product, fibers)


def test_fibers_contained_examples():
    assert fibers_contained(K2, K3, frozenset())

    # sampled small cuts below the degree bound never split a fiber
    prod = direct_product(K3, K4)
    edges = sorted(prod.edges)
    rng = random.Random(0)
    for _ in range(50):
        size = rng.randrange(6)  # delta(K3)*delta(K4) = 6
        cut = frozenset(rng.sample(edges, size))
        assert fibers_contained(K3, K4, cut)

    # the two product edges above one K3-edge split both fibers of K2 x K3
    cut = frozenset({(vertex_id(0, 1, 3), vertex_id(1, 2, 3)),
                     (vertex_id(0, 2, 3), vertex_id(1, 1, 3))})
    assert not fibers_contained(K2, K3, cut)

    with pytest.raises(ValueError):
        fibers_contained(K2, K3, {(0, 1)})  # (0,1) is within a fiber, not a product edge


@settings(max_examples=40)
@given(graphs(min_n=2, max_n=4), dense_factors(max_n=5))
def test_lifted_edges_are_product_edges(g, h):
    prod = direct_product(g, h)
    for e in g.edges:
        lift = lifted_edges(e, g, h)
        assert len(lift) == 2 * h.edge_count()
        assert lift <= prod.edges


def test_lifted_edges_rejects_a_non_edge():
    with pytest.raises(ValueError, match=r"\(0,2\) is not an edge"):
        lifted_edges((2, 0), path_graph(3), K3)


def test_cut_text_format_round_trip():
    g = two_triangles_with_bridge()
    cut = induced_cut({(0, 3)}, g, K3)
    text = format_product_cut(cut, 3)
    assert parse_product_cut(text, g.n, 3) == cut
    lines = text.splitlines()
    assert all(len(line.split()) == 2 for line in lines)


def test_cut_text_format_bad_line():
    with pytest.raises(ValueError):
        parse_product_cut("0,1 nonsense", 2, 3)
    # coordinates outside the 2 x 3 grid would alias other vertices or lie
    # past the product: (0,3) would read as (1,0), (-1,2) as (0,-1), and
    # (2,0) as vertex 6 of 0..5
    for text in ("0,3 0,1", "0,1 1,-1", "-1,2 0,1", "0,1 -1,0", "2,0 0,1", "0,1 2,2"):
        with pytest.raises(ValueError, match="bad cut line 1"):
            parse_product_cut(text, 2, 3)
    with pytest.raises(ValueError, match="bad cut line 2"):
        parse_product_cut("0,0 1,1\n0,4 0,0", 2, 3)
    # a line that names one point twice is a self-loop, not an edge
    with pytest.raises(ValueError, match="bad cut line 1: '0,0 0,0'"):
        parse_product_cut("0,0 0,0", 2, 3)
    assert parse_product_cut("0,2 1,0", 2, 3) == {(2, 3)}


def test_cut_text_format_skips_blank_lines():
    assert parse_product_cut("\n0,2 1,0\n  \n\n1,1 0,0\n", 2, 3) == {(2, 3), (0, 4)}
