import networkx as nx
import pytest
from hypothesis import given, settings

from strategies import graphs
from tensorcut.catalog import all_graphs
from tensorcut.graph6 import Graph6Error, emit_graph6, parse_graph6, read_graph6
from tensorcut.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)


def test_k3_bytes():
    # n=3 -> byte 66 'B'; triangle bits 111 padded to 111000 -> byte 119 'w'
    assert emit_graph6(complete_graph(3)) == "Bw"
    assert parse_graph6("Bw") == complete_graph(3)


def test_header_is_stripped():
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)


def test_known_small_strings():
    assert emit_graph6(complete_graph(4)) == "C~"
    assert emit_graph6(path_graph(3)) == "Bg"
    assert emit_graph6(Graph(1)) == "@"


def _to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


@settings(max_examples=80)
@given(graphs(max_n=8))
def test_agrees_with_networkx(g):
    want = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
    assert emit_graph6(g) == want
    back = nx.from_graph6_bytes(emit_graph6(g).encode())
    assert Graph(back.number_of_nodes(), set(back.edges())) == g


def test_round_trip_on_enumerated_corpus():
    for n in range(1, 8):
        for g in all_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g


@settings(max_examples=80)
@given(graphs(max_n=8))
def test_round_trip_random(g):
    assert parse_graph6(emit_graph6(g)) == g
    # emitting what we parsed reproduces the original string
    s = emit_graph6(g)
    assert emit_graph6(parse_graph6(s)) == s


def test_long_form_orders():
    g = path_graph(63)
    s = emit_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g
    h = complete_bipartite_graph(40, 40)
    assert parse_graph6(emit_graph6(h)) == h


def test_six_byte_length_header():
    # emit_graph6 writes "~~" only past 258047 vertices, but any order may
    # be read in it
    assert parse_graph6("~~?????A_") == complete_graph(2)


def test_malformed_inputs():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("B")  # missing adjacency byte
    with pytest.raises(Graph6Error):
        parse_graph6("Bww")  # extra adjacency byte
    with pytest.raises(Graph6Error):
        parse_graph6("~B")  # truncated long-form header
    with pytest.raises(Graph6Error, match="truncated length header"):
        parse_graph6("~~???")  # truncated six-byte header
    with pytest.raises(Graph6Error):
        parse_graph6("B\x1f")  # below the printable range
    with pytest.raises(Graph6Error):
        parse_graph6("B\x7f")  # above the printable range
    with pytest.raises(Graph6Error):
        parse_graph6("Bx")  # nonzero padding bits for n=3


def test_read_graph6_stream():
    lines = ["Bw", "", "C~", "  "]
    got = list(read_graph6(lines))
    assert got == [complete_graph(3), complete_graph(4)]


def test_cycle5_string_cross_checked():
    want = nx.to_graph6_bytes(nx.cycle_graph(5), header=False).decode().strip()
    assert emit_graph6(cycle_graph(5)) == want == "Dhc"
