import dataclasses
import functools
import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import connected_graphs as connected_graphs_st
from strategies import graphs as graphs_st
from tensorcut import mincut
from tensorcut.catalog import all_graphs, connected_graphs
from tensorcut.dense import dense_precondition
from tensorcut.graphs import (
    Graph,
    boundary,
    closure,
    complete_graph,
    cycle_graph,
    disjoint_union,
    matching_graph,
    path_graph,
    remove_edges,
)
from tensorcut.mincut import (
    BudgetExceeded,
    edge_connectivity,
    edge_connectivity_subset,
    enumerate_min_cuts,
    enumerate_min_cuts_subset,
    format_cut,
    is_super_edge_connected,
    is_vertex_star,
    min_st_cut,
)
from tensorcut.product import direct_product
from test_dense import bridged

C6 = cycle_graph(6)
K4 = complete_graph(4)


def test_subset_oracle_gives_a_disconnected_graph_the_empty_cut():
    res = edge_connectivity_subset(disjoint_union(K4, path_graph(2)), budget=0)
    assert res.value == 0
    assert res.witness == frozenset()


def test_edge_connectivity_examples():
    assert edge_connectivity(K4).value == 3
    assert edge_connectivity(C6).value == 2
    p = direct_product(cycle_graph(5), K4)
    # must equal the complete-factor closed form min{4*3*2, 3*2}
    assert edge_connectivity(p).value == 6


@settings(max_examples=80, deadline=None)
@given(graphs_st(min_n=2, max_n=8), st.data())
def test_min_st_cut_matches_networkx(g, data):
    s, t = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2,
                              unique=True))
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    cut = min_st_cut(g, s, t)
    assert cut.value == len(cut.witness) == nx.edge_connectivity(nxg, s, t)
    labels = remove_edges(g, cut.witness).component_labels()
    assert labels[s] != labels[t]
    assert component_boundary(g, cut.witness, s) == cut.witness
    # the flow stops at the limit, and a limit above the value changes nothing
    assert min_st_cut(g, s, t, limit=cut.value) is None
    assert min_st_cut(g, s, t, limit=cut.value + 1) == cut


def test_min_st_cut_rejects_bad_terminals():
    for s, t in ((0, 0), (0, 4), (-1, 2)):
        with pytest.raises(ValueError):
            min_st_cut(K4, s, t)


@settings(max_examples=200, deadline=None)
@given(graphs_st(min_n=1, max_n=12), st.data())
def test_boundary_is_the_edges_with_one_end_in_the_side(g, data):
    full = (1 << g.n) - 1
    side = data.draw(st.one_of(
        st.sampled_from([0, full]),
        st.integers(0, g.n - 1).map(lambda v: 1 << v),
        st.integers(0, g.n - 1).map(lambda v: full ^ 1 << v),
        st.integers(0, full)))
    inside = {v for v in range(g.n) if side >> v & 1}
    expected = frozenset((u, v) for u, v in g.edges if (u in inside) != (v in inside))
    assert boundary(g, side) == expected
    assert boundary(g, full ^ side) == expected


def test_edge_connectivity_trivial_and_disconnected():
    with pytest.raises(ValueError):
        edge_connectivity(Graph(1))
    res = edge_connectivity(Graph(4, {(0, 1), (2, 3)}))
    assert res.value == 0
    assert res.witness == frozenset()


@settings(max_examples=60)
@given(connected_graphs_st(max_n=7))
def test_witness_properties(g):
    res = edge_connectivity(g)
    assert len(res.witness) == res.value
    assert component_boundary(g, res.witness) == res.witness
    assert not remove_edges(g, res.witness).is_connected()
    # Whitney bound
    assert res.value <= g.min_degree()


@settings(max_examples=40)
@given(connected_graphs_st(max_n=6))
def test_maxflow_equals_subset_search(g):
    assert edge_connectivity(g).value == edge_connectivity_subset(g).value


@settings(max_examples=40)
@given(connected_graphs_st(max_n=6))
def test_maxflow_agrees_with_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    assert edge_connectivity(g).value == nx.edge_connectivity(nxg)


BUDGETS = (0, 10, 100, 10**3, 10**4, 10**5, 5 * 10**6)


def plain_groups(g):
    """The inseparable vertex groups of g, found plainly over every pair of
    vertices: u and v are joined when [uv in E] + |N(u) & N(v)| > delta, and
    the groups are the classes of that relation closed transitively, as
    bitmasks in order of their least vertex.  Neighbours and degrees come
    from the edge list, not from the graph's adjacency or degree tables."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    delta = min(map(len, nbrs))
    groups = [{v} for v in range(g.n)]
    for u, v in combinations(range(g.n), 2):
        if (v in nbrs[u]) + len(nbrs[u] & nbrs[v]) > delta:
            a, b = (next(s for s in groups if x in s) for x in (u, v))
            if a is not b:
                a |= b
                groups.remove(b)
    masks = [sum(1 << v for v in grp) for grp in groups]
    return sorted(masks, key=lambda grp: grp & -grp)


def group_count(g):
    """The number of inseparable vertex groups of g, counted plainly."""
    return len(plain_groups(g))


def scan_costs(g):
    """The 64-bit words of each subset scan on a connected g, counted
    plainly over its k inseparable groups.

    The side scan holds the unions of its low = min(k, k // 2 + 2) groups in
    lanes, one field each wide enough for |E| and a guard bit, and makes
    2**(k - low) moves over all of them.  The tree scan steps through every
    set of 1..delta of the k - 1 tree edges, each an |E|-bit mask.
    """
    k, m = group_count(g), len(g.edges)
    low = min(k, k // 2 + 2)
    width = len(f"{m:b}") + 1
    subsets = sum(math.comb(k - 1, j) for j in range(1, g.min_degree() + 1))
    return {"side": 2 ** (k - low) * math.ceil(width * 2 ** (low - 1) / 64),
            "tree": subsets * math.ceil(m / 64)}


def chosen_scan(g, budget):
    """The scan that the subset oracle runs on g: the side scan if its words
    fit the budget, else the tree scan if its words do; None when neither
    fits."""
    costs = scan_costs(g)
    return next((name for name in ("side", "tree") if costs[name] <= budget), None)


def over_budget(g, budget):
    """Whether the subset oracle raises BudgetExceeded on g."""
    return chosen_scan(g, budget) is None


def budget_edges(g):
    """Each scan's word count on g and one less: the budgets where the
    oracle's choice can change."""
    return {words + d for words in scan_costs(g).values() for d in (-1, 0)}


def component_boundary(g, witness, v=0):
    """The edges that leave v's component in g minus ``witness``."""
    labels = remove_edges(g, witness).component_labels()
    return frozenset(e for e in g.edges
                     if (labels[e[0]] == labels[v]) != (labels[e[1]] == labels[v]))


def _expected(g):
    """kappa' of g, the least minimum cut by sorted edge list and the
    max-flow cut list."""
    cuts = enumerate_min_cuts(g)
    return edge_connectivity(g).value, cuts.cuts[0], cuts


def _check_budget_decision(g, budget, expected):
    """The subset oracle's budget rule.  Where a scan fits
    (``chosen_scan``), edge_connectivity_subset answers with the least
    minimum cut by sorted edge list and enumerate_min_cuts_subset with the
    max-flow cut list; where neither fits, both raise and name the smaller
    word count.
    """
    value, least, cuts = expected
    if over_budget(g, budget):
        words = min(scan_costs(g).values())
        for oracle in (edge_connectivity_subset, enumerate_min_cuts_subset):
            with pytest.raises(BudgetExceeded) as exc:
                oracle(g, budget)
            assert str(exc.value) == f"subset oracle would touch {words} words (budget {budget})"
    else:
        res = edge_connectivity_subset(g, budget)
        assert (res.value, res.witness) == (value, least), (g, budget)
        assert component_boundary(g, res.witness) == res.witness
        assert enumerate_min_cuts_subset(g, budget) == cuts, (g, budget)


def test_subset_search_budget():
    # K_7 has 7 groups and 21 edges: the side scan makes 4 moves over 16
    # lanes of 6 bits, 8 words, and the tree scan touches one word for each
    # of its 63 subsets
    assert scan_costs(complete_graph(7)) == {"side": 8, "tree": 63}
    with pytest.raises(BudgetExceeded, match="touch 8 words \\(budget 7\\)"):
        edge_connectivity_subset(complete_graph(7), budget=7)
    assert edge_connectivity_subset(complete_graph(7), budget=8).value == 6
    # the bridged K_4 has kappa' 1 below delta 3, and its bridge is its one
    # minimum cut; C_26 fits the tree scan from 325 words and the side scan
    # from 3,145,728
    for g in (complete_graph(7), C6, bridged(K4), bridged(complete_graph(5)), cycle_graph(26)):
        expected = _expected(g)
        for budget in {*BUDGETS, *budget_edges(g)}:
            _check_budget_decision(g, budget, expected)
    assert edge_connectivity_subset(bridged(K4), budget=20).witness == {(0, 4)}
    assert scan_costs(cycle_graph(26)) == {"side": 3145728, "tree": 325}
    assert [chosen_scan(cycle_graph(26), b) for b in (324, 325, 5 * 10**6)] == [None, "tree", "side"]


def test_oracle_runs_the_side_scan_when_it_fits(monkeypatch):
    # the side scan runs when its words fit the budget, else the tree scan
    # when its words do, and none runs when neither fits, on every connected
    # graph on 2..7 vertices and on C_26, where the budgets between its two
    # word counts fit the tree scan alone, at the edges of both word counts
    ran = []
    for name in ("_side_scan_cuts", "_tree_scan_cuts"):
        monkeypatch.setattr(mincut, name, lambda g, groups, name=name: ran.append(name) or [])
    routes = set()
    for g in [g for n in range(2, 8) for g in connected_graphs(n)] + [cycle_graph(26)]:
        costs = scan_costs(g)
        for budget in {*BUDGETS, *budget_edges(g)}:
            ran.clear()
            want = chosen_scan(g, budget)
            if want is None:
                with pytest.raises(BudgetExceeded):
                    mincut._subset_min_cuts(g, budget)
                assert ran == [], (g, budget)
            else:
                mincut._subset_min_cuts(g, budget)
                assert ran == [f"_{want}_scan_cuts"], (g, budget)
            routes.add((want, tuple(name for name, words in costs.items() if words <= budget)))
    assert routes == {(None, ()), ("side", ("side",)), ("tree", ("tree",)),
                      ("side", ("side", "tree"))}


def test_tree_scan_on_multiword_masks():
    # edge masks past 64 bits span several machine words: C_70 has 70 edges,
    # and a 130-cycle with chords every 10 vertices (2-edge-connected, delta
    # 2) 143; both take the tree scan, whose cut lists are the max-flow ones
    chorded = Graph(130, set(cycle_graph(130).edges)
                    | {(i, i + 5) for i in range(0, 130, 10)})
    for g in (cycle_graph(70), chorded):
        assert chosen_scan(g, mincut.DEFAULT_BUDGET) == "tree"
        cuts = enumerate_min_cuts(g).cuts
        assert mincut._tree_scan_cuts(g, mincut._inseparable_groups(g)) == list(cuts)
        assert edge_connectivity_subset(g) == mincut.MinCutResult(2, cuts[0])


def _small_products():
    """G on 2..3 x dense H on 3..4, each with what ``_expected`` gives."""
    dense = [h for n in (3, 4) for h in all_graphs(n) if dense_precondition(h)]
    for g in (g for n in (2, 3) for g in connected_graphs(n)):
        for h in dense:
            p = direct_product(g, h)
            yield p, _expected(p)


def test_subset_witness_is_the_least_cut():
    # whichever scan runs, the witness is the least minimum cut by sorted
    # edge list and the cut list is the max-flow one, at every budget that a
    # scan fits; under smaller budgets both oracles raise.  The small
    # products fit the side scan or nothing; C_26 takes the tree scan at
    # budgets from 325 to 3,145,727 words
    scans = set()
    c26 = cycle_graph(26)
    for p, expected in [*_small_products(), (c26, _expected(c26))]:
        for budget in BUDGETS:
            _check_budget_decision(p, budget, expected)
            scans.add(chosen_scan(p, budget))
    assert scans == {None, "side", "tree"}


@pytest.mark.parametrize("shift, fault", [
    (-1, "a max-flow kappa' one below the true value changed the subset answers"),
    (1, "a max-flow kappa' one above the true value changed the subset answers")],
    ids=("one_below", "one_above"))
def test_cut_list_does_not_trust_max_flow(monkeypatch, shift, fault):
    # a max-flow kappa' one off either way changes neither the cut list nor
    # the super edge connectivity check: kappa' comes from the scan
    graphs = (path_graph(4), C6, K4, direct_product(cycle_graph(4), complete_graph(3)))
    want = [(enumerate_min_cuts(g), is_super_edge_connected(g)) for g in graphs]
    real = mincut.edge_connectivity

    def shifted(g):
        res = real(g)
        return dataclasses.replace(res, value=res.value + shift)

    monkeypatch.setattr(mincut, "edge_connectivity", shifted)
    assert [(enumerate_min_cuts_subset(g), is_super_edge_connected(g))
            for g in graphs] == want, fault


def test_cut_list_needs_no_max_flow_kappa(monkeypatch):
    # the subset oracle calls no max-flow: with every max-flow entry point
    # raising, kappa', its witness, the cut list and the super edge
    # connectivity check answer as before on graphs that take each scan, and
    # the lists are the max-flow ones; the side scan does not fit C_70
    graphs = (path_graph(4), C6, K4, direct_product(cycle_graph(4), complete_graph(3)),
              cycle_graph(26), direct_product(cycle_graph(5), K4), cycle_graph(70))
    assert [chosen_scan(g, mincut.DEFAULT_BUDGET) for g in graphs] == [
        "side", "side", "side", "side", "side", "side", "tree"]

    def answers():
        return [(edge_connectivity_subset(g), enumerate_min_cuts_subset(g),
                 is_super_edge_connected(g)) for g in graphs]

    want = answers()
    assert [cuts for _, cuts, _ in want] == [enumerate_min_cuts(g) for g in graphs]
    assert [res.value for res, _, _ in want] == [1, 2, 3, 4, 2, 6, 2]
    assert [brute for _, _, brute in want] == [False, False, True, True, False, True, False]

    def no_flow(*args, **kwargs):
        raise AssertionError("max-flow called")

    for name in ("_unit_max_flow", "_block_flows", "min_st_cut",
                 "edge_connectivity", "enumerate_min_cuts"):
        monkeypatch.setattr(mincut, name, no_flow)
    assert answers() == want


def _desk_products():
    """Every connected G on 2..5 vertices x every dense H on 3..5."""
    dense = [h for n in (3, 4, 5) for h in all_graphs(n) if dense_precondition(h)]
    return [direct_product(g, h)
            for g in (g for n in range(2, 6) for g in connected_graphs(n)) for h in dense]


def _sink_loop(g):
    """kappa' by minimum 0-t cuts over the sinks t, each flow stopped at the
    least value so far: the first t that attains kappa' gives the witness."""
    best = min_st_cut(g, 0, 1)
    for t in range(2, g.n):
        best = min_st_cut(g, 0, t, limit=best.value) or best
    return best


def test_block_flow_witness_is_the_sink_loop_one():
    # the least t whose block flow attains kappa' is the least t whose 0-t
    # flow does, and every minimum 0-t cut there holds the block {0..t-1}:
    # the same value and witness on every connected graph on 2..7 vertices
    # and every desk product
    graphs = [g for n in range(2, 8) for g in connected_graphs(n)] + _desk_products()
    assert len(graphs) == 1145
    for g in graphs:
        assert edge_connectivity(g) == _sink_loop(g), g


@functools.cache
def _flow_graphs():
    """Every connected graph on 2..6 vertices (142) and every product of the
    benchmark's desk config, connected G on 2..5 x dense H on 3..4 (60)."""
    dense = [h for n in (3, 4) for h in all_graphs(n) if dense_precondition(h)]
    return [g for n in range(2, 7) for g in connected_graphs(n)] + [
        direct_product(g, h) for n in range(2, 6) for g in connected_graphs(n) for h in dense]


def test_each_block_flow_is_a_unit_flow():
    # every block flow, run to the end and capped at delta, read off its
    # residual capacities, where u -> w carries 1 - cap[u][w]: the arcs are
    # both directions of each edge, units are conserved outside the block
    # and t, and the value is what leaves the block and enters t; a flow
    # that finishes is maximum, since its residual reach cuts that many edges
    graphs = _flow_graphs()
    assert len(graphs) == 202
    for g in graphs:
        both_ways = {arc for u, v in g.edges for arc in ((u, v), (v, u))}
        for t in range(1, g.n):
            block = (1 << t) - 1
            for limit in (None, g.min_degree()):
                flow, reach, cap = mincut._unit_max_flow(g, range(t), t, limit)
                arcs = {(u, w) for u, row in enumerate(cap) for w in row}
                assert arcs == both_ways
                for u, w in arcs:
                    assert 0 <= cap[u][w] <= 2 and cap[u][w] + cap[w][u] == 2
                net = [sum(1 - c for c in row.values()) for row in cap]  # out - in
                assert all(net[v] == 0 for v in range(t + 1, g.n))
                assert sum(net[:t]) == -net[t] == flow
                if reach is None:
                    assert flow == limit
                else:
                    succ = [sum(1 << w for w, c in row.items() if c > 0) for row in cap]
                    assert reach == closure(block, succ)
                    assert not reach >> t & 1
                    assert len(boundary(g, reach)) == flow


def test_edge_connectivity_runs_the_flows_of_the_enumeration(monkeypatch):
    # kappa' alone pays for no flow that the cut list does not also run
    real, calls = mincut._unit_max_flow, []

    def recorded(g, sources, t, limit=None):
        calls.append((t, limit))
        return real(g, sources, t, limit)

    monkeypatch.setattr(mincut, "_unit_max_flow", recorded)
    for g in _flow_graphs():
        calls.clear()
        edge_connectivity(g)
        kappa_flows = list(calls)
        calls.clear()
        enumerate_min_cuts(g)
        assert kappa_flows == calls, g
        assert [t for t, _ in calls] == list(range(1, g.n))


def test_enumerate_c6():
    enum = enumerate_min_cuts(C6)
    # every pair of cycle edges disconnects: C(6,2) cuts
    assert len(enum.cuts) == 15
    assert all(len(c) == 2 for c in enum.cuts)
    assert frozenset(edge_connectivity(C6).witness) in enum.cuts


def test_enumerate_k4_stars_only():
    enum = enumerate_min_cuts(K4)
    assert len(enum.cuts) == 4
    centers = {is_vertex_star(K4, c) for c in enum.cuts}
    assert centers == {0, 1, 2, 3}


def test_enumerate_matches_naive_scan():
    for g in (cycle_graph(4), path_graph(4), complete_graph(4),
              Graph(5, {(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)})):
        enum = enumerate_min_cuts(g)
        k = edge_connectivity(g).value
        naive = {
            frozenset(sub)
            for sub in combinations(sorted(g.edges), k)
            if not remove_edges(g, sub).is_connected()
        }
        assert set(enum.cuts) == naive


def test_enumerate_budget_fallback():
    # the 20 groups of C_5 x K_4 cost the side scan 57,344 words and the tree
    # scan 43,795, both past the budget: no partial cut list is returned,
    # while the max-flow engine needs no budget
    p = direct_product(cycle_graph(5), K4)
    assert scan_costs(p) == {"side": 57344, "tree": 43795}
    with pytest.raises(BudgetExceeded, match="43795 words \\(budget 1000\\)"):
        enumerate_min_cuts_subset(p, budget=1000)
    assert len(enumerate_min_cuts(p).cuts) == 20  # the 20 vertex stars


def test_enumerate_rejects_disconnected():
    for enumerate_cuts in (enumerate_min_cuts, enumerate_min_cuts_subset):
        with pytest.raises(ValueError):
            enumerate_cuts(Graph(4, {(0, 1), (2, 3)}))
        with pytest.raises(ValueError):
            enumerate_cuts(Graph(1))


def test_enumeration_matches_subset_scan_on_small_graphs():
    # every connected graph on 2..6 vertices (142 graphs)
    graphs = [g for n in range(2, 7) for g in connected_graphs(n)]
    assert len(graphs) == 142
    for g in graphs:
        assert enumerate_min_cuts(g) == enumerate_min_cuts_subset(g), g


@functools.cache
def _catalog_and_desk_cuts():
    """Every connected graph on 2..7 vertices (995) and every desk product
    (150), each with its inseparable groups and its max-flow cut list."""
    graphs = [g for n in range(2, 8) for g in connected_graphs(n)] + _desk_products()
    return [(g, mincut._inseparable_groups(g), enumerate_min_cuts(g).cuts) for g in graphs]


def test_no_minimum_cut_splits_a_group():
    # the groups partition the vertices in order of their least vertex, as
    # many as the plain count gives, and each max-flow minimum cut leaves
    # every group whole on one side; 875 of the 995 catalog graphs merge
    cases = _catalog_and_desk_cuts()
    assert len(cases) == 1145
    for g, groups, cuts in cases:
        assert sum(groups) == (1 << g.n) - 1 and len(groups) == group_count(g), g
        assert groups == sorted(groups, key=lambda grp: grp & -grp), g
        for cut in cuts:
            side = remove_edges(g, cut).component_labels()
            for grp in groups:
                assert len({side[v] for v in range(g.n) if grp >> v & 1}) == 1, (g, cut)
    assert sum(len(groups) < g.n for g, groups, _ in cases[:995]) == 875


@st.composite
def clustered_graphs(draw, max_n: int = 90):
    """Irregular graphs on 1..max_n vertices: random blocks, dense inside
    and sparse between, so that some vertices merge and others, such as a
    vertex of least degree, stay alone.  Beyond 64 vertices the adjacency
    masks span several 64-bit words."""
    n = draw(st.integers(1, max_n))
    blocks = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    p_in, p_out = draw(st.sampled_from([(1.0, 0.05), (0.9, 0.1), (0.7, 0.2), (0.5, 0.5)]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Graph(n, {(u, v) for u, v in combinations(range(n), 2)
                     if rng.random() < (p_in if blocks[u] == blocks[v] else p_out)})


@settings(max_examples=60, deadline=None)
@given(st.one_of(clustered_graphs(), graphs_st(min_n=1, max_n=8)))
def test_groups_equal_the_plain_all_pairs_rule(g):
    # the same bitmasks in the same order as the rule tested on every pair,
    # though only vertices of degree above delta are tested
    assert mincut._inseparable_groups(g) == plain_groups(g)


def test_groups_of_large_clustered_graphs():
    # two cliques of 40 and 30 vertices, bridged, beside a path through the
    # last 10: delta is 1, each clique is one group, and the second one's
    # mask spans two 64-bit words
    g = Graph(80, set(complete_graph(40).edges)
              | {(40 + u, 40 + v) for u, v in complete_graph(30).edges}
              | {(39, 40), (69, 70)} | {(70 + i, 71 + i) for i in range(9)})
    groups = mincut._inseparable_groups(g)
    assert groups == plain_groups(g)
    assert groups[:2] == [(1 << 40) - 1, ((1 << 30) - 1) << 40]
    assert groups[2:] == [1 << v for v in range(70, 80)]


@pytest.mark.parametrize("g, h", [(complete_graph(4), complete_graph(5)),
                                  (cycle_graph(5), K4), (C6, complete_graph(3))])
def test_regular_products_have_singleton_groups(g, h):
    # every vertex of a regular graph has degree delta, so none is paired
    p = direct_product(g, h)
    assert len(set(p.degrees)) == 1
    singletons = [1 << v for v in range(p.n)]
    assert mincut._inseparable_groups(p) == plain_groups(p) == singletons


def test_side_scan_matches_max_flow_enumeration():
    # both scans over unions of groups: the same cuts in the same order as
    # the max-flow enumeration on the 995 catalog graphs and the 150 desk
    # products.  The tree scan skips the 5 desk products whose tree scan is
    # over the default budget, so that the oracle never runs it there: 25
    # groups with delta 12 or 16, 9.7 to 16 million subsets each
    skipped = 0
    for g, groups, cuts in _catalog_and_desk_cuts():
        assert mincut._side_scan_cuts(g, groups) == list(cuts), g
        if scan_costs(g)["tree"] > mincut.DEFAULT_BUDGET:
            skipped += 1
            continue
        assert mincut._tree_scan_cuts(g, groups) == list(cuts), g
    assert skipped == 5


@settings(max_examples=60, deadline=None)
@given(connected_graphs_st(max_n=12))
def test_grouped_side_scan_matches_max_flow_enumeration(g):
    groups = mincut._inseparable_groups(g)
    assert len(groups) == group_count(g)
    cuts = list(enumerate_min_cuts(g).cuts)
    assert mincut._side_scan_cuts(g, groups) == cuts
    assert mincut._tree_scan_cuts(g, groups) == cuts


@settings(max_examples=100, deadline=None)
@given(connected_graphs_st(max_n=12))
def test_quotient_counts_the_edges_between_groups(g):
    # the quotient by the inseparable groups, against a plain loop over the
    # edges and the groups' member sets: each vertex's group, the edges
    # between two distinct groups, none within one, and each row sum the
    # edges that leave the group
    groups = mincut._inseparable_groups(g)
    members = [{v for v in range(g.n) if grp >> v & 1} for grp in groups]
    group, weight = mincut._quotient(g, groups)
    assert group == [next(i for i, m in enumerate(members) if v in m) for v in range(g.n)]
    for a, ends in enumerate(members):
        assert weight[a][a] == 0
        for b, other in enumerate(members):
            if a != b:
                between = sum((u in ends and v in other) or (u in other and v in ends)
                              for u, v in g.edges)
                assert weight[a][b] == weight[b][a] == between
        assert sum(weight[a]) == sum((u in ends) != (v in ends) for u, v in g.edges)


def test_enumeration_matches_subset_scan_on_products():
    # G on 2..4 vertices x dense H on 3..4 wherever the scan is small
    compared = 0
    for g in (g for n in range(2, 5) for g in connected_graphs(n)):
        for h in (h for n in (3, 4) for h in all_graphs(n) if dense_precondition(h)):
            p = direct_product(g, h)
            if math.comb(len(p.edges), edge_connectivity(p).value) > 200_000:
                continue
            assert enumerate_min_cuts(p) == enumerate_min_cuts_subset(p), (g, h)
            compared += 1
    assert compared == 13


@settings(max_examples=60, deadline=None)
@given(connected_graphs_st(max_n=10))
def test_enumeration_agrees_with_stoer_wagner(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    value, _ = nx.stoer_wagner(nxg)
    cuts = enumerate_min_cuts(g).cuts
    assert cuts and all(len(cut) == value for cut in cuts)
    assert all(not remove_edges(g, cut).is_connected() for cut in cuts)
    assert len(set(cuts)) == len(cuts)
    # a graph has at most C(n, 2) minimum cuts (Dinits-Karzanov-Lomonosov)
    assert len(cuts) <= math.comb(g.n, 2)


@settings(max_examples=30)
@given(connected_graphs_st(max_n=6))
def test_exhaustive_enumeration_contains_maxflow_witness(g):
    enum = enumerate_min_cuts(g)
    assert edge_connectivity(g).witness in enum.cuts


def test_is_vertex_star():
    star2 = frozenset(e for e in K4.edges if 2 in e)
    assert is_vertex_star(K4, star2) == 2
    opposite = frozenset({(0, 1), (3, 4)})
    assert is_vertex_star(C6, opposite) is None
    at3 = frozenset({(2, 3), (3, 4)})
    assert is_vertex_star(C6, at3) == 3
    assert is_vertex_star(C6, frozenset()) is None
    with pytest.raises(ValueError):
        is_vertex_star(C6, {(0, 2)})


@settings(max_examples=100, deadline=None)
@given(graphs_st(min_n=1, max_n=7), st.data())
def test_is_vertex_star_is_the_least_centre_of_the_cut(g, data):
    # an isolated vertex (empty star, which is no star) and a K_2 component
    # (two centres, the lower one answers) beside a random graph
    g = disjoint_union(disjoint_union(g, matching_graph(1)), Graph(1))
    edges = sorted(g.edges)

    def definition(cut):
        centres = [v for v in range(g.n) if cut == {e for e in edges if v in e}]
        return min(centres) if cut and centres else None

    cuts = [boundary(g, 1 << v) for v in range(g.n)]
    cuts += [frozenset([e]) for e in edges]
    cuts += data.draw(st.lists(st.frozensets(st.sampled_from(edges)), max_size=10))
    for cut in cuts:
        assert is_vertex_star(g, cut) == definition(cut)
        assert is_vertex_star(g, [(v, u) for u, v in cut]) == definition(cut)


def test_super_edge_connected():
    assert is_super_edge_connected(K4)
    assert not is_super_edge_connected(C6)
    assert is_super_edge_connected(direct_product(cycle_graph(4), complete_graph(3)))


def test_super_edge_connected_budget():
    p = direct_product(cycle_graph(5), K4)
    with pytest.raises(BudgetExceeded):
        is_super_edge_connected(p, budget=1000)


def test_cut_text_round_trip():
    cut = frozenset({(0, 1), (2, 5)})
    assert format_cut(cut) == "0-1 2-5"
    assert format_cut([(5, 2), (1, 0)]) == "0-1 2-5"


_NUMPY_PROBE = """
import sys
import tensorcut, tensorcut.cli
from tensorcut.harness import CHECK_NAMES, CampaignConfig, run_campaign
for oracle in ("maxflow", "subset"):
    report = run_campaign(CampaignConfig(max_g_order=3, max_h_order=4,
                                         checks=CHECK_NAMES, oracle=oracle))
    assert report.summary["mismatches"] == 0
from tensorcut.graphs import complete_graph, cycle_graph
from tensorcut.product import direct_product
g = direct_product(cycle_graph(4), complete_graph(3))
assert tensorcut.edge_connectivity_subset(g).value == 4
assert tensorcut.is_super_edge_connected(g)
assert "numpy" not in sys.modules, "numpy loaded"
"""


def test_numpy_is_never_loaded():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
