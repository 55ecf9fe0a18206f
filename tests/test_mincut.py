import dataclasses
import functools
import math
import os
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
    complete_graph,
    cycle_graph,
    disjoint_union,
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


BUDGETS = (10, 100, 10**3, 10**4, 10**5, 5 * 10**6)


def budget_stop(g, budget):
    """The plain budget rule of the edge route: the first level whose
    running subset count, from level 1 on, passes the budget, with that
    count; None and the total when no level up to delta does."""
    m, spent = len(g.edges), 1
    for k in range(1, g.min_degree() + 1):
        spent += math.comb(m, k)
        if spent > budget:
            return k, spent
    return None, spent


def group_count(g):
    """The number of inseparable vertex groups of g, counted plainly: u and v
    are joined when [uv in E] + |N(u) & N(v)| > delta, and the groups are
    the classes of that relation closed transitively."""
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    groups = [{v} for v in range(g.n)]
    for u, v in combinations(range(g.n), 2):
        if (v in nbrs[u]) + len(nbrs[u] & nbrs[v]) > g.min_degree():
            a, b = (next(s for s in groups if x in s) for x in (u, v))
            if a is not b:
                a |= b
                groups.remove(b)
    return len(groups)


def side_scan_fits(g, budget):
    """The subset oracle's choice of route: it scans the 2**(groups-1) unions
    of inseparable groups when they fit the budget and the edge route's
    worst-case count."""
    sides = 2 ** (group_count(g) - 1)
    return sides <= budget and sides <= sum(
        math.comb(len(g.edges), k) for k in range(g.min_degree() + 1))


def over_budget(g, budget, value):
    """Whether the subset oracle raises BudgetExceeded on g, of kappa'
    ``value``: the unions of groups do not fit the budget and the plain
    rule's level is at most kappa'."""
    stop, _ = budget_stop(g, budget)
    return 2 ** (group_count(g) - 1) > budget and stop is not None and stop <= value


def _plain_scan(g, k):
    """The subset scan done plainly: every tree-touching k-subset of the scan
    order, in lexicographic order, that disconnects g.  The tree is the
    first n - 1 edges of the order, and it must span g."""
    order, _ = mincut._scan_order(g)
    assert Graph(g.n, order[:g.n - 1]).is_connected()
    return (c for c in combinations(range(len(order)), k)
            if c[0] < g.n - 1
            and not remove_edges(g, [order[i] for i in c]).is_connected())


def component_boundary(g, witness, v=0):
    """The edges that leave v's component in g minus ``witness``."""
    labels = remove_edges(g, witness).component_labels()
    return frozenset(e for e in g.edges
                     if (labels[e[0]] == labels[v]) != (labels[e[1]] == labels[v]))


def _expected(g):
    """kappa' of g, the plain scan's first hit, the least minimum cut by
    sorted edge list and the max-flow cut list."""
    value = edge_connectivity(g).value
    order, _ = mincut._scan_order(g)
    hit = frozenset(order[i] for i in next(_plain_scan(g, value)))
    cuts = enumerate_min_cuts(g)
    return value, hit, cuts.cuts[0], cuts


def _edge_route_kappa(g, budget):
    witness = next(mincut._edge_level_hits(g, budget))
    return mincut.MinCutResult(len(witness), witness)


def _edge_route_cuts(g, budget):
    return mincut.CutEnumeration(tuple(sorted(mincut._edge_level_hits(g, budget), key=sorted)))


def _check_budget_decision(g, budget, expected):
    """The subset oracle's selection rule and the edge route's budget rule.

    Where the sides fit (``side_scan_fits``), edge_connectivity_subset
    answers with the least minimum cut by sorted edge list and
    enumerate_min_cuts_subset with the max-flow cut list, and the edge route
    is called directly; elsewhere the two oracles take the edge route.  That
    route raises exactly when the plain rule's level is at most kappa', with
    its message; otherwise it answers with the plain scan's first hit and
    the max-flow cut list.
    """
    value, hit, least, cuts = expected
    oracles = (edge_connectivity_subset, enumerate_min_cuts_subset)
    if side_scan_fits(g, budget):
        res = edge_connectivity_subset(g, budget)
        assert (res.value, res.witness) == (value, least), (g, budget)
        assert component_boundary(g, res.witness) == res.witness
        assert enumerate_min_cuts_subset(g, budget) == cuts, (g, budget)
        oracles = (_edge_route_kappa, _edge_route_cuts)
    stop, spent = budget_stop(g, budget)
    if stop is not None and stop <= value:
        for oracle in oracles:
            with pytest.raises(BudgetExceeded) as exc:
                oracle(g, budget)
            assert str(exc.value) == f"subset search would test {spent} subsets (budget {budget})"
    else:
        res = oracles[0](g, budget)
        assert (res.value, res.witness) == (value, hit), (g, budget)
        assert component_boundary(g, res.witness) == res.witness
        assert oracles[1](g, budget) == cuts, (g, budget)


def test_subset_search_budget():
    with pytest.raises(BudgetExceeded, match="test 22 subsets \\(budget 10\\)"):
        edge_connectivity_subset(complete_graph(7), budget=10)
    # the bridged K_4 has kappa' 1 below delta 3: budgets that level 1 fits
    # answer with the bridge, even where level 2 or 3 would not fit; one side
    # fewer than 2**(n-1) turns the side scan down
    for g in (complete_graph(7), C6, bridged(K4), bridged(complete_graph(5))):
        expected = _expected(g)
        for budget in (*BUDGETS, 2 ** (g.n - 1) - 1, 2 ** (g.n - 1)):
            _check_budget_decision(g, budget, expected)
    assert edge_connectivity_subset(bridged(K4), budget=20).witness == {(0, 4)}
    with pytest.raises(BudgetExceeded, match="test 232 subsets \\(budget 63\\)"):
        edge_connectivity_subset(complete_graph(7), budget=63)
    assert edge_connectivity_subset(complete_graph(7), budget=64).value == 6


def test_oracle_runs_the_smaller_scan(monkeypatch):
    # the side scan runs exactly when its 2**(groups-1) unions of inseparable
    # groups fit both the budget and the edge route's count up to level
    # delta, on every connected graph on 2..7 vertices at the edges of both
    # bounds
    ran = []
    monkeypatch.setattr(mincut, "_side_scan_cuts", lambda g, groups: ran.append("side") or [])
    monkeypatch.setattr(mincut, "_edge_level_hits", lambda g, b: ran.append("edge") or iter(()))
    routes = set()
    for g in (g for n in range(2, 8) for g in connected_graphs(n)):
        count = sum(math.comb(len(g.edges), k) for k in range(g.min_degree() + 1))
        sides = 2 ** (group_count(g) - 1)
        for budget in {*BUDGETS, sides - 1, sides, count - 1, count}:
            ran.clear()
            mincut._first_level_hits(g, budget)
            want = "side" if side_scan_fits(g, budget) else "edge"
            assert ran == [want], (g, budget)
            routes.add((want, sides <= budget))
    assert routes == {("side", True), ("edge", True), ("edge", False)}


def _kernel_disconnecting(g, k):
    order, bfs = mincut._scan_order(g)
    return list(mincut._disconnecting_subsets(g, k, order, bfs))


@pytest.mark.parametrize("lane_bound, tails", [(1, {1}), (100, {1, 2}),
                                               (mincut._LANE_BOUND, {1, 2, 3})],
                         ids=["t1", "t2", "t3"])
def test_kernel_matches_plain_scan_on_small_graphs(monkeypatch, lane_bound, tails):
    # every connected graph on 2..6 vertices, each level up to delta; the
    # largest level is C(15, 5) = 3003 subsets (K_6).  A lane bound of 1
    # puts one index in the lanes throughout, 100 up to two on at most 10
    # edges, and the real bound up to three.
    seen = set()
    real = mincut._lane_masks

    def recording(m, t):
        seen.add(t)
        return real(m, t)

    monkeypatch.setattr(mincut, "_LANE_BOUND", lane_bound)
    monkeypatch.setattr(mincut, "_lane_masks", recording)
    for g in (g for n in range(2, 7) for g in connected_graphs(n)):
        for k in range(1, g.min_degree() + 1):
            assert _kernel_disconnecting(g, k) == list(_plain_scan(g, k)), (g, k)
    assert seen == tails


def test_lane_masks_match_brute_force():
    # bit i of mask j is set exactly when the i-th t-subset of range(r), in
    # lexicographic order, holds j
    for r in range(1, 8):
        for t in range(1, 4):
            subsets = list(combinations(range(r), t))
            masks = mincut._lane_masks(r, t)
            assert len(masks) == r
            for j, mask in enumerate(masks):
                want = sum(1 << i for i, sub in enumerate(subsets) if j in sub)
                assert mask == want, (r, t, j)


def test_kernel_on_multiword_rows():
    # lanes past 64 bits span several machine words: a block of C_70 holds up
    # to 69 of them at level 2, and one of a 130-cycle with chords every 10
    # vertices (2-edge-connected, delta 2, 143 edges) up to 142
    chorded = Graph(130, set(cycle_graph(130).edges)
                    | {(i, i + 5) for i in range(0, 130, 10)})
    for g in (cycle_graph(70), chorded):
        for k in (1, 2):
            assert _kernel_disconnecting(g, k) == list(_plain_scan(g, k)), (g.n, k)
        assert edge_connectivity_subset(g).value == edge_connectivity(g).value == 2


def _small_products():
    """G on 2..3 x dense H on 3..4, each with what ``_expected`` gives."""
    dense = [h for n in (3, 4) for h in all_graphs(n) if dense_precondition(h)]
    for g in (g for n in (2, 3) for g in connected_graphs(n)):
        for h in dense:
            p = direct_product(g, h)
            yield p, _expected(p)


def test_subset_witness_is_the_first_hit():
    # the edge route's witness is the first tree-touching kappa'-subset, in
    # lexicographic scan order, that disconnects, and its cut list is the
    # max-flow one, at every budget that the plain rule lets it answer under;
    # where the sides fit, the oracle's witness is the least minimum cut by
    # sorted edge list
    for p, expected in _small_products():
        for budget in BUDGETS:
            _check_budget_decision(p, budget, expected)


def test_packing_checker_rejects_bad_walks():
    # C_6 holds two edge-disjoint 0-3 walks, one each way round
    assert mincut._is_packing(C6, 0, 3, [[0, 1, 2, 3], [0, 5, 4, 3]])
    assert mincut._is_packing(C6, 0, 3, [])
    for walks in ([[0, 1, 2, 3], [0, 1, 2, 3]],     # every edge reused
                  [[0, 1, 2, 3], [0, 5, 4, 3, 2, 3]],  # 2-3 reused, reversed
                  [[0, 1, 0, 5, 4, 3]],             # 0-1 reused within a walk
                  [[0, 2, 3]],                      # 0-2 is no edge of C_6
                  [[0, 5, 3]],                      # nor 3-5
                  [[1, 2, 3]],                      # starts at 1
                  [[0, 1, 2]],                      # ends at 2
                  [[0]],                            # a walk that ended short
                  [[]],
                  [[0, 0, 1, 2, 3]],                # self-steps
                  [[0, 1, 2, 3, 3]]):
        assert not mincut._is_packing(C6, 0, 3, walks), walks


def _overstated(real):
    def flow(g, sources, t, limit=None):
        value, reach, cap = real(g, sources, t, limit)
        return value + 1, reach, cap
    return flow


def _every_arc_full(real):
    # both arcs of every edge read as carrying flow
    def flow(g, sources, t, limit=None):
        value, reach, cap = real(g, sources, t, limit)
        return value, reach, [dict.fromkeys(arcs, 0) for arcs in cap]
    return flow


def _shortcut(real):
    # a flow arc from the first source straight to t, an edge or not
    def flow(g, sources, t, limit=None):
        sources = tuple(sources)
        value, reach, cap = real(g, sources, t, limit)
        cap[sources[0]].pop(t, None)
        cap[sources[0]][t] = 0
        return value, reach, cap
    return flow


@pytest.mark.parametrize("mutant", [_overstated, _every_arc_full, _shortcut])
def test_subset_oracle_survives_a_faulty_max_flow(monkeypatch, mutant):
    # the checker turns a faulty flow's packings down, so the scan starts
    # lower; value, witness, cut list and budget decisions stay those of the
    # plain scan
    cases = list(_small_products())
    rejected = []
    real_check = mincut._is_packing

    def counting_check(*args):
        ok = real_check(*args)
        rejected.append(not ok)
        return ok

    monkeypatch.setattr(mincut, "_unit_max_flow", mutant(mincut._unit_max_flow))
    monkeypatch.setattr(mincut, "_is_packing", counting_check)
    for p, expected in cases:
        for budget in BUDGETS:
            _check_budget_decision(p, budget, expected)
    assert any(rejected)


@pytest.mark.parametrize("shift, fault", [(-1, "disagrees with the subset scan"),
                                          (1, "exceeds the checked lower bound")])
def test_cut_list_does_not_trust_max_flow(monkeypatch, shift, fault):
    # a max-flow kappa' one off either way, so that it disagrees with the
    # subset scan or exceeds the checked lower bound, changes neither the cut
    # list nor the super edge connectivity check: kappa' comes from the scan
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
    # kappa' comes from the scan: with the max-flow routes raising, the cut
    # list and the super edge connectivity check answer as before, and the
    # lists are the max-flow ones
    graphs = (path_graph(4), C6, K4, direct_product(cycle_graph(4), complete_graph(3)))
    want = [(enumerate_min_cuts_subset(g), is_super_edge_connected(g)) for g in graphs]
    assert [cuts for cuts, _ in want] == [enumerate_min_cuts(g) for g in graphs]
    assert [brute for _, brute in want] == [False, False, True, True]

    def no_flow(*args, **kwargs):
        raise AssertionError("max-flow kappa' called")

    for name in ("edge_connectivity", "enumerate_min_cuts", "min_st_cut", "_block_flows"):
        monkeypatch.setattr(mincut, name, no_flow)
    assert [(enumerate_min_cuts_subset(g), is_super_edge_connected(g))
            for g in graphs] == want


def _matched_cliques(m, k):
    """Two copies of K_m joined by the k-matching i -- m + i, i < k."""
    two = disjoint_union(complete_graph(m), complete_graph(m))
    return Graph(two.n, set(two.edges) | {(i, m + i) for i in range(k)})


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


def test_certified_lower_bound_is_exact_with_one_flow_per_extra_dominator(monkeypatch):
    # Matula's lemma: kappa' = min(delta, lambda(d0, d) over the rest of a
    # dominating set D), so the certificate needs |D| - 1 flows, none on K_n.
    # Two cliques joined by a k-matching have kappa' = k < delta, so there
    # the cross-cut flows decide the bound.
    flows = []
    real = mincut._unit_max_flow

    def counting(*args, **kwargs):
        flows.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(mincut, "_unit_max_flow", counting)
    small = [g for n in range(2, 7) for g in connected_graphs(n)]
    matched = [_matched_cliques(4, 1), _matched_cliques(5, 2)]
    desk = _desk_products()
    assert (len(small), len(desk)) == (142, 150)
    sizes = []
    for g in small + matched + desk:
        dom = mincut._dominating_set(g)
        assert mincut._dominates(g, dom) and dom[0] == 0
        flows.clear()
        bound = mincut._certified_lower_bound(g, g.min_degree())
        assert flows == dom[1:], g
        assert bound == edge_connectivity(g).value, g
        sizes.append(len(dom))
    assert [edge_connectivity(g).value for g in matched] == [1, 2]
    assert max(sizes[-len(desk):]) == 6
    for n in range(2, 8):
        flows.clear()
        assert mincut._certified_lower_bound(complete_graph(n), n) == n - 1
        assert flows == []


def test_domination_checker_rejects_bad_sets():
    # C_6: {0, 3} dominates, {0, 2} leaves vertex 4 undominated; empty sets
    # and vertices outside the graph are turned down too
    assert mincut._dominates(C6, [0, 3])
    assert mincut._dominates(C6, [0, 3, 3])
    for dom in ([], [0], [0, 2], [0, 3, 6], [-1, 0, 3]):
        assert not mincut._dominates(C6, dom), dom


def test_subset_oracle_survives_a_non_dominating_set(monkeypatch):
    # vertex 0 of a direct product is never universal, so {0} alone does not
    # dominate: the checker turns it down, the bound falls to 0 and the scan
    # starts at level 1; every oracle answer stays that of the plain scan, and
    # the cut list that of max-flow
    cases = list(_small_products())
    verdicts = []
    real_check = mincut._dominates

    def recording_check(*args):
        verdicts.append(real_check(*args))
        return verdicts[-1]

    monkeypatch.setattr(mincut, "_dominating_set", lambda g: [0])
    monkeypatch.setattr(mincut, "_dominates", recording_check)
    for p, _ in cases:
        assert mincut._certified_lower_bound(p, p.min_degree()) == 0
    assert verdicts and not any(verdicts)
    for p, expected in cases:
        for budget in BUDGETS:
            _check_budget_decision(p, budget, expected)
    c4k3 = direct_product(cycle_graph(4), complete_graph(3))
    assert _edge_route_cuts(c4k3, mincut.DEFAULT_BUDGET) == enumerate_min_cuts(c4k3)


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
    # levels 1 and 2 of the 60 edges already count 1 + 60 + 1770 subsets, past
    # the budget below kappa' = 6: no partial cut list is returned, while the
    # max-flow engine needs no budget
    p = direct_product(cycle_graph(5), K4)
    with pytest.raises(BudgetExceeded, match="1831 subsets \\(budget 1000\\)"):
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


def test_side_scan_matches_max_flow_enumeration():
    # the scan over unions of groups: the same cuts in the same order as the
    # max-flow enumeration on the 995 catalog graphs and the 150 desk products
    for g, groups, cuts in _catalog_and_desk_cuts():
        assert mincut._side_scan_cuts(g, groups) == list(cuts), g


@settings(max_examples=60, deadline=None)
@given(connected_graphs_st(max_n=12))
def test_grouped_side_scan_matches_max_flow_enumeration(g):
    groups = mincut._inseparable_groups(g)
    assert len(groups) == group_count(g)
    assert mincut._side_scan_cuts(g, groups) == list(enumerate_min_cuts(g).cuts)


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
