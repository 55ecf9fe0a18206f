import random

import pytest
from hypothesis import given, settings

from strategies import connected_graphs as connected_graphs_st
from strategies import dense_factors
from tensorcut.catalog import all_graphs, connected_graphs, is_isomorphic
from tensorcut.dense import (
    Branch,
    CutClassificationError,
    CutVerdict,
    ExcludedCaseError,
    classify_min_cut,
    dense_precondition,
    exceptional_cut,
    exceptional_member,
    is_exceptional_member,
    is_super_edge_connected_kn,
    kappa_formula,
    kappa_formula_kn,
)
from tensorcut.graphs import (
    Graph,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    remove_edges,
)
from tensorcut.mincut import edge_connectivity, is_vertex_star
from tensorcut.product import direct_product, induced_cut, lifted_edges

K2 = complete_graph(2)
K3 = complete_graph(3)
K4 = complete_graph(4)


def bridged(block: Graph) -> Graph:
    """Two copies of a block joined by a single bridge edge."""
    two = disjoint_union(block, block)
    return Graph(two.n, set(two.edges) | {(0, block.n)})


def test_dense_precondition_examples():
    assert dense_precondition(K3)
    assert not dense_precondition(cycle_graph(5))
    assert dense_precondition(exceptional_member(2))  # 8 > 7
    assert not dense_precondition(complete_bipartite_graph(3, 3))


def test_kappa_formula_examples():
    r = kappa_formula(K2, K3)
    assert (r.value, r.branch) == (2, Branch.DEGREE_BOUND)
    assert (r.factor_cut_bound, r.degree_bound) == (6, 2)

    r = kappa_formula(cycle_graph(5), K4)
    assert (r.value, r.branch) == (6, Branch.DEGREE_BOUND)

    g = bridged(complete_graph(5))
    r = kappa_formula(g, K3)
    assert (r.value, r.branch) == (6, Branch.FACTOR_CUT)
    # oracle on the 30-vertex product agrees
    assert edge_connectivity(direct_product(g, K3)).value == 6


def test_kappa_formula_tie_branch():
    g = bridged(complete_graph(4))  # kappa'=1, delta=3: 2*1*3 = 3*2 = 6
    r = kappa_formula(g, K3)
    assert (r.value, r.branch) == (6, Branch.TIE)
    assert edge_connectivity(direct_product(g, K3)).value == 6


def test_kappa_formula_trivial_and_disconnected_g():
    assert kappa_formula(Graph(1), K3).value == 0
    g = disjoint_union(K2, K2)
    assert kappa_formula(g, K3).value == 0
    assert not direct_product(g, K3).is_connected()


def test_kappa_formula_requires_dense_factor():
    with pytest.raises(ValueError):
        kappa_formula(K2, cycle_graph(5))
    with pytest.raises(ValueError):
        kappa_formula(K2, cycle_graph(6))


def test_kappa_formula_kn_examples():
    assert kappa_formula_kn(cycle_graph(4), 3).value == 4
    assert kappa_formula_kn(K2, 3).value == 2
    assert kappa_formula_kn(Graph(1), 7).value == 0
    with pytest.raises(ValueError):
        kappa_formula_kn(K2, 2)


def test_kappa_formula_kn_matches_general_form():
    for n in (3, 4, 5):
        kn = complete_graph(n)
        for order in range(2, 6):
            for g in connected_graphs(order):
                assert kappa_formula_kn(g, n).value == kappa_formula(g, kn).value


@settings(max_examples=25, deadline=None)
@given(connected_graphs_st(min_n=2, max_n=4), dense_factors(max_n=5))
def test_formula_matches_oracle_random(g, h):
    assert kappa_formula(g, h).value == edge_connectivity(direct_product(g, h)).value


def test_classify_vertex_star():
    prod = direct_product(K3, K4)
    star = frozenset(e for e in prod.edges if 0 in e)
    got = classify_min_cut(K3, K4, star)
    assert got.verdict == CutVerdict.VERTEX_STAR
    assert got.star_center == (0, 0)


def test_classify_induced():
    g = bridged(complete_graph(5))
    cut = induced_cut({(0, 5)}, g, K3)
    got = classify_min_cut(g, K3, cut)
    assert got.verdict == CutVerdict.INDUCED_BY_FACTOR_CUT
    assert got.factor_cut == frozenset({(0, 5)})
    # recovery reproduces the cut exactly
    assert induced_cut(got.factor_cut, g, K3) == cut


def test_classify_exceptional():
    _, cut = exceptional_cut(1)
    got = classify_min_cut(K2, K3, cut)
    assert got.verdict == CutVerdict.EXCEPTIONAL


def test_classify_validates_minimality():
    from itertools import combinations

    prod = direct_product(K3, K4)
    with pytest.raises(ValueError):
        classify_min_cut(K3, K4, frozenset(list(prod.edges)[:3]))  # wrong size
    # right size but the remainder stays connected
    for cand in combinations(sorted(prod.edges), 6):
        if remove_edges(prod, cand).is_connected():
            break
    else:
        pytest.fail("no non-disconnecting 6-subset found")
    with pytest.raises(ValueError):
        classify_min_cut(K3, K4, frozenset(cand))
    with pytest.raises(ValueError):
        classify_min_cut(K3, K4, {(0, 1)})  # not a product edge
    with pytest.raises(ValueError):
        classify_min_cut(K2, cycle_graph(5), frozenset())  # factor not dense


@pytest.mark.parametrize("g", [Graph(1), Graph(2), disjoint_union(K2, Graph(1))],
                         ids=["K1", "edgeless2", "K2+K1"])
def test_classify_requires_a_nontrivial_connected_first_factor(g):
    # kappa' is 0, so the empty cut passes the size and disconnection checks,
    # yet it is neither a star nor a lift: it must not read as a counterexample
    with pytest.raises(ValueError, match="nontrivial connected first factor"):
        classify_min_cut(g, K3, frozenset())


def test_classification_failure_is_surfaced(monkeypatch):
    import tensorcut.dense as dense

    _, cut = exceptional_cut(1)
    monkeypatch.setattr(dense, "is_exceptional_member", lambda h: None)
    with pytest.raises(CutClassificationError) as info:
        classify_min_cut(K2, K3, cut)
    assert info.value.cut == cut
    assert info.value.g == K2


def test_branch_consistency_factor_cut():
    # strict factor-cut branch: the max-flow minimum cut is induced
    g = bridged(complete_graph(5))
    witness = edge_connectivity(direct_product(g, K3)).witness
    assert len(witness) == 6
    verdict = classify_min_cut(g, K3, witness).verdict
    assert verdict == CutVerdict.INDUCED_BY_FACTOR_CUT


def test_super_kn_examples():
    assert is_super_edge_connected_kn(cycle_graph(4), 3)
    assert not is_super_edge_connected_kn(bridged(complete_graph(5)), 3)
    assert is_super_edge_connected_kn(K2, 4)


def test_super_kn_excluded_pair():
    with pytest.raises(ExcludedCaseError) as info:
        is_super_edge_connected_kn(K2, 3)
    assert info.value.bruteforce_answer is False


def test_super_kn_validation():
    with pytest.raises(ValueError):
        is_super_edge_connected_kn(cycle_graph(4), 2)
    with pytest.raises(ValueError):
        is_super_edge_connected_kn(disjoint_union(K2, K2), 3)


def test_super_kn_false_case_has_nonstar_witness():
    # the bridge lift is a minimum cut that is not a vertex star
    g = bridged(complete_graph(5))
    prod = direct_product(g, K3)
    cut = induced_cut({(0, 5)}, g, K3)
    assert len(cut) == kappa_formula(g, K3).value
    assert not remove_edges(prod, cut).is_connected()
    assert is_vertex_star(prod, cut) is None


def test_exceptional_member_invariants():
    for l in (1, 2, 3, 4):
        g = exceptional_member(l)
        assert g.n == 4 * l - 1
        assert all(g.degree(v) == 2 * l for v in range(g.n))
        assert dense_precondition(g)
        # deleting the matching leaves the complete bipartite core
        matching = {e for e in g.edges if e[0] >= 2 * l - 1}
        assert len(matching) == l
        core = remove_edges(g, matching)
        assert core == complete_bipartite_graph(2 * l - 1, 2 * l)
    assert exceptional_member(1) == K3
    with pytest.raises(ValueError):
        exceptional_member(0)


def test_member_detection():
    for l in (1, 2, 3, 4):
        assert is_exceptional_member(exceptional_member(l)) == l
    assert is_exceptional_member(cycle_graph(7)) is None
    assert is_exceptional_member(complete_graph(7)) is None
    # the other 4-regular graph on 7 vertices (complement of C_7) is not a member
    assert is_exceptional_member(complement(cycle_graph(7))) is None
    assert is_exceptional_member(complete_graph(4)) is None


def test_member_detection_matches_isomorphism_oracle():
    members = {l: exceptional_member(l) for l in (1, 2)}
    corpus = [h for n in range(1, 8) for h in all_graphs(n)]
    assert len(corpus) == 1252
    for h in corpus:
        expected = next((l for l, m in members.items() if is_isomorphic(h, m)), None)
        assert is_exceptional_member(h) == expected


def test_member_detection_under_relabeling():
    rng = random.Random(5)
    for l in (1, 2, 3):
        g = exceptional_member(l)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = Graph(g.n, {(perm[u], perm[v]) for u, v in g.edges})
            assert is_exceptional_member(relabeled) == l
            if g.n <= 10:
                assert is_isomorphic(relabeled, g)


def test_exceptional_cut_properties():
    for l in (1, 2, 3, 4):
        prod, cut = exceptional_cut(l)
        assert len(cut) == 2 * l  # delta(K2) * delta(H_l)
        remainder = remove_edges(prod, cut)
        assert remainder.component_count() == 2
        assert is_vertex_star(prod, cut) is None
    # l=1: C_6 loses two opposite edges, leaving two 3-vertex paths
    prod, cut = exceptional_cut(1)
    remainder = remove_edges(prod, cut)
    labels = remainder.component_labels()
    sizes = sorted(labels.count(c) for c in set(labels))
    assert sizes == [3, 3]


def test_exceptional_cut_is_not_induced():
    member = exceptional_member(2)
    prod, cut = exceptional_cut(2)
    recovered = {e for e in K2.edges if lifted_edges(e, K2, member) <= cut}
    assert not recovered
