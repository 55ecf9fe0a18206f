"""Acceptance gate: exhaustive desk-scale verification of every central claim.

One test per criterion; each prints a single PASS/FAIL line with counts and
elapsed time.  All comparisons are exact integer equality.
"""

import math
import random
import time

import pytest

from tensorcut.catalog import all_graphs, connected_graphs
from tensorcut.dense import (
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
from tensorcut.graph6 import emit_graph6, parse_graph6
from tensorcut.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    remove_edges,
)
from tensorcut.mincut import (
    edge_connectivity,
    edge_connectivity_subset,
    is_vertex_star,
)
from tensorcut.product import direct_product, product_connected

BUDGET = 5_000_000
K2 = complete_graph(2)
K3 = complete_graph(3)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {detail} -> {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def g_corpus():
    return [g for n in range(2, 6) for g in connected_graphs(n)]


@pytest.fixture(scope="module")
def h_corpus():
    return [h for n in range(3, 6) for h in all_graphs(n) if dense_precondition(h)]


def test_criterion_1_formula_equals_oracle(g_corpus, h_corpus):
    t0 = time.perf_counter()
    mismatches = []
    pairs = 0
    for g in g_corpus:
        for h in h_corpus:
            pairs += 1
            formula = kappa_formula(g, h).value
            oracle = edge_connectivity(direct_product(g, h)).value
            if formula != oracle:
                mismatches.append((emit_graph6(g), emit_graph6(h), formula, oracle))
    ok = not mismatches
    _report(
        "criterion 1 (connectivity formula)",
        ok,
        f"{pairs} pairs, {len(mismatches)} mismatches, "
        f"{time.perf_counter() - t0:.1f}s",
    )
    assert mismatches == []


def test_criterion_2_complete_factor_specialization(g_corpus):
    t0 = time.perf_counter()
    mismatches = []
    pairs = 0
    for n in (3, 4):
        kn = complete_graph(n)
        for g in g_corpus:
            pairs += 1
            a = kappa_formula_kn(g, n).value
            b = kappa_formula(g, kn).value
            c = edge_connectivity(direct_product(g, kn)).value
            if not a == b == c:
                mismatches.append((emit_graph6(g), n, a, b, c))
    ok = not mismatches
    _report(
        "criterion 2 (complete-factor form)",
        ok,
        f"{pairs} pairs, {len(mismatches)} mismatches, "
        f"{time.perf_counter() - t0:.1f}s",
    )
    assert mismatches == []


def test_criterion_3_cut_classification(g_corpus, h_corpus, enum_cache):
    t0 = time.perf_counter()
    classified = 0
    pairs = 0
    for g in g_corpus:
        for h in h_corpus:
            product = direct_product(g, h)
            value = kappa_formula(g, h).value
            pairs += 1
            enum = enum_cache(product)
            assert edge_connectivity(product).value == value
            exceptional_pair = (
                g == K2 and is_exceptional_member(h) is not None
            )
            seen = {v: 0 for v in CutVerdict}
            for cut in enum.cuts:
                verdict = classify_min_cut(g, h, cut)  # raises on a violation
                classified += 1
                seen[verdict.verdict] += 1
            if seen[CutVerdict.EXCEPTIONAL]:
                assert exceptional_pair, "exceptional verdict outside (K_2, H_l)"
            if exceptional_pair:
                assert seen[CutVerdict.EXCEPTIONAL] > 0
                l = is_exceptional_member(h)
                _, canonical = exceptional_cut(l)
                assert canonical in enum.cuts
            # a strict degree-bound branch must surface at least one star
            # (the star of a minimum-degree product vertex has size
            # delta(g)*delta(h) and is therefore itself a minimum cut)
            result = kappa_formula(g, h)
            if result.degree_bound < result.factor_cut_bound and not exceptional_pair:
                assert seen[CutVerdict.VERTEX_STAR] > 0

    assert pairs == 150

    # specific instance: the six-cycle has exactly C(6,2) = 15 minimum cuts
    c6 = direct_product(K2, K3)
    assert len(enum_cache(c6).cuts) == 15

    # specific instance: C_4 x K_3, whose 10626-subset scan agrees
    c4k3 = direct_product(cycle_graph(4), K3)
    value = kappa_formula(cycle_graph(4), K3).value
    assert math.comb(len(c4k3.edges), value) == 10626
    assert enum_cache(c4k3) == enum_cache(c4k3, BUDGET)

    _report(
        "criterion 3 (minimum-cut classification)",
        True,
        f"{pairs} pairs, {classified} cuts classified, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_3_c6_shows_all_three_verdict_kinds(enum_cache):
    # As stated, the six-cycle's 15 minimum cuts should exhibit every verdict
    # kind.  Lifted factor cuts have size 2*|S0|*e(K_3) = 6*|S0| >= 6, so no
    # minimum cut (size 2) can be induced; only stars and exceptional cuts
    # occur.  The assertion is kept exact and is expected to fail.
    c6 = direct_product(K2, K3)
    enum = enum_cache(c6, BUDGET)
    kinds = {classify_min_cut(K2, K3, cut).verdict for cut in enum.cuts}
    ok = kinds == set(CutVerdict)
    _report(
        "criterion 3 (C_6 shows all three verdict kinds)",
        ok,
        f"observed kinds: {sorted(k.value for k in kinds)}",
    )
    assert kinds == set(CutVerdict)


def test_criterion_4_super_edge_connectivity(g_corpus, enum_cache):
    t0 = time.perf_counter()
    compared = 0
    excluded_checked = False
    for n in (3, 4):
        kn = complete_graph(n)
        for g in g_corpus:
            product = direct_product(g, kn)
            enum = enum_cache(product)
            brute = all(is_vertex_star(product, c) is not None for c in enum.cuts)
            if g == K2 and n == 3:
                with pytest.raises(ExcludedCaseError) as info:
                    is_super_edge_connected_kn(g, n)
                assert brute is False  # the exception is genuine
                assert info.value.bruteforce_answer is False
                excluded_checked = True
                continue
            compared += 1
            assert is_super_edge_connected_kn(g, n) == brute, (emit_graph6(g), n)
    assert excluded_checked and compared == 59
    _report(
        "criterion 4 (super-edge-connectivity criterion)",
        True,
        f"{compared} pairs agree, excluded pair "
        f"confirmed non-super, {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_5_exceptional_family():
    t0 = time.perf_counter()
    for l in (1, 2, 3, 4):
        g = exceptional_member(l)
        assert g.n == 4 * l - 1
        assert all(g.degree(v) == 2 * l for v in range(g.n))
        assert dense_precondition(g)
        product, cut = exceptional_cut(l)
        assert len(cut) == 2 * l  # delta(K_2) * delta(H_l)
        assert remove_edges(product, cut).component_count() == 2
    _report(
        "criterion 5 (exceptional family)",
        True,
        f"l in 1..4 verified, {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_6_connectivity_criterion(g_corpus):
    t0 = time.perf_counter()
    h_all = [h for n in range(3, 6) for h in all_graphs(n)]
    mismatches = 0
    pairs = 0
    bipartite_pairs = 0
    for g in g_corpus:
        for h in h_all:
            pairs += 1
            if g.is_bipartite() and h.is_bipartite():
                bipartite_pairs += 1
            if product_connected(g, h) != direct_product(g, h).is_connected():
                mismatches += 1
    ok = mismatches == 0 and bipartite_pairs > 0
    _report(
        "criterion 6 (factor connectivity criterion)",
        ok,
        f"{pairs} pairs ({bipartite_pairs} bipartite x bipartite), "
        f"{mismatches} mismatches, {time.perf_counter() - t0:.1f}s",
    )
    assert mismatches == 0
    assert bipartite_pairs > 0


def test_criterion_7_oracle_self_consistency():
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 8):
        for g in connected_graphs(n):
            a = edge_connectivity(g)
            b = edge_connectivity_subset(g)
            assert a.value == b.value, emit_graph6(g)
            assert a.value <= g.min_degree()
            checked += 1
    _report(
        "criterion 7 (oracle self-consistency)",
        True,
        f"{checked} connected graphs up to order 7, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_8_graph6_codec():
    t0 = time.perf_counter()
    assert emit_graph6(K3) == "Bw"
    assert parse_graph6("Bw") == K3
    count = 0
    for n in range(1, 8):
        for g in all_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g
            count += 1
    extras = [
        complete_graph(8),
        cycle_graph(8),
        complete_bipartite_graph(4, 4),
        Graph(8),
    ]
    rng = random.Random(8)
    pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    for _ in range(100):
        extras.append(Graph(8, {p for p in pairs if rng.random() < 0.5}))
    for g in extras:
        assert parse_graph6(emit_graph6(g)) == g
        count += 1
    _report(
        "criterion 8 (graph6 codec)",
        True,
        f"{count} graphs round-tripped, 'Bw' <-> K_3, "
        f"{time.perf_counter() - t0:.1f}s",
    )
