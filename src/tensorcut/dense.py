"""Edge connectivity of direct products with a dense factor.

When the factor H satisfies 2*delta(H) > |H|, the product's edge connectivity
is min{2*kappa'(G)*e(H), delta(G)*delta(H)}, and every minimum edge cut is
either the lift of a minimum edge cut of G or the star of a single product
vertex -- except for the pairs (K_2, H_l) built here as the exceptional
family, which admit further cuts.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

from .graphs import (
    Edge,
    Graph,
    complement,
    complete_graph,
    edge_set,
    empty_graph,
    join,
    matching_graph,
    remove_edges,
)
from .mincut import edge_connectivity, is_vertex_star
from .product import (
    ProductVertex,
    direct_product,
    induced_cut,
    lifted_edges,
    vertex_pair,
)


class Branch(str, Enum):
    """Which side of the min attained the formula value."""

    FACTOR_CUT = "factor_cut"
    DEGREE_BOUND = "degree_bound"
    TIE = "tie"


class CutVerdict(str, Enum):
    INDUCED_BY_FACTOR_CUT = "induced_by_factor_cut"
    VERTEX_STAR = "vertex_star"
    EXCEPTIONAL = "exceptional"


@dataclass(frozen=True)
class FormulaResult:
    value: int
    factor_cut_bound: int
    degree_bound: int
    branch: Branch


@dataclass(frozen=True)
class CutClass:
    verdict: CutVerdict
    factor_cut: Optional[frozenset[Edge]] = None
    star_center: Optional[ProductVertex] = None


class CutClassificationError(Exception):
    """A verified minimum cut fit none of the structural classes.

    This is the falsification signal of the whole harness: the offending
    instance is carried along so it can be reported as a counterexample.
    """

    def __init__(self, g: Graph, h: Graph, cut: frozenset[Edge]):
        self.g = g
        self.h = h
        self.cut = cut
        super().__init__(
            f"unclassifiable minimum cut of size {len(cut)} on a "
            f"{g.n}x{h.n}-factor product outside the exceptional pairs"
        )


class ExcludedCaseError(Exception):
    """The (K_2, n=3) pair the super-edge-connectivity criterion excludes."""

    def __init__(self) -> None:
        self.bruteforce_answer = False
        super().__init__(
            "the pair (K_2, n=3) is excluded from the criterion; "
            "brute force answers False (the 6-cycle is not super edge connected)"
        )


def dense_precondition(h: Graph) -> bool:
    """2*delta(h) > |h|, in exact integer arithmetic.

    A graph this dense is automatically connected and nonbipartite; both are
    asserted as sanity checks whenever the predicate holds.
    """
    if h.n < 1:
        raise ValueError("empty factor")
    ok = 2 * h.min_degree() > h.n
    if ok:
        assert h.is_connected()
        assert not h.is_bipartite()
    return ok


# kappa' of each first factor seen while a campaign runs; None outside one.
_kappas: Optional[dict[Graph, int]] = None


def _kappa(g: Graph) -> int:
    """kappa'(g) of a first factor, by this module's ``edge_connectivity``:
    once per graph inside ``_kappa_per_campaign``, else on every call."""
    if g.n < 2:
        return 0
    if _kappas is None:
        return edge_connectivity(g).value
    value = _kappas.get(g)
    if value is None:
        value = _kappas[g] = edge_connectivity(g).value
    return value


@contextmanager
def _kappa_per_campaign() -> Iterator[None]:
    """Keep each first factor's kappa' for the closed form, the criterion
    and the classifier until the block ends, by exception too."""
    global _kappas
    outer, _kappas = _kappas, {}
    try:
        yield
    finally:
        _kappas = outer


def _formula(factor_cut_bound: int, degree_bound: int) -> FormulaResult:
    if factor_cut_bound < degree_bound:
        branch = Branch.FACTOR_CUT
    elif degree_bound < factor_cut_bound:
        branch = Branch.DEGREE_BOUND
    else:
        branch = Branch.TIE
    return FormulaResult(
        value=min(factor_cut_bound, degree_bound),
        factor_cut_bound=factor_cut_bound,
        degree_bound=degree_bound,
        branch=branch,
    )


def kappa_formula(g: Graph, h: Graph) -> FormulaResult:
    """min{2*kappa'(g)*e(h), delta(g)*delta(h)} for a dense factor h.

    Trivial or disconnected g contributes kappa'(g) = 0, giving value 0 in
    agreement with the disconnected product.
    """
    if g.n < 1:
        raise ValueError("empty factor")
    if not dense_precondition(h):
        raise ValueError("the closed form requires 2*delta(h) > |h|")
    return _formula(2 * _kappa(g) * h.edge_count(), g.min_degree() * h.min_degree())


def kappa_formula_kn(g: Graph, n: int) -> FormulaResult:
    """Specialization to a complete factor: min{n(n-1)kappa'(g), (n-1)delta(g)}."""
    if n < 3:
        raise ValueError("complete-factor form requires n >= 3")
    if g.n < 1:
        raise ValueError("empty factor")
    return _formula(n * (n - 1) * _kappa(g), (n - 1) * g.min_degree())


def classify_min_cut(g: Graph, h: Graph, cut: Iterable[Edge]) -> CutClass:
    """Sort a minimum edge cut of g x h into its structural class.

    Star detection runs before factor-cut recovery so overlapping
    descriptions get a deterministic verdict.  A cut that fits neither class
    is only legal when g = K_2 and h is an exceptional family member;
    anything else raises CutClassificationError as a counterexample.  A
    trivial or disconnected g is bad input (ValueError): its empty cut is
    neither a star nor a lift, yet refutes nothing.
    """
    if g.n < 2 or not g.is_connected():
        raise ValueError("classification requires a nontrivial connected first factor")
    if not dense_precondition(h):
        raise ValueError("classification requires 2*delta(h) > |h|")
    product = direct_product(g, h)
    norm = edge_set(product, cut)
    expected = kappa_formula(g, h).value
    if len(norm) != expected:
        raise ValueError(
            f"not a minimum cut: size {len(norm)}, kappa' is {expected}"
        )
    if remove_edges(product, norm).is_connected():
        raise ValueError("cut does not disconnect the product")

    center = is_vertex_star(product, norm)
    if center is not None:
        return CutClass(CutVerdict.VERTEX_STAR, star_center=vertex_pair(center, h.n))

    s0 = frozenset(e for e in g.edges if lifted_edges(e, g, h) <= norm)
    if (s0 and induced_cut(s0, g, h) == norm and len(s0) == _kappa(g)
            and not remove_edges(g, s0).is_connected()):
        return CutClass(CutVerdict.INDUCED_BY_FACTOR_CUT, factor_cut=s0)

    if g == complete_graph(2) and is_exceptional_member(h) is not None:
        return CutClass(CutVerdict.EXCEPTIONAL)
    raise CutClassificationError(g, h, norm)


def is_super_edge_connected_kn(g: Graph, n: int) -> bool:
    """Criterion for g x K_n: super edge connected iff n*kappa'(g) > delta(g).

    Valid for connected g and n >= 3, except the pair (K_2, 3) which raises
    ExcludedCaseError carrying the brute-force answer.
    """
    if n < 3:
        raise ValueError("criterion requires n >= 3")
    if g.n < 2 or not g.is_connected():
        raise ValueError("criterion requires a nontrivial connected graph")
    if g == complete_graph(2) and n == 3:
        raise ExcludedCaseError()
    return n * _kappa(g) > g.min_degree()


# ---------------------------------------------------------------------------
# The exceptional family H_l and its canonical non-star, non-induced cut.

def exceptional_member(l: int) -> Graph:
    """H_l on 4l-1 vertices: the join of 2l-1 isolated vertices (ids 0..2l-2)
    with a perfect matching on 2l vertices (ids 2l-1..4l-2)."""
    if l < 1:
        raise ValueError("family index l must be >= 1")
    g = join(empty_graph(2 * l - 1), matching_graph(l))
    assert g.n == 4 * l - 1
    assert all(g.degree(v) == 2 * l for v in range(g.n))
    matching = _member_matching(l)
    bipartite_part = join(empty_graph(2 * l - 1), empty_graph(2 * l))
    assert remove_edges(g, matching).edges == bipartite_part.edges
    assert dense_precondition(g)
    return g


def _member_matching(l: int) -> frozenset[Edge]:
    base = 2 * l - 1
    return frozenset((base + 2 * i, base + 2 * i + 1) for i in range(l))


def is_exceptional_member(h: Graph) -> Optional[int]:
    """Return l when h is isomorphic to H_l, else None.

    Detection is structural and exact: H_l is the complement of the disjoint
    union of a clique on 2l-1 vertices and a (2l-2)-regular graph on 2l
    vertices missing a perfect matching.  When h is 2l-regular on 4l-1
    vertices its complement is (2l-2)-regular, so complement components of
    2l-1 and 2l vertices are exactly those two pieces.
    """
    n = h.n
    if n < 3 or n % 4 != 3:
        return None
    l = (n + 1) // 4
    if any(h.degree(v) != 2 * l for v in range(n)):
        return None
    if l == 1:
        return 1  # 2-regular on 3 vertices is exactly K_3
    labels = complement(h).component_labels()
    sizes = sorted(labels.count(c) for c in set(labels))
    return l if sizes == [2 * l - 1, 2 * l] else None


def exceptional_cut(l: int) -> tuple[Graph, frozenset[Edge]]:
    """K_2 x H_l together with its canonical exceptional minimum cut.

    The cut lifts only the matching edges of H_l, has size 2l (the product's
    kappa'), and separates the product into two components while being
    neither a vertex star nor the lift of a cut of K_2.
    """
    h = exceptional_member(l)
    product = direct_product(complete_graph(2), h)
    cut = lifted_edges((0, 1), complete_graph(2), Graph(h.n, _member_matching(l)))
    return product, edge_set(product, cut)
