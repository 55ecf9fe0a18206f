"""Direct (tensor) products, H-fibers, lifted edge cuts, and fiber containment.

The product vertex (x, u) is linearized as x*|H| + u, so the H-fiber over x
is the contiguous id block [x*|H|, (x+1)*|H|).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graphs import Edge, Graph, edge, remove_edges


class ProductVertex(NamedTuple):
    x: int
    u: int


ProductEdgeCut = frozenset[Edge]


def vertex_id(x: int, u: int, h_order: int) -> int:
    return x * h_order + u


def vertex_pair(pid: int, h_order: int) -> ProductVertex:
    x, u = divmod(pid, h_order)
    return ProductVertex(x, u)


def fiber(x: int, h_order: int) -> range:
    """Ids of the H-fiber over x."""
    return range(x * h_order, (x + 1) * h_order)


def direct_product(g: Graph, h: Graph) -> Graph:
    """(x,u) ~ (y,v) exactly when xy is a g-edge and uv is an h-edge."""
    if g.n < 1 or h.n < 1:
        raise ValueError("direct product requires nonempty factors")
    nh = h.n
    edges = set()
    for x, y in g.edges:
        for u, v in h.edges:
            edges.add(edge(vertex_id(x, u, nh), vertex_id(y, v, nh)))
            edges.add(edge(vertex_id(x, v, nh), vertex_id(y, u, nh)))
    return Graph(g.n * h.n, edges)


def product_connected(g: Graph, h: Graph) -> bool:
    """Connectivity of g x h from the factors alone.

    Both factors connected and not both bipartite; agrees with a direct
    traversal of the product.
    """
    if g.n < 2 or h.n < 2:
        raise ValueError("product connectivity requires nontrivial factors")
    return (
        g.is_connected()
        and h.is_connected()
        and not (g.is_bipartite() and h.is_bipartite())
    )


def lifted_edges(g_edge: Edge, g: Graph, h: Graph) -> ProductEdgeCut:
    """The 2*e(h) product edges sitting above one g-edge."""
    x, y = edge(*g_edge)
    if (x, y) not in g.edges:
        raise ValueError(f"({x},{y}) is not an edge of the first factor")
    nh = h.n
    out = set()
    for u, v in h.edges:
        out.add(edge(vertex_id(x, u, nh), vertex_id(y, v, nh)))
        out.add(edge(vertex_id(x, v, nh), vertex_id(y, u, nh)))
    return frozenset(out)


def induced_cut(s0: Iterable[Edge], g: Graph, h: Graph) -> ProductEdgeCut:
    """Lift a set of g-edges to product edges; size is 2*|s0|*e(h).

    Removing the lift from g x h leaves exactly (g - s0) x h.
    """
    if not h.edges:
        raise ValueError("induced cuts need a factor with at least one edge")
    out: set[Edge] = set()
    for e in s0:
        out |= lifted_edges(e, g, h)
    return frozenset(out)


def check_product_cut(cut: Iterable[Edge], product: Graph) -> ProductEdgeCut:
    """Normalize a cut and verify every edge lies in the ambient product."""
    norm = frozenset(edge(u, v) for u, v in cut)
    stray = norm - product.edges
    if stray:
        raise ValueError(f"cut edges not in the product: {sorted(stray)}")
    return norm


def fibers_contained(g: Graph, h: Graph, cut: Iterable[Edge]) -> bool:
    """Does every fiber stay inside one component of the product minus the cut?"""
    product = direct_product(g, h)
    norm = check_product_cut(cut, product)
    labels = remove_edges(product, norm).component_labels()
    nh = h.n
    for x in range(g.n):
        block = labels[x * nh:(x + 1) * nh]
        if block.count(block[0]) != nh:
            return False
    return True


# ---------------------------------------------------------------------------
# Line-oriented cut exchange format: one edge per line as "x,u y,v".

def format_product_cut(cut: Iterable[Edge], h_order: int) -> str:
    lines = []
    for p, q in sorted(edge(u, v) for u, v in cut):
        x, u = vertex_pair(p, h_order)
        y, v = vertex_pair(q, h_order)
        lines.append(f"{x},{u} {y},{v}")
    return "\n".join(lines)


def parse_product_cut(text: str, h_order: int) -> ProductEdgeCut:
    out = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            left, right = line.split()
            x, u = (int(t) for t in left.split(","))
            y, v = (int(t) for t in right.split(","))
        except ValueError as exc:
            raise ValueError(f"bad cut line {lineno}: {raw!r}") from exc
        out.add(edge(vertex_id(x, u, h_order), vertex_id(y, v, h_order)))
    return frozenset(out)
