"""Direct (tensor) products, H-fibers, lifted edge cuts, and fiber containment.

The product vertex (x, u) is linearized as x*|H| + u, so the H-fiber over x
is the contiguous id block [x*|H|, (x+1)*|H|).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graphs import Edge, Graph, edge, edge_set, remove_edges


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


def _lift(g_edges: Iterable[Edge], h: Graph) -> ProductEdgeCut:
    """The product edges (x,u)(y,v) and (x,v)(y,u) above given g-edges xy and
    every h-edge uv; with x < y, each is already in (min, max) form."""
    nh = h.n
    out = set()
    for x, y in g_edges:
        for u, v in h.edges:
            out.add((x * nh + u, y * nh + v))
            out.add((x * nh + v, y * nh + u))
    return frozenset(out)


def direct_product(g: Graph, h: Graph) -> Graph:
    """(x,u) ~ (y,v) exactly when xy is a g-edge and uv is an h-edge."""
    if g.n < 1 or h.n < 1:
        raise ValueError("direct product requires nonempty factors")
    return Graph(g.n * h.n, _lift(g.edges, h))


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
    return _lift([(x, y)], h)


def induced_cut(s0: Iterable[Edge], g: Graph, h: Graph) -> ProductEdgeCut:
    """Lift a set of g-edges to product edges; size is 2*|s0|*e(h).

    Removing the lift from g x h leaves exactly (g - s0) x h.
    """
    if not h.edges:
        raise ValueError("induced cuts need a factor with at least one edge")
    return _lift(edge_set(g, s0), h)


def fibers_contained(g: Graph, h: Graph, cut: Iterable[Edge]) -> bool:
    """Does every fiber stay inside one component of the product minus the cut?"""
    labels = remove_edges(direct_product(g, h), cut).component_labels()
    return all(len(set(labels[x * h.n:(x + 1) * h.n])) == 1 for x in range(g.n))


# ---------------------------------------------------------------------------
# Line-oriented cut exchange format: one edge per line as "x,u y,v".

def format_product_cut(cut: Iterable[Edge], h_order: int) -> str:
    lines = []
    for p, q in sorted(edge(u, v) for u, v in cut):
        x, u = vertex_pair(p, h_order)
        y, v = vertex_pair(q, h_order)
        lines.append(f"{x},{u} {y},{v}")
    return "\n".join(lines)


def parse_product_cut(text: str, g_order: int, h_order: int) -> ProductEdgeCut:
    """A cut file's edges; ValueError on a line that is not two distinct
    points x,u with 0 <= x < g_order and 0 <= u < h_order, as x*h_order + u
    would alias another vertex or lie past the product."""
    out = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            left, right = line.split()
            x, u = (int(t) for t in left.split(","))
            y, v = (int(t) for t in right.split(","))
            if not (0 <= x < g_order and 0 <= y < g_order
                    and 0 <= u < h_order and 0 <= v < h_order):
                raise ValueError("coordinate out of range")
            out.add(edge(vertex_id(x, u, h_order), vertex_id(y, v, h_order)))
        except ValueError as exc:
            raise ValueError(f"bad cut line {lineno}: {raw!r}") from exc
    return frozenset(out)
