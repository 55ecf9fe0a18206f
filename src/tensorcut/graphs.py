"""Simple undirected graphs on dense integer vertex ids.

Vertices are always 0..n-1 and edges are unordered pairs stored in (min, max)
form, so two graphs are equal exactly when they have the same order and the
same edge set under identical numbering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to (min, max) form."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def closure(start: int, arcs: Sequence[int]) -> int:
    """The vertices reachable from the bitmask ``start`` along ``arcs``
    (per-vertex successor bitmasks), as a bitmask."""
    seen = frontier = start
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = arcs[v] & ~seen
        seen |= new
        frontier |= new
    return seen


def components(arcs: Sequence[int]) -> list[int]:
    """The closures of symmetric ``arcs`` on the vertices 0..len(arcs)-1, each
    from the least vertex that no earlier one reached: the connected
    components, as bitmasks in order of their least vertex."""
    left, comps = (1 << len(arcs)) - 1, []
    while left:
        comps.append(closure(left & -left, arcs))
        left &= ~comps[-1]
    return comps


def boundary(g: Graph, side: int) -> frozenset[Edge]:
    """The edges of g with exactly one end in ``side``, a bitmask of
    vertices of g: delta(S), and the star of v when ``side`` is 1 << v.

    Walks the vertices of the smaller of ``side`` and its complement, lowest
    bit first, and emits each one's neighbours on the other side, read off
    its adjacency mask: O(min(|S|, n - |S|) + |delta(S)|) big-int steps
    rather than a pass over every edge.
    """
    adj, full = g.adjacency_masks, (1 << g.n) - 1
    walk, far = side, full ^ side
    if far.bit_count() < walk.bit_count():
        walk, far = far, walk
    cut = []
    while walk:
        low = walk & -walk
        walk ^= low
        u = low.bit_length() - 1
        nbrs = adj[u] & far
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            v = bit.bit_length() - 1
            cut.append((u, v) if u < v else (v, u))
    return frozenset(cut)


def edge_set(g: Graph, edges: Iterable[Edge]) -> frozenset[Edge]:
    """The given edges in (min, max) form; ValueError naming any g lacks."""
    norm = frozenset(edge(u, v) for u, v in edges)
    missing = norm - g.edges
    if missing:
        raise ValueError(f"edges not in graph: {sorted(missing)}")
    return norm


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: ``n`` vertices plus a set of unordered edges."""

    n: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = frozenset(edge(u, v) for u, v in self.edges)
        for u, v in norm:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        object.__setattr__(self, "edges", norm)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor sets as integer bitmasks."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Per-vertex degrees, the popcounts of the adjacency masks."""
        return tuple(mask.bit_count() for mask in self.adjacency_masks)

    @cached_property
    def _min_degree(self) -> int:
        return min(self.degrees)

    def degree(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self.degrees[v]

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("min_degree undefined for the empty graph")
        return self._min_degree

    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def component_labels(self) -> list[int]:
        """Label each vertex with the index of its connected component, the
        components in order of their least vertex."""
        labels = [0] * self.n
        for label, comp in enumerate(components(self.adjacency_masks)):
            while comp:
                labels[(comp & -comp).bit_length() - 1] = label
                comp &= comp - 1
        return labels

    def component_count(self) -> int:
        return len(components(self.adjacency_masks))

    @cached_property
    def _connected(self) -> bool:
        return closure(1, self.adjacency_masks) == (1 << self.n) - 1

    @cached_property
    def _bipartite(self) -> bool:
        n, adj = self.n, self.adjacency_masks
        cover = [a << n for a in adj] + list(adj)
        return not any(comp >> n & comp for comp in components(cover))

    def is_connected(self) -> bool:
        """The closure of vertex 0 is every vertex, found once per graph.
        K_1 is connected."""
        if self.n == 0:
            raise ValueError("connectivity undefined for the empty graph")
        return self._connected

    def is_bipartite(self) -> bool:
        """No odd cycle, found once per graph: in the bipartite double cover
        G x K_2, where vertex v has the copies v and v + n, no component
        holds both copies of a vertex."""
        return self._bipartite


def remove_edges(g: Graph, cut: Iterable[Edge]) -> Graph:
    """Copy of ``g`` with the given edges deleted (each must exist)."""
    return Graph(g.n, g.edges - edge_set(g, cut))


def complement(g: Graph) -> Graph:
    pairs = {
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in g.edges
    }
    return Graph(g.n, pairs)


# ---------------------------------------------------------------------------
# Named constructions.

def empty_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("empty_graph requires n >= 1")
    return Graph(n, frozenset())


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete_graph requires n >= 1")
    return Graph(n, {(u, v) for u in range(n) for v in range(u + 1, n)})


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path_graph requires n >= 1")
    return Graph(n, {(i, i + 1) for i in range(n - 1)})


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle_graph requires n >= 3")
    return Graph(n, {(i, (i + 1) % n) for i in range(n)})


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite_graph requires both parts nonempty")
    return Graph(a + b, {(i, a + j) for i in range(a) for j in range(b)})


def matching_graph(l: int) -> Graph:
    """l disjoint edges on 2l vertices: (0,1), (2,3), ..."""
    if l < 1:
        raise ValueError("matching_graph requires l >= 1")
    return Graph(2 * l, {(2 * i, 2 * i + 1) for i in range(l)})


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shifted = {(u + g.n, v + g.n) for u, v in h.edges}
    return Graph(g.n + h.n, set(g.edges) | shifted)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint copies of g and h plus every edge between the two sides."""
    base = disjoint_union(g, h)
    cross = {(u, g.n + w) for u in range(g.n) for w in range(h.n)}
    return Graph(base.n, set(base.edges) | cross)

