"""Exact edge connectivity, exact enumeration of all minimum cuts, and a
budgeted brute-force oracle for both.

The exact routes run one and the same loop of unit-capacity max-flows on
the graph's edge set, from the block {0..t-1} to each sink t: kappa' is the
least flow value, ``edge_connectivity`` reads its witness off the first flow
that attains it, and ``enumerate_min_cuts`` lists every minimum cut as a
vertex set closed under the residual arcs of a flow that attains it (Picard
and Queyranne, "On the structure of all minimum cuts in a network", 1980).
The max-flow routes need no budget.

The oracle reads only the graph and calls no max-flow.  Two vertices with
more than delta edge-disjoint short paths between them, the edge uv and one
path through each common neighbour, lie on one side of every minimum cut, so
every minimum cut is delta(S) for one union S of these inseparable groups
that holds vertex 0 (``_inseparable_groups``).  There are at most min(deg u,
deg v) such paths, so a vertex of degree delta is a group of its own, and
only vertices of higher degree are paired.  Two exhaustive scans over
such unions list every minimum cut:

- the side scan (``_side_scan_cuts``) tests all 2**(k-1) unions of the k
  groups, many at once in the bit lanes of Python ints;
- the tree scan (``_tree_scan_cuts``) tests the unions whose boundary
  crosses at most kappa' edges of a spanning tree of the quotient by the
  groups.  The fundamental cuts of the tree are a basis of the cut space,
  so delta(S) is the XOR of the fundamental cuts of the tree edges that it
  crosses, and a cut of value v crosses at most v of them.

The budget counts the 64-bit words that a scan touches.
``_subset_min_cuts`` runs the side scan when it fits, else the tree scan
when it fits, and raises BudgetExceeded before any scan starts when neither
does, so an answer depends only on the graph and the budget.
``edge_connectivity_subset`` answers with the least minimum cut by sorted
edge list, ``enumerate_min_cuts_subset`` with all of them, and
``is_super_edge_connected`` reads that list.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .graphs import Edge, Graph, boundary, closure, components, edge, edge_set

DEFAULT_BUDGET = 5_000_000


class BudgetExceeded(Exception):
    """Both subset-oracle scans would touch more 64-bit words than the budget
    allows."""


@dataclass(frozen=True)
class MinCutResult:
    """kappa' plus one witnessing minimum cut."""

    value: int
    witness: frozenset[Edge]


@dataclass(frozen=True)
class CutEnumeration:
    """All minimum cuts of a graph."""

    cuts: tuple[frozenset[Edge], ...]


def _unit_max_flow(
    g: Graph, sources: Iterable[int], t: int, limit: Optional[int] = None
) -> tuple[int, Optional[int], list[dict[int, int]]]:
    """Edmonds-Karp with capacity 1 per direction on every edge of
    ``g.edges``, from the source set merged into one vertex to the sink t.

    Returns (flow, bitmask of what the sources reach in the residual graph,
    residual capacities), where ``cap[u][w] > 0`` is a residual arc u -> w.
    The search stops when the flow reaches ``limit``, and the reach is None.
    """
    n = g.n
    cap = [{} for _ in range(n)]
    for u, v in g.edges:
        cap[u][v] = cap[v][u] = 1
    sources = tuple(sources)
    flow = 0
    while limit is None or flow < limit:
        parent = [-1] * n
        for s in sources:
            parent[s] = s
        queue = deque(sources)
        while queue and parent[t] == -1:
            u = queue.popleft()
            for w, c in cap[u].items():
                if c > 0 and parent[w] == -1:
                    parent[w] = u
                    queue.append(w)
        if parent[t] == -1:
            return flow, sum(1 << v for v in range(n) if parent[v] != -1), cap
        v = t
        while parent[v] != v:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] += 1
            v = u
        flow += 1
    return flow, None, cap


def min_st_cut(
    g: Graph, s: int, t: int, limit: Optional[int] = None
) -> Optional[MinCutResult]:
    """A minimum s-t edge cut by unit-capacity max-flow (Menger's theorem).

    Its value is the local edge connectivity lambda(s, t), and its witness
    the edges that leave what s still reaches in the final residual graph,
    which is s's component once they are removed.  Returns None when
    the flow reaches ``limit``, that is when lambda(s, t) >= limit.
    """
    if not (0 <= s < g.n and 0 <= t < g.n) or s == t:
        raise ValueError(f"need two distinct vertices of 0..{g.n - 1}, got {s} and {t}")
    flow, reach, _ = _unit_max_flow(g, (s,), t, limit)
    if reach is None:
        return None
    witness = boundary(g, reach)
    assert len(witness) == flow
    return MinCutResult(flow, witness)


def _disconnected_cut(g: Graph) -> Optional[MinCutResult]:
    """The empty cut of a disconnected g; None when g is connected."""
    if g.n < 2:
        raise ValueError("edge connectivity requires at least two vertices")
    return None if g.is_connected() else MinCutResult(0, frozenset())


# ---------------------------------------------------------------------------
# Exact kappa' and all minimum cuts by block flows (Picard-Queyranne).

def _closed_sides(cap: list[dict[int, int]], reach: int, t: int) -> Iterator[int]:
    """Every vertex set, as a bitmask, that contains ``reach``, avoids t and
    is closed under the residual arcs ``cap`` of a maximum flow to t, where
    ``reach`` is what the flow's sources reach along those arcs: the source
    sides of the minimum cuts between the sources and t.

    Include/exclude branching on the lowest undecided vertex: including it
    adds what it reaches, excluding it adds what reaches it.  Both closures
    avoid the other side, so every branch ends in one such set.
    """
    n = len(cap)
    succ, pred = [0] * n, [0] * n
    for u in range(n):
        for w, c in cap[u].items():
            if c > 0:
                succ[u] |= 1 << w
                pred[w] |= 1 << u
    full = (1 << n) - 1
    stack = [(reach, closure(1 << t, pred))]
    while stack:
        inside, outside = stack.pop()
        free = full & ~(inside | outside)
        if not free:
            yield inside
            continue
        v = free & -free
        stack.append((inside, outside | closure(v, pred)))
        stack.append((inside | closure(v, succ), outside))


def _block_flows(g: Graph) -> tuple[int, list[tuple[int, int, list]]]:
    """kappa' of a connected g with n >= 2, and each sink t whose max-flow
    from the block {0..t-1} attains it, in ascending t, as (t, residual reach
    as a bitmask, residual capacities).  A minimum cut delta(S), 0 in S, is
    a minimum block-t cut at the least t outside S, so kappa' is the least
    flow.  Each flow stops one above the least value so far, which starts at
    delta (Whitney: kappa' <= delta), so every t that attains kappa' is
    listed with its flow run to the end.
    """
    value, attained = g.min_degree(), []
    for t in range(1, g.n):
        flow, reach, cap = _unit_max_flow(g, range(t), t, limit=value + 1)
        if reach is None:
            continue
        if flow < value:
            value, attained = flow, []
        attained.append((t, reach, cap))
    return value, attained


def edge_connectivity(g: Graph) -> MinCutResult:
    """Exact kappa' by the flows of ``enumerate_min_cuts``: the least t whose
    block flow attains kappa', witnessed by the cut around that flow's
    residual reach, the minimal source side.  Disconnected graphs get value
    0 with an empty witness.

    That t is the least vertex outside S over the minimum cuts delta(S) with
    0 in S, so every minimum 0-t cut holds the block: the minimum 0-t and
    block-t cuts are one family, with the same minimal side.
    """
    trivial = _disconnected_cut(g)
    if trivial is not None:
        return trivial
    value, [(_, reach, _), *_] = _block_flows(g)
    return MinCutResult(value, boundary(g, reach))


def enumerate_min_cuts(g: Graph) -> CutEnumeration:
    """All minimum edge cuts of a connected graph, exactly and without a
    budget: for each t that attains kappa' in ``_block_flows``, the residual
    closed vertex sets between the block {0..t-1} and t (Picard-Queyranne).
    Each cut is found once, at the least vertex outside vertex 0's side.
    """
    if g.n < 2 or not g.is_connected():
        raise ValueError("minimum-cut enumeration requires a connected graph")
    value, attained = _block_flows(g)
    cuts = []
    for t, reach, cap in attained:
        for side in _closed_sides(cap, reach, t):
            cut = boundary(g, side)
            assert len(cut) == value
            cuts.append(cut)
    return CutEnumeration(tuple(sorted(cuts, key=sorted)))


# ---------------------------------------------------------------------------
# The subset oracle: exhaustive scans over unions of inseparable groups.

def _inseparable_groups(g: Graph) -> list[int]:
    """Vertex groups, as bitmasks in order of their least vertex, that no
    minimum cut of g splits: the components of the symmetric relation that
    pairs u and v when [uv in E] + |N(u) & N(v)| > delta(g).

    The edge uv and one path through each common neighbour are edge-disjoint
    u-v paths, so every cut that separates u from v has more than delta >=
    kappa' edges (a contraction test in the style of Padberg and Rinaldi, "An
    efficient algorithm for the minimum capacity cut problem", 1990).  Reads
    only degrees and adjacency masks.

    Each of those paths leaves u by its own edge, and v by its own edge, so
    the left side is at most min(deg u, deg v): the rule pairs only vertices
    of degree above delta, and only those pairs are tested.  A vertex of
    degree delta is a group of its own.
    """
    adj, delta = g.adjacency_masks, g.min_degree()
    high = [v for v, d in enumerate(g.degrees) if d > delta]
    pairs = [0] * g.n  # per vertex, the vertices that the rule pairs it with
    for i, u in enumerate(high):
        au = adj[u]
        for v in high[i + 1:]:
            if (au >> v & 1) + (au & adj[v]).bit_count() > delta:
                pairs[u] |= 1 << v
                pairs[v] |= 1 << u
    return components(pairs)


def _side_layout(g: Graph, k: int) -> tuple[int, int]:
    """The side scan's lanes over k groups: the ``low`` groups that the lanes
    of one int enumerate, and the ``width`` of a lane's field, which holds
    any cut size, at most |E|, below a guard bit."""
    return min(k, k // 2 + 2), len(g.edges).bit_length() + 1


def _quotient(g: Graph, groups: list[int]) -> tuple[list[int], list[list[int]]]:
    """The quotient of g by its vertex ``groups``: each vertex's group index,
    found by walking each group's bits, and the k x k table of the number of
    edges between two groups, filled in one pass over the edges.  The table
    is symmetric with a zero diagonal, and a group's row sum is its degree
    |delta(group)|."""
    group = [0] * g.n
    for i, grp in enumerate(groups):
        while grp:
            low = grp & -grp
            grp ^= low
            group[low.bit_length() - 1] = i
    weight = [[0] * len(groups) for _ in groups]
    for u, v in g.edges:
        a, b = group[u], group[v]
        if a != b:
            weight[a][b] += 1
            weight[b][a] += 1
    return group, weight


def _side_scan_cuts(g: Graph, groups: list[int]) -> list[frozenset[Edge]]:
    """Every minimum cut of a connected g with n >= 2, by a scan of the
    2**(k-1) - 1 proper unions S of the k ``groups`` (``_inseparable_groups``)
    that hold vertex 0, as sorted by ``sorted``.

    No minimum cut splits a group, and a minimum cut leaves two components,
    so it is delta(S) for exactly one such S.  Each group is a weighted
    element: its degree is |delta(group)|, the weight between two groups the
    number of edges between them, and |delta(S)| = sum of the degrees over S
    - 2 * the weight inside S; kappa' is the least value.  The weights come
    from the quotient by the groups (``_quotient``), one pass over the edges,
    and each degree is a row sum of them; its map of each vertex to its
    group lists each group's members.  The low groups 0..l-1 are split off:
    each union A of them that holds group 0 is a lane, a fixed-width field
    of one int, and the tables of |delta(A)| and of each group's weight to
    A are built over the lanes by doubling, one low group at a time.  The high groups then join and leave B in Gray-code order,
    each move updating every lane's |delta(A | B)| at once, from one popcount
    per member of the group that moves.  The fields are offset by the least
    value so far, with a guard bit on top, so one mask test finds the lanes
    at or below it; each such lane is mapped back to its vertex set.  With
    singleton groups this is the scan of all 2**(n-1) - 1 vertex sides.
    """
    n, adj, k = g.n, g.adjacency_masks, len(groups)
    group, weight = _quotient(g, groups)
    outside: list[list[int]] = [[] for _ in groups]
    for v, i in enumerate(group):  # per group, each member's neighbours outside it
        outside[i].append(adj[v] & ~groups[i])
    deg = [sum(row) for row in weight]
    low, width = _side_layout(g, k)
    ones, lanes = 1, 1
    cut = deg[0]  # per lane: |delta(A)|, A = group 0 first
    nbrs = [w[0] for w in weight]  # per group, per lane: its weight to A
    for j in range(1, low):
        shift = width * lanes
        cut |= (cut + deg[j] * ones - 2 * nbrs[j]) << shift
        for v in range(j + 1, k):
            nbrs[v] |= (nbrs[v] + weight[v][j] * ones) << shift
        ones |= ones << shift
        lanes *= 2
    half, field = 1 << (width - 1), (1 << width) - 1
    guard = half * ones
    join = {b: deg[b] * ones - 2 * nbrs[b] for b in range(low, k)}
    twice = [2 * c * ones for c in range(max(deg) + 1)]
    everything = (1 << n) - 1
    # A field of ``state`` holds |delta(A | B)| + half - best - 1, so its
    # guard bit is clear exactly where the cut is at most ``best``.
    best = g.min_degree()
    state = cut + guard - (best + 1) * ones
    high, sides = 0, []
    for step in range(1 << (k - low)):
        if step:
            b = low + (step & -step).bit_length() - 1
            count = 0
            for a in outside[b]:
                count += (a & high).bit_count()
            move = join[b] - twice[count]
            high ^= groups[b]
            state += move if high & groups[b] else -move
        if state & guard == guard:
            continue
        found = []
        clear = guard & ~state
        while clear:
            top = clear.bit_length() - 1
            clear ^= 1 << top
            lane = top // width
            side = groups[0] | high
            for j in range(1, low):
                if lane >> (j - 1) & 1:
                    side |= groups[j]
            if side != everything:
                value = (state >> lane * width & field) + best + 1 - half
                found.append((value, side))
        if not found:
            continue
        least = min(found)[0]
        if least < best:
            state += (best - least) * ones
            best, sides = least, []
        sides.extend(side for value, side in found if value == best)
    return sorted((boundary(g, side) for side in sides), key=sorted)


def _tree_scan_cuts(g: Graph, groups: list[int]) -> list[frozenset[Edge]]:
    """Every minimum cut of a connected g with n >= 2, by a scan of the
    unions S of the k ``groups`` (``_inseparable_groups``) that hold group 0
    and whose boundary crosses few edges of a spanning tree of the quotient
    of g by the groups, as sorted by ``sorted``.

    The edges are the bits of an int, in sorted order.  A group's star is
    the XOR of its members' incident edges, so its inner edges cancel.  The
    quotient by the groups (``_quotient``) gives each vertex's group, and
    each group's neighbours are the groups it has a non-zero weight to.  The
    quotient has a BFS spanning tree from group 0, and the fundamental cut of
    a tree edge is delta of the groups below it, the XOR of their stars,
    summed up the tree in reverse BFS order.  S is matched with the tree
    edges that it crosses, one subset for each S, and delta(S) is the XOR of
    their fundamental cuts.  Crossed tree edges join distinct pairs of
    groups, each by an edge of delta(S), so a cut of value v crosses at most
    v of them.  So a depth-first search over the subsets of tree edges, in
    index order, one XOR and one popcount a step, finds every minimum cut
    when it extends a subset only while the subset has fewer edges than the
    least value so far, which starts at delta.
    """
    edges = sorted(g.edges)
    group, weight = _quotient(g, groups)
    below = [0] * len(groups)  # per group: its star, then its subtree's cut
    for bit, (u, v) in enumerate(edges):
        a, b = group[u], group[v]
        if a != b:
            below[a] ^= 1 << bit
            below[b] ^= 1 << bit
    order, parent = [0], {0: 0}
    for a in order:
        for b, w in enumerate(weight[a]):
            if w and b not in parent:
                parent[b] = a
                order.append(b)
    for b in reversed(order[1:]):
        below[parent[b]] ^= below[b]
    tree = [below[b] for b in order[1:]]
    best, found = g.min_degree(), []

    def extend(start: int, mask: int, size: int) -> None:
        nonlocal best, found
        for i in range(start, len(tree)):
            cut = mask ^ tree[i]
            value = cut.bit_count()
            if value <= best:
                if value < best:
                    best, found = value, []
                found.append(cut)
            if size + 1 < best:
                extend(i + 1, cut, size + 1)

    extend(0, 0, 0)
    bits = []  # per cut, its edges' bits in ascending order, as sorted edges are
    for cut in found:
        bits.append([])
        while cut:
            bits[-1].append((cut & -cut).bit_length() - 1)
            cut &= cut - 1
    return [frozenset(edges[bit] for bit in cut) for cut in sorted(bits)]


def _subset_min_cuts(g: Graph, budget: int) -> list[frozenset[Edge]]:
    """The minimum cuts of a connected g with n >= 2, as sorted by
    ``sorted``, by the side scan or the tree scan over its k inseparable
    groups.

    The budget counts the 64-bit words that a scan touches: the side scan
    makes 2**(k-low) Gray-code moves over lanes of ``width`` bits for each of
    the 2**(low-1) unions of its low groups (``_side_layout``), and the tree
    scan XORs an |E|-bit mask for each of its sum of C(k-1, j) over j <=
    delta subsets.  The side scan runs when it fits, else the tree scan when
    it fits.  When neither fits, BudgetExceeded names the smaller word count
    before any scan starts.
    """
    groups = _inseparable_groups(g)
    k = len(groups)
    low, width = _side_layout(g, k)
    side = (1 << (k - low)) * -(-width * (1 << (low - 1)) // 64)
    if side <= budget:
        return _side_scan_cuts(g, groups)
    subsets = sum(math.comb(k - 1, j) for j in range(1, g.min_degree() + 1))
    tree = subsets * -(-len(g.edges) // 64)
    if tree <= budget:
        return _tree_scan_cuts(g, groups)
    raise BudgetExceeded(f"subset oracle would touch {min(side, tree)} words (budget {budget})")


def edge_connectivity_subset(g: Graph, budget: int = DEFAULT_BUDGET) -> MinCutResult:
    """kappa' by brute force, witnessed by the least minimum cut by sorted
    edge list.  Raises BudgetExceeded under the rule of
    ``_subset_min_cuts``."""
    trivial = _disconnected_cut(g)
    if trivial is not None:
        return trivial
    witness = _subset_min_cuts(g, budget)[0]
    return MinCutResult(len(witness), witness)


def enumerate_min_cuts_subset(g: Graph, budget: int = DEFAULT_BUDGET) -> CutEnumeration:
    """All minimum edge cuts by brute force, the oracle for
    ``enumerate_min_cuts``, in the same order.  kappa' comes from the scan,
    not from max-flow, under the budget rule and message of
    ``_subset_min_cuts``."""
    if g.n < 2 or not g.is_connected():
        raise ValueError("minimum-cut enumeration requires a connected graph")
    return CutEnumeration(tuple(_subset_min_cuts(g, budget)))


def is_vertex_star(g: Graph, cut: Iterable[Edge]) -> Optional[int]:
    """The least vertex whose incident edges are exactly the nonempty cut, if
    any: a star's centre is an end of each of its edges, so of the least."""
    norm = edge_set(g, cut)
    for v in min(norm, default=()):
        if norm == boundary(g, 1 << v):
            return v
    return None


def is_super_edge_connected(g: Graph, budget: int = DEFAULT_BUDGET) -> bool:
    """Definitional check: every minimum edge cut is a vertex star.

    Raises BudgetExceeded when the cut enumeration does not fit the budget.
    """
    return all(is_vertex_star(g, c) is not None
               for c in enumerate_min_cuts_subset(g, budget).cuts)


# ---------------------------------------------------------------------------
# Plain-graph cut text format: space-separated "u-v" tokens on one line.

def format_cut(cut: Iterable[Edge]) -> str:
    return " ".join(f"{u}-{v}" for u, v in sorted(edge(u, v) for u, v in cut))

