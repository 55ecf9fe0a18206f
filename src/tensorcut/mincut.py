"""Exact edge connectivity, exact enumeration of all minimum cuts, and a
budgeted brute-force oracle for both.

The exact routes share one loop of unit-capacity max-flows, from the block
{0..t-1} to each sink t: kappa' is the least flow value, and every minimum
cut a vertex set closed under the residual arcs of a flow that attains it
(Picard and Queyranne, "On the structure of all minimum cuts in a network",
1980).  An edge-subset scan and a vertex-side scan are the oracle for both.
The first rests on two bounds from disjoint code.  The scan gives the upper
bound: every k-subset is tested for disconnection, except subsets that
touch no spanning-tree edge, which provably cannot disconnect.  A checked
certificate gives the lower bound: a dominating set D of the graph, and
edge-disjoint walks from its first vertex d0 to each other vertex of D,
read off max-flows.  Both are verified against the graph alone
(``_dominates``, ``_is_packing``).  By Menger's theorem and Matula's lemma
(every cut with fewer than delta edges separates d0 from some other vertex
of D; "Determining edge connectivity in O(nm)", 1987) they prove that no
smaller subset disconnects, so those levels are not scanned, at the cost of
|D| - 1 flows rather than n - 1.  A faulty max-flow or dominating set fails
the check and costs only time (the "certifying algorithms" pattern of
McConnell, Mehlhorn, Naeher and Schweitzer, 2011).

The disconnection test runs on blocks of subsets at once, one subset per
bit lane of Python ints: each edge has the mask of the lanes that keep it,
each vertex the mask of the lanes where vertex 0 reaches it, and the reach
masks grow by sweeps over the vertices.  One sweep in BFS order settles
most blocks as connected; the rest sweep until their reach stops changing.

A dense graph has a large kappa', and the edge scan's levels grow as
C(|E|, kappa').  The side scan's cost does not depend on kappa': every
minimum cut is delta(S) for one vertex set S that holds vertex 0.  Two
vertices with more than delta edge-disjoint short paths between them, the
edge uv and one path through each common neighbour, lie on one side of
every minimum cut, so S is a union of these inseparable groups
(``_inseparable_groups``), and the scan tests all 2**(groups-1) such
unions, reading only degrees and adjacency masks.  ``_first_level_hits``
runs whichever of the two is smaller under the budget, so kappa' is the
least side value or the first level with a disconnecting subset;
``edge_connectivity_subset`` takes the first cut it yields and
``enumerate_min_cuts_subset`` all of them.  Over budget, they and
``is_super_edge_connected`` raise BudgetExceeded instead of answering from
a partial scan.  The max-flow routes need no budget.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, compress, takewhile
from operator import and_
from typing import Iterable, Iterator, Optional

from .graphs import Edge, Graph, edge

DEFAULT_BUDGET = 5_000_000
# A block of the subset scan holds at most m**t <= _LANE_BOUND subsets, one
# per bit of an int, for the m edges and t trailing indices of its subsets.
_LANE_BOUND = 1 << 18


class BudgetExceeded(Exception):
    """The requested exhaustive scan would test more edge subsets or vertex
    sides than allowed."""


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
    """Edmonds-Karp with capacity 1 per direction on every edge, from the
    source set merged into one vertex to the sink t.

    Returns (flow, bitmask of what the sources reach in the residual graph,
    residual capacities), where ``cap[u][w] > 0`` is a residual arc u -> w.
    The search stops when the flow reaches ``limit``, and the reach is None.
    """
    n = g.n
    cap = [dict.fromkeys(g.neighbors(v), 1) for v in range(n)]
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


def _boundary(g: Graph, side: int) -> frozenset[Edge]:
    """The edges of g with exactly one end in the bitmask ``side``."""
    return frozenset(e for e in g.edges if (side >> e[0] & 1) != (side >> e[1] & 1))


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
    witness = _boundary(g, reach)
    assert len(witness) == flow
    return MinCutResult(flow, witness)


def _disconnected_cut(g: Graph) -> Optional[MinCutResult]:
    """The empty cut of a disconnected g; None when g is connected."""
    if g.n < 2:
        raise ValueError("edge connectivity requires at least two vertices")
    return None if g.is_connected() else MinCutResult(0, frozenset())


# ---------------------------------------------------------------------------
# Certified lower bounds: a dominating set and edge-disjoint walks read off
# max-flows, checked.

def _flow_walks(cap: list[dict[int, int]], s: int, t: int, count: int) -> list[list[int]]:
    """``count`` s-t walks along the arcs that carry flow, those of residual
    capacity ``cap[u][w] == 0``, each arc taken at most once.

    A walk that reaches a vertex with no flow arc left ends there, short of
    t; the checker, not this reader, decides what the walks prove.
    """
    out = [[w for w, c in arcs.items() if c == 0] for arcs in cap]
    walks = []
    for _ in range(count):
        walk = [s]
        while walk[-1] != t and out[walk[-1]]:
            walk.append(out[walk[-1]].pop())
        walks.append(walk)
    return walks


def _is_packing(g: Graph, s: int, t: int, walks: Iterable[list[int]]) -> bool:
    """Whether ``walks`` are edge-disjoint s-t walks in g.

    Each walk must start at s, end at t and step only along edges of g, and
    no edge may appear twice across the walks.  By Menger's theorem, k such
    walks prove that every s-t edge cut has at least k edges.
    """
    used: set[Edge] = set()
    for walk in walks:
        if not walk or walk[0] != s or walk[-1] != t:
            return False
        for u, w in zip(walk, walk[1:]):
            if u == w:
                return False
            e = edge(u, w)
            if e not in g.edges or e in used:
                return False
            used.add(e)
    return True


def _dominating_set(g: Graph) -> list[int]:
    """A dominating set of g, built greedily: vertex 0 first, then, while
    some vertex is neither in the set nor next to it, the vertex that covers
    the most such vertices, ties going to the lowest id."""
    closed = [mask | 1 << v for v, mask in enumerate(g.adjacency_masks)]
    dom, left = [0], ((1 << g.n) - 1) & ~closed[0]
    while left:
        v = max(range(g.n), key=lambda v: (closed[v] & left).bit_count())
        dom.append(v)
        left &= ~closed[v]
    return dom


def _dominates(g: Graph, dom: list[int]) -> bool:
    """Whether ``dom`` is a set of vertices of g that every vertex of g is in
    or next to."""
    inside = set(dom)
    return inside <= set(range(g.n)) and all(
        v in inside or any(w in inside for w in g.neighbors(v)) for v in range(g.n))


def _certified_lower_bound(g: Graph, want: int) -> int:
    """A checked lower bound on kappa' of g, at most ``want``.

    Matula's lemma ("Determining edge connectivity in O(nm)", 1987): let D
    dominate g and d0 be in D.  A cut with fewer than delta(g) edges leaves
    more than delta(g) vertices on each side, so each side has a vertex with
    no cut edge, and D holds it or a neighbour of it on its side.  Some d in
    D then lies across the cut from d0, so kappa' >= min(delta(g),
    lambda(d0, d) over d in D - {d0}).  ``_dominates`` checks D against g,
    and for each d a max-flow from d0 capped at the bound so far yields
    edge-disjoint d0-d walks, which ``_is_packing`` checks against g alone.
    A rejected set or packing gives 0.
    """
    dom = _dominating_set(g)
    if not _dominates(g, dom):
        return 0
    s, bound = dom[0], min(want, g.min_degree())
    for t in dom[1:]:
        flow, _, cap = _unit_max_flow(g, (s,), t, limit=bound)
        walks = _flow_walks(cap, s, t, flow)
        if not _is_packing(g, s, t, walks):
            return 0
        bound = min(bound, len(walks))
    return bound


# ---------------------------------------------------------------------------
# Exact kappa' and all minimum cuts by block flows (Picard-Queyranne).

def _closure(start: int, arcs: list[int]) -> int:
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


def _closed_sides(cap: list[dict[int, int]], block: int, t: int) -> Iterator[int]:
    """Every vertex set, as a bitmask, that contains the bitmask ``block``,
    avoids t and is closed under the residual arcs ``cap`` of a maximum flow
    from the block to t: the source sides of the minimum block-t cuts.

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
    stack = [(_closure(block, succ), _closure(1 << t, pred))]
    while stack:
        inside, outside = stack.pop()
        free = full & ~(inside | outside)
        if not free:
            yield inside
            continue
        v = free & -free
        stack.append((inside, outside | _closure(v, pred)))
        stack.append((inside | _closure(v, succ), outside))


def _block_flows(g: Graph, ties: bool) -> tuple[int, list[tuple[int, int, list]]]:
    """kappa' of a connected g with n >= 2, and each sink t whose max-flow
    from the block {0..t-1} attains it, as (t, residual reach as a bitmask,
    residual capacities).  A minimum cut delta(S), 0 in S, is a minimum
    block-t cut at the least t outside S, so kappa' is the least flow.  A
    flow stops once it passes the least value so far, to list every t that
    attains kappa' (``ties``), or else once it reaches it, to list the least
    t only; the first flows stop at delta + 1 (Whitney: kappa' <= delta).
    """
    value, attained = g.min_degree() + 1 - ties, []
    for t in range(1, g.n):
        flow, reach, cap = _unit_max_flow(g, range(t), t, limit=value + ties)
        if reach is None:
            continue
        if flow < value:
            value, attained = flow, []
        attained.append((t, reach, cap))
    return value, attained


def edge_connectivity(g: Graph) -> MinCutResult:
    """Exact kappa', the first half of ``enumerate_min_cuts``: the least t
    whose block flow attains kappa', witnessed by the cut around that flow's
    residual reach, the minimal source side.  Disconnected graphs get value
    0 with an empty witness.

    That t is the least vertex outside S over the minimum cuts delta(S) with
    0 in S, so every minimum 0-t cut holds the block: the minimum 0-t and
    block-t cuts are one family, with the same minimal side.
    """
    trivial = _disconnected_cut(g)
    if trivial is not None:
        return trivial
    value, [(_, reach, _)] = _block_flows(g, ties=False)
    return MinCutResult(value, _boundary(g, reach))


def enumerate_min_cuts(g: Graph) -> CutEnumeration:
    """All minimum edge cuts of a connected graph, exactly and without a
    budget: for each t that attains kappa' in ``_block_flows``, the residual
    closed vertex sets between the block {0..t-1} and t (Picard-Queyranne).
    Each cut is found once, at the least vertex outside vertex 0's side.
    """
    if g.n < 2 or not g.is_connected():
        raise ValueError("minimum-cut enumeration requires a connected graph")
    value, attained = _block_flows(g, ties=True)
    cuts = []
    for t, _, cap in attained:
        for side in _closed_sides(cap, (1 << t) - 1, t):
            cut = _boundary(g, side)
            assert len(cut) == value
            cuts.append(cut)
    return CutEnumeration(tuple(sorted(cuts, key=sorted)))


# ---------------------------------------------------------------------------
# Exhaustive subset scanning.

def _scan_order(g: Graph) -> tuple[list[Edge], list[int]]:
    """The edges of a connected g, the n - 1 edges of a BFS spanning tree
    from vertex 0 first, and the vertices in that BFS order.

    Subsets disjoint from the tree leave it intact and cannot disconnect,
    and in lexicographic combination order they form a contiguous tail.
    """
    bfs, tree, seen = [0], [], {0}
    for u in bfs:
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                bfs.append(w)
                tree.append(edge(u, w))
    return tree + sorted(g.edges - set(tree)), bfs


def _lane_masks(m: int, t: int) -> list[int]:
    """Per index j < m, a bitmask of the t-subsets of range(m) that hold j,
    one bit (lane) per subset in lexicographic order.

    The t-subsets with first index a are a followed by each (t-1)-subset
    above a, and those are the last C(m-a-1, t-1) of all (t-1)-subsets, so
    each t comes from the masks for t - 1 by one shift per index pair.
    """
    masks, lanes = [1 << j for j in range(m)], m
    for d in range(2, t + 1):
        level, at = [0] * m, 0
        for a in range(m):
            width = math.comb(m - a - 1, d - 1)
            level[a] |= ((1 << width) - 1) << at
            for j in range(a + 1, m):
                level[j] |= masks[j] >> (lanes - width) << at
            at += width
        masks, lanes = level, at
    return masks


def _sweep(adj: list[list[tuple[int, int]]], reach: list[int], vertices: Iterable[int]) -> None:
    """One in-place reachability sweep: each vertex v, in the order given,
    adds its reach to each neighbour w of its (w, kept) pairs in ``adj[v]``,
    in the lanes that keep that edge."""
    for v in vertices:
        rv = reach[v]
        if rv:
            for w, kept in adj[v]:
                reach[w] |= rv & kept


def _disconnecting_subsets(
    g: Graph, k: int, order: list[Edge], bfs: list[int]
) -> Iterator[tuple[int, ...]]:
    """Yield index k-subsets of ``order`` whose removal disconnects the
    connected g, in lexicographic order, skipping those that touch none of
    its first n - 1 edges, a spanning tree (``_scan_order``).

    A block holds every k-subset with the same first k - t indices, one per
    bit lane of Python ints, the last t indices in lexicographic order: t =
    min(k - 1, 3), or 1 for k = 1, lowered while m**t exceeds
    ``_LANE_BOUND``.  Each edge gets the mask of the lanes that keep it, and
    each vertex the mask of the lanes where vertex 0 reaches it.  One sweep
    visits the vertices in ``bfs``, a BFS order from vertex 0; a block whose
    lanes then all reach every vertex is connected, since reach never holds
    a vertex that vertex 0 cannot reach.  Otherwise the sweeps go alternately
    down and up the vertex numbers until one adds nothing, and the lanes
    that miss some vertex disconnect.
    """
    if k == 0:
        return
    n, m, tree_size = g.n, len(order), g.n - 1
    t = 1 if k == 1 else min(k - 1, 3)
    while t > 1 and m ** t > _LANE_BOUND:
        t -= 1
    total = math.comb(m, t)
    kept = [((1 << total) - 1) ^ mask for mask in _lane_masks(m, t)]
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, (u, v) in enumerate(order):
        incident[u].append((v, j))
        incident[v].append((u, j))
    down = range(n - 1, -1, -1)

    if k == 1:
        prefixes: Iterable[tuple[int, ...]] = [()]
    else:
        prefixes = takewhile(lambda p: p[0] < tree_size, combinations(range(m - t), k - t))
    for prefix in prefixes:
        first = prefix[-1] + 1 if prefix else 0
        lanes = math.comb(m - first, t)
        full = (1 << lanes) - 1
        keep = [full] * first + [mask >> (total - lanes) for mask in kept[first:]]
        for j in prefix:
            keep[j] = 0
        adj = [[(w, keep[j]) for w, j in incident[v]] for v in range(n)]
        reach = [full] + [0] * (n - 1)
        _sweep(adj, reach, bfs)
        steps = down
        while (joint := reduce(and_, reach)) != full:
            before = reach[:]
            _sweep(adj, reach, steps)
            if reach == before:
                break
            steps = steps[::-1]
        hits = full ^ joint
        if not prefix:  # the lanes of k = 1 run past the spanning tree
            hits &= (1 << tree_size) - 1
        if hits:
            tails = combinations(range(first, m), t)
            for tail in compress(tails, map(int, f"{hits:b}"[::-1])):
                yield prefix + tail


def _edge_level_hits(g: Graph, budget: int) -> Iterator[frozenset[Edge]]:
    """The disconnecting edge sets of the least size that has one, in
    lexicographic scan order, for a connected g with n >= 2.

    That size is kappa', and level delta always hits.  Raises BudgetExceeded
    before starting any level that would push the running count of subsets,
    over all levels from 1, past the budget.  Levels below a checked lower
    bound (``_certified_lower_bound``) cannot hit and are counted but not
    scanned, so a faulty max-flow can cost time but cannot change an answer
    or a budget decision.
    """
    order, bfs = _scan_order(g)
    m = len(order)
    spent, stop = 1, g.min_degree()
    for k in range(1, stop + 1):
        spent += math.comb(m, k)
        if spent > budget:
            stop = k
            break
    for k in range(max(1, _certified_lower_bound(g, stop)), stop + 1):
        if k == stop and spent > budget:
            raise BudgetExceeded(
                f"subset search would test {spent} subsets (budget {budget})"
            )
        hits = _disconnecting_subsets(g, k, order, bfs)
        for first in hits:
            return (frozenset(order[i] for i in combo) for combo in chain((first,), hits))
    raise AssertionError("removing a minimum-degree star must disconnect")


# ---------------------------------------------------------------------------
# Exhaustive side scanning, and the choice between the two scans.

def _inseparable_groups(g: Graph) -> list[int]:
    """Vertex groups, as bitmasks in order of their least vertex, that no
    minimum cut of g splits: u and v share a group when [uv in E] + |N(u) &
    N(v)| > delta(g), closed transitively.

    The edge uv and one path through each common neighbour are edge-disjoint
    u-v paths, so every cut that separates u from v has more than delta >=
    kappa' edges (a contraction test in the style of Padberg and Rinaldi, "An
    efficient algorithm for the minimum capacity cut problem", 1990).  Reads
    only degrees and adjacency masks.
    """
    adj, delta = g.adjacency_masks, g.min_degree()
    root = list(range(g.n))  # union-find, each root the least vertex of its group

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (adj[u] >> v & 1) + (adj[u] & adj[v]).bit_count() > delta:
                a, b = find(u), find(v)
                root[max(a, b)] = min(a, b)
    groups: dict[int, int] = {}
    for v in range(g.n):
        r = find(v)
        groups[r] = groups.get(r, 0) | 1 << v
    return list(groups.values())


def _side_scan_cuts(g: Graph, groups: list[int]) -> list[frozenset[Edge]]:
    """Every minimum cut of a connected g with n >= 2, by a scan of the
    2**(k-1) - 1 proper unions S of the k ``groups`` (``_inseparable_groups``)
    that hold vertex 0, as sorted by ``sorted``.

    No minimum cut splits a group, and a minimum cut leaves two components,
    so it is delta(S) for exactly one such S.  Each group is a weighted
    element: its degree is |delta(group)|, the weight between two groups the
    number of edges between them, and |delta(S)| = sum of the degrees over S
    - 2 * the weight inside S; kappa' is the least value.  The low groups
    0..l-1 are split off: each union A of them that holds group 0 is a lane,
    a fixed-width field of one int, and the tables of |delta(A)| and of each
    group's weight to A are built over the lanes by doubling, one low group
    at a time.  The high groups then join and leave B in Gray-code order,
    each move updating every lane's |delta(A | B)| at once, from one popcount
    per member of the group that moves.  The fields are offset by the least
    value so far, with a guard bit on top, so one mask test finds the lanes
    at or below it; each such lane is mapped back to its vertex set.  With
    singleton groups this is the scan of all 2**(n-1) - 1 vertex sides.
    """
    n, adj, k = g.n, g.adjacency_masks, len(groups)
    # per group, each member's neighbours outside the group
    outside = [tuple(adj[v] & ~grp for v in range(n) if grp >> v & 1) for grp in groups]
    deg = [sum(a.bit_count() for a in out) for out in outside]
    weight = [[sum((a & other).bit_count() for a in out) for other in groups]
              for out in outside]
    width = len(g.edges).bit_length() + 1  # cut sizes <= |E| below a guard bit
    low = min(k, k // 2 + 2)
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
    return sorted((_boundary(g, side) for side in sides), key=sorted)


def _first_level_hits(g: Graph, budget: int) -> Iterator[frozenset[Edge]]:
    """The minimum cuts of a connected g with n >= 2, by whichever
    exhaustive scan is smaller.

    The side scan (``_side_scan_cuts``) tests 2**(k-1) unions of the k
    inseparable groups (``_inseparable_groups``), the level search
    (``_edge_level_hits``) at most the sum of C(|E|, j) over j <= delta edge
    subsets.  The side scan runs when its count fits both the budget and
    that sum, and yields the cuts sorted by ``sorted``; the level search
    runs otherwise, under its own budget rule, and yields them in
    lexicographic scan order.  So an answer depends only on the graph and
    the budget, and BudgetExceeded is raised only when 2**(k-1) is over the
    budget too.
    """
    groups = _inseparable_groups(g)
    sides = 1 << (len(groups) - 1)
    if sides <= budget and sides <= sum(
            math.comb(len(g.edges), k) for k in range(g.min_degree() + 1)):
        return iter(_side_scan_cuts(g, groups))
    return _edge_level_hits(g, budget)


def edge_connectivity_subset(g: Graph, budget: int = DEFAULT_BUDGET) -> MinCutResult:
    """kappa' by brute force, witnessed by the first minimum cut that
    ``_first_level_hits`` yields: the least by sorted edge list where the
    side scan runs, else the first disconnecting subset, in lexicographic
    scan order, of the least size that has one.  Raises BudgetExceeded under
    the rule of ``_first_level_hits``."""
    trivial = _disconnected_cut(g)
    if trivial is not None:
        return trivial
    witness = next(_first_level_hits(g, budget))
    return MinCutResult(len(witness), witness)


def enumerate_min_cuts_subset(g: Graph, budget: int = DEFAULT_BUDGET) -> CutEnumeration:
    """All minimum edge cuts by brute force, the oracle for
    ``enumerate_min_cuts``: every disconnecting edge set of the least size
    that has one.  kappa' comes from the scan, not from max-flow, under the
    budget rule and message of ``_first_level_hits``."""
    if g.n < 2 or not g.is_connected():
        raise ValueError("minimum-cut enumeration requires a connected graph")
    return CutEnumeration(tuple(sorted(_first_level_hits(g, budget), key=sorted)))


def is_vertex_star(g: Graph, cut: Iterable[Edge]) -> Optional[int]:
    """The vertex whose full incident edge set equals the cut, if any."""
    norm = frozenset(edge(u, v) for u, v in cut)
    stray = norm - g.edges
    if stray:
        raise ValueError(f"cut edges not in graph: {sorted(stray)}")
    if not norm:
        return None
    it = iter(norm)
    common = set(next(it))
    for e in it:
        common &= set(e)
    for v in sorted(common):
        if norm == frozenset(edge(v, w) for w in g.neighbors(v)):
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

