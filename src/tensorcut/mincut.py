"""Exact edge connectivity, exact enumeration of all minimum cuts, and a
budgeted subset-scan oracle for both.

The exact routes run on unit-capacity max-flow: kappa' as the smallest
minimum 0-t cut over the sinks t, and every minimum cut as a vertex set
closed under the residual arcs of a max-flow (Picard and Queyranne, "On the
structure of all minimum cuts in a network", 1980).  The brute-force scan of
edge subsets is the independent oracle for both.  Its answers rest on two
bounds from disjoint code.  The scan gives the upper bound: every k-subset
is tested for disconnection, except subsets that touch no spanning-tree
edge, which provably cannot disconnect.  A checked certificate gives the
lower bound: a dominating set D of the graph, and edge-disjoint walks from
its first vertex d0 to each other vertex of D, read off max-flows.  Both
are verified against the graph alone (``_dominates``, ``_is_packing``).  By
Menger's theorem and Matula's lemma (every cut with fewer than delta edges
separates d0 from some other vertex of D; "Determining edge connectivity
in O(nm)", 1987) they prove that no smaller subset disconnects, so those
levels are not scanned, at the cost of |D| - 1 flows rather than n - 1.
A faulty max-flow or dominating set fails the check and costs only time
(the "certifying algorithms" pattern of McConnell, Mehlhorn, Naeher and
Schweitzer, 2011).

The disconnection test runs on blocks of subsets at once: each subset gets a
copy of the adjacency rows as uint64 bitmasks with its edges' bits cleared,
and reachability from vertex 0 grows by sweeps over the vertices.  One sweep
in BFS order settles most connected subsets; the rest sweep until their
reach stops changing.

One budget caps every scan.  Over it, ``edge_connectivity_subset``,
``enumerate_min_cuts_subset`` and ``is_super_edge_connected`` raise
BudgetExceeded instead of answering from a partial scan, so a cut list is
always complete.  The max-flow routes need no budget.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations, takewhile
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .graphs import Edge, Graph, edge

# numpy is imported inside the subset scan only, so the max-flow routes and
# everything that never scans load without it.
if TYPE_CHECKING:
    import numpy as np

DEFAULT_BUDGET = 5_000_000
# A block of the subset scan holds min(_BATCH, _BLOCK_BYTES // (8 n W))
# subsets, so its adjacency rows stay within _BLOCK_BYTES whatever the order n
# (and the rows gathered for its second stage within as much again).
_BATCH = 32768
_BLOCK_BYTES = 1 << 20


class BudgetExceeded(Exception):
    """The requested exhaustive scan would test more subsets than allowed."""


@dataclass(frozen=True)
class MinCutResult:
    """kappa' plus one witnessing minimum cut and its vertex bipartition."""

    value: int
    witness: frozenset[Edge]
    partition: tuple[frozenset[int], frozenset[int]]


@dataclass(frozen=True)
class CutEnumeration:
    """All minimum cuts of a graph."""

    cuts: tuple[frozenset[Edge], ...]


def _unit_max_flow(
    g: Graph, sources: Iterable[int], t: int, limit: Optional[int] = None
) -> tuple[int, Optional[set[int]], list[dict[int, int]]]:
    """Edmonds-Karp with capacity 1 per direction on every edge, from the
    source set merged into one vertex to the sink t.

    Returns (flow, source-side reachable set, residual capacities), where
    ``cap[u][w] > 0`` is a residual arc u -> w.  When ``limit`` is given the
    search aborts as soon as the flow reaches it and the reachable set is None.
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
            return flow, {v for v in range(n) if parent[v] != -1}, cap
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

    Its value is the local edge connectivity lambda(s, t), and its first side
    is what s still reaches in the final residual graph.  Returns None when
    the flow reaches ``limit``, that is when lambda(s, t) >= limit.
    """
    if not (0 <= s < g.n and 0 <= t < g.n) or s == t:
        raise ValueError(f"need two distinct vertices of 0..{g.n - 1}, got {s} and {t}")
    flow, reach, _ = _unit_max_flow(g, (s,), t, limit)
    if reach is None:
        return None
    side = frozenset(reach)
    witness = frozenset(e for e in g.edges if (e[0] in side) != (e[1] in side))
    assert len(witness) == flow
    return MinCutResult(flow, witness, (side, frozenset(range(g.n)) - side))


def _component_cut(g: Graph, witness: frozenset[Edge]) -> MinCutResult:
    """``witness`` with the component of vertex 0 in g minus it as one side."""
    labels = Graph(g.n, g.edges - witness).component_labels()
    side = frozenset(v for v in range(g.n) if labels[v] == labels[0])
    return MinCutResult(len(witness), witness, (side, frozenset(range(g.n)) - side))


def _disconnected_cut(g: Graph) -> Optional[MinCutResult]:
    """The empty cut of a disconnected g; None when g is connected."""
    if g.n < 2:
        raise ValueError("edge connectivity requires at least two vertices")
    return None if g.is_connected() else _component_cut(g, frozenset())


def edge_connectivity(g: Graph) -> MinCutResult:
    """Exact kappa' as the smallest minimum 0-t cut over the sinks t.

    Ties between sinks break toward the smallest sink id, so the witness is
    deterministic.  Disconnected graphs get value 0 with an empty witness.
    """
    trivial = _disconnected_cut(g)
    if trivial is not None:
        return trivial
    best = min_st_cut(g, 0, 1)
    assert best is not None
    for t in range(2, g.n):
        best = min_st_cut(g, 0, t, limit=best.value) or best
    return best


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
# Exact enumeration of all minimum cuts (Picard-Queyranne).

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
    succ = [0] * n
    pred = [0] * n
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


def enumerate_min_cuts(g: Graph) -> CutEnumeration:
    """All minimum edge cuts of a connected graph, exactly and without a budget.

    A minimum cut is found once, at the smallest vertex t outside vertex 0's
    side: it is then a minimum cut between the block {0..t-1} and t.  So for
    t = 1..n-1 a max-flow runs from that block to t; kappa' is the least of
    the flow values, and for each t that attains it the cuts are the residual
    closed vertex sets between the block and t (Picard-Queyranne).
    """
    if g.n < 2 or not g.is_connected():
        raise ValueError("minimum-cut enumeration requires a connected graph")
    # kappa' <= delta (Whitney), and a flow that passes the least value so
    # far stops at once: it cannot attain the minimum.
    value, attained = g.min_degree(), []
    for t in range(1, g.n):
        flow, reach, cap = _unit_max_flow(g, range(t), t, limit=value + 1)
        if reach is None:
            continue
        if flow < value:
            value, attained = flow, []
        attained.append((t, cap))
    cuts = []
    for t, cap in attained:
        for side in _closed_sides(cap, (1 << t) - 1, t):
            cut = frozenset(e for e in g.edges if (side >> e[0] & 1) != (side >> e[1] & 1))
            assert len(cut) == value
            cuts.append(cut)
    return CutEnumeration(tuple(sorted(cuts, key=sorted)))


# ---------------------------------------------------------------------------
# Exhaustive subset scanning.

def _scan_order(g: Graph) -> tuple[list[Edge], int]:
    """Edges with a BFS spanning forest first; returns (order, forest size).

    Subsets disjoint from the forest leave it intact and cannot disconnect,
    and in lexicographic combination order they form a contiguous tail.
    """
    seen = [False] * g.n
    forest: list[Edge] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    forest.append(edge(u, w))
                    queue.append(w)
    rest = sorted(g.edges - set(forest))
    return forest + rest, len(forest)


def _subset_blocks(m: int, k: int, tree_size: int, rows: int) -> Iterator[np.ndarray]:
    """The k-subsets of range(m) whose first index is below ``tree_size``, in
    lexicographic order, as index arrays of ``rows`` rows (the last one
    shorter).

    Only the (k-2)-prefixes come from ``itertools.combinations`` (for k = 2,
    the first indices); ``_expand``, applied twice (once), appends the other
    indices in numpy, so no Python tuple is built per subset or per
    (k-1)-prefix.
    """
    import numpy as np

    if k == 1:
        for lo in range(0, tree_size, rows):
            yield np.arange(lo, min(lo + rows, tree_size))[:, None]
        return
    tail = min(k - 1, 2)  # indices appended by _expand
    prefixes = takewhile(lambda p: p[0] < tree_size,
                         combinations(range(m - tail), k - tail))
    carry = np.empty((0, k), dtype=np.intp)
    while True:
        group, count = [], len(carry)
        for prefix in prefixes:
            group.append(prefix)
            count += math.comb(m - 1 - prefix[-1], tail)
            if count >= rows:
                break
        if not group:
            break
        block = np.array(group, dtype=np.intp)
        for _ in range(tail):
            block = _expand(block, m)
        block = np.concatenate((carry, block))
        cut = len(block) - len(block) % rows
        for lo in range(0, cut, rows):
            yield block[lo:lo + rows]
        carry = block[cut:]
    if len(carry):
        yield carry


def _expand(p: np.ndarray, m: int) -> np.ndarray:
    """Every row of p extended by one last index above its own last index and
    below m, in lexicographic order."""
    import numpy as np

    start = p[:, -1] + 1
    runs = m - start
    first_row = np.cumsum(runs) - runs
    last = np.arange(runs.sum()) + np.repeat(start - first_row, runs)
    return np.column_stack((np.repeat(p, runs, axis=0), last))


def _word_bits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The word index and the bit of each vertex in a row of uint64 words."""
    import numpy as np

    return v >> 6, np.left_shift(np.uint64(1), (v & 63).astype(np.uint64))


def _leading(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A contiguous view, in ``shape``, of the first items of ``buf``."""
    return buf.reshape(-1)[:math.prod(shape)].reshape(shape)


def _sweep_steps(adj: np.ndarray, reach: np.ndarray, vertices: Iterable[int]) -> list:
    """Per vertex, in sweep order: its adjacency rows in ``adj``, the word of
    ``reach`` that holds its bit, and the bit's shift within that word."""
    import numpy as np

    return [(adj[v], reach[:, v >> 6:(v >> 6) + 1], np.uint64(v & 63)) for v in vertices]


def _sweep(steps: list, reach: np.ndarray, hit: np.ndarray, grow: np.ndarray) -> None:
    """One in-place reachability sweep: each vertex, in the order of
    ``steps``, that ``reach`` already holds adds its adjacency row to it."""
    import numpy as np

    one = np.uint64(1)
    for rows_v, word, shift in steps:
        np.right_shift(word, shift, out=hit)
        np.bitwise_and(hit, one, out=hit)
        np.multiply(rows_v, hit, out=grow)
        np.bitwise_or(reach, grow, out=reach)


def _disconnecting_subsets(
    g: Graph, k: int, order: list[Edge], tree_size: int
) -> Iterator[tuple[int, ...]]:
    """Yield index k-subsets of ``order`` whose removal disconnects g, in
    lexicographic order, skipping those that touch no spanning-tree edge.

    Each vertex's adjacency row is a bitmask of W = ceil(n/64) uint64 words.
    A block of b subsets gets its own copy of every row, laid out (n, b, W) so
    that one vertex's rows are contiguous; each subset position then clears
    its edge's two bits.  Reachability grows from vertex 0 in two stages.
    One sweep visits the vertices in the BFS order of g from vertex 0, and
    settles as connected every subset whose reach is then full: reach never
    holds a vertex that vertex 0 cannot reach, so that is sound.  The rows
    and reach of the other subsets are gathered, in order, and sweep
    alternately down and up the vertex numbers until a sweep adds nothing.
    A block holds at most ``_BATCH`` subsets and ``_BLOCK_BYTES`` of rows.
    Its arrays, and spares of the same size for the gathered subsets, are
    allocated once per block size and reused, and the sweeps write into
    them, so the blocks of a scan do not allocate and fault in fresh memory.
    """
    import numpy as np

    if k == 0:
        return
    n = g.n
    words = (n + 63) // 64
    eu = np.array([e[0] for e in order], dtype=np.intp)
    ev = np.array([e[1] for e in order], dtype=np.intp)
    word_u, bit_u = _word_bits(eu)
    word_v, bit_v = _word_bits(ev)
    keep_u, keep_v = ~bit_u, ~bit_v
    base = np.zeros((n, words), dtype=np.uint64)
    np.bitwise_or.at(base, (eu, word_v), bit_v)
    np.bitwise_or.at(base, (ev, word_u), bit_u)
    full = np.zeros(words, dtype=np.uint64)
    np.bitwise_or.at(full, *_word_bits(np.arange(n)))
    rows = max(1, min(_BATCH, _BLOCK_BYTES // (8 * n * words)))
    bfs = [0]  # the first sweep's order
    seen = {0}
    for u in bfs:
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                bfs.append(w)

    size = 0
    for idx in _subset_blocks(len(order), k, tree_size, rows):
        b = len(idx)
        if b != size:  # every block but the last has `rows` subsets
            size = b
            adj = np.empty((n, b, words), dtype=np.uint64)
            reach = np.empty((b, words), dtype=np.uint64)
            grow = np.empty_like(reach)
            hit = np.empty((b, 1), dtype=np.uint64)
            first = _sweep_steps(adj, reach, bfs)
            spare_adj, spare_reach = np.empty_like(adj), np.empty_like(reach)
            before = np.empty_like(reach)
            # flat position of the word holding v in u's row, for subset 0 of
            # the block; subset i is i * words further on
            flat = adj.reshape(-1)
            at_u = eu * (b * words) + word_v
            at_v = ev * (b * words) + word_u
            row = np.arange(b) * words
        np.copyto(adj, base[:, None, :])
        # one subset position at a time, so each statement has distinct
        # targets: a fancy `&=` with repeated targets would apply only one
        for e in idx.T:
            flat[at_u[e] + row] &= keep_v[e]
            flat[at_v[e] + row] &= keep_u[e]

        reach.fill(0)
        reach[:, 0] = 1
        _sweep(first, reach, hit, grow)
        pending = np.flatnonzero((reach != full).any(axis=1))
        c = len(pending)
        if not c:
            continue
        rest_adj = _leading(spare_adj, (n, c, words))
        rest = _leading(spare_reach, (c, words))
        # mode "clip" lets take write into `out` without a buffer; the
        # indices are in range anyway
        np.take(adj, pending, axis=1, out=rest_adj, mode="clip")
        np.take(reach, pending, axis=0, out=rest, mode="clip")
        rest_before, rest_grow = _leading(before, (c, words)), _leading(grow, (c, words))
        steps = _sweep_steps(rest_adj, rest, range(n - 1, -1, -1))
        while True:
            np.copyto(rest_before, rest)
            _sweep(steps, rest, hit[:c], rest_grow)
            if np.array_equal(rest, rest_before):
                break
            steps = steps[::-1]
        for i in pending[(rest != full).any(axis=1)]:
            yield tuple(idx[i].tolist())


def edge_connectivity_subset(g: Graph, budget: int = DEFAULT_BUDGET) -> MinCutResult:
    """kappa' by brute force: scan subsets of increasing size up to min degree.

    The value and witness come from the scan alone: the first disconnecting
    subset, in lexicographic scan order, of the least size that has one.
    Raises BudgetExceeded before starting any level that would push the
    running count of subsets, over all levels from 1, past the budget.
    Levels below a checked lower bound (``_certified_lower_bound``) cannot
    hit and are counted but not scanned, so a faulty max-flow can cost time
    but cannot change an answer or a budget decision.
    """
    trivial = _disconnected_cut(g)
    if trivial is not None:
        return trivial
    order, tree_size = _scan_order(g)
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
        for combo in _disconnecting_subsets(g, k, order, tree_size):
            return _component_cut(g, frozenset(order[i] for i in combo))
    raise AssertionError("removing a minimum-degree star must disconnect")


def enumerate_min_cuts_subset(g: Graph, budget: int = DEFAULT_BUDGET) -> CutEnumeration:
    """All minimum edge cuts, by scanning the C(|E|, kappa') edge subsets.

    The oracle for ``enumerate_min_cuts``.  Raises BudgetExceeded, before
    scanning, when that count exceeds the budget.  kappa' comes from
    max-flow, but the list does not trust it: a checked certificate must prove
    kappa' >= value and the scan must find a cut of that size, or the call
    raises RuntimeError naming the disagreement.
    """
    if g.n < 2 or not g.is_connected():
        raise ValueError("minimum-cut enumeration requires a connected graph")
    value = edge_connectivity(g).value
    bound = _certified_lower_bound(g, value)
    if bound < value:
        raise RuntimeError(
            f"max-flow kappa' {value} exceeds the checked lower bound {bound}"
        )
    subsets = math.comb(len(g.edges), value)
    if subsets > budget:
        raise BudgetExceeded(
            f"cut enumeration would test {subsets} subsets (budget {budget})"
        )
    order, tree_size = _scan_order(g)
    cuts = {
        frozenset(order[i] for i in combo)
        for combo in _disconnecting_subsets(g, value, order, tree_size)
    }
    if not cuts:
        raise RuntimeError(
            f"max-flow kappa' {value} disagrees with the subset scan: no {value} edges disconnect"
        )
    return CutEnumeration(tuple(sorted(cuts, key=sorted)))


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


def parse_cut(text: str) -> frozenset[Edge]:
    out = set()
    for token in text.split():
        try:
            u, v = (int(p) for p in token.split("-"))
        except ValueError as exc:
            raise ValueError(f"bad cut token {token!r}") from exc
        out.add(edge(u, v))
    return frozenset(out)
