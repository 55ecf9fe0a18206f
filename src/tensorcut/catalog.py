"""Canonical forms, brute-force isomorphism, and exhaustive small-graph lists.

The canonical key is the lexicographically smallest upper-triangle adjacency
bitstring over all vertex orderings, found by a column-by-column backtracking
search.  Intended for desk-scale orders only; corpora beyond n = 7 must be
supplied externally as graph6 files.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph

MAX_ISO_ORDER = 10
MAX_ENUM_ORDER = 7


def canonical_key(g: Graph) -> int:
    """Minimum adjacency bitstring (column order) over all vertex orderings."""
    n = g.n
    if n <= 1:
        return 0
    masks = g.adjacency_masks
    total = n * (n - 1) // 2
    best: int | None = None
    placed: list[int] = []

    def extend(used: int, bits: int, blen: int) -> None:
        nonlocal best
        k = len(placed)
        if k == n:
            if best is None or bits < best:
                best = bits
            return
        cols = []
        for v in range(n):
            if used >> v & 1:
                continue
            col = 0
            mv = masks[v]
            for u in placed:
                col = (col << 1) | (mv >> u & 1)
            cols.append((col, v))
        cols.sort()
        nlen = blen + k
        for col, v in cols:
            nb = (bits << k) | col
            # Candidates are ascending, so the first too-large prefix ends the level.
            if best is not None and nb > (best >> (total - nlen)):
                break
            placed.append(v)
            extend(used | (1 << v), nb, nlen)
            placed.pop()

    extend(0, 0, 0)
    assert best is not None
    return best


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test via canonical forms; desk scale (n <= 10) only."""
    if g.n > MAX_ISO_ORDER or h.n > MAX_ISO_ORDER:
        raise ValueError(f"isomorphism oracle limited to n <= {MAX_ISO_ORDER}")
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(
        h.degree(v) for v in range(h.n)
    ):
        return False
    return canonical_key(g) == canonical_key(h)


def require_enumerable(n: int) -> None:
    """Raise ValueError unless ``all_graphs`` covers order n."""
    if not 1 <= n <= MAX_ENUM_ORDER:
        raise ValueError(
            f"internal enumeration covers 1 <= n <= {MAX_ENUM_ORDER};"
            " supply larger corpora as graph6 files"
        )


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic graphs on exactly n vertices, deterministically ordered."""
    require_enumerable(n)
    if n == 1:
        return (Graph(1),)
    found: dict[int, Graph] = {}
    v = n - 1
    for parent in all_graphs(n - 1):
        for mask in range(1 << v):
            extra = {(i, v) for i in range(v) if mask >> i & 1}
            cand = Graph(n, set(parent.edges) | extra)
            key = canonical_key(cand)
            if key not in found:
                found[key] = cand
    return tuple(
        g for _, _, g in sorted(
            (len(g.edges), key, g) for key, g in found.items()
        )
    )


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic connected graphs on exactly n vertices."""
    return tuple(g for g in all_graphs(n) if g.is_connected())
