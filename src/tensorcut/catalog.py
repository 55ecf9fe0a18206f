"""Canonical forms, brute-force isomorphism, and exhaustive small-graph lists.

The canonical key is the lexicographically smallest upper-triangle adjacency
bitstring over all vertex orderings, found by a column-by-column backtracking
search that tries one vertex per twin class at each level.  Intended for desk
scale (n <= 10).

``all_graphs`` reads a stored table (``_catalog_table``) of every graph on
1..7 vertices up to isomorphism.  The tests check that table against the
generator it came from (``tests/catalog_reference.py``); corpora beyond
n = 7 must be supplied externally as graph6 files.
"""

from __future__ import annotations

from functools import lru_cache

from ._catalog_table import ROWS
from .graph6 import parse_graph6
from .graphs import Graph

MAX_ISO_ORDER = 10
MAX_ENUM_ORDER = 7


def canonical_key(g: Graph) -> int:
    """Minimum adjacency bitstring (column order) over all vertex orderings.

    Twins u, v (N(u) minus v equals N(v) minus u) can be swapped by an
    automorphism that fixes every other vertex, so placing either at a
    position leads to the same bitstrings; each level tries only the first
    unplaced vertex of each twin class.  K_n and the empty graph then take
    n steps instead of n! orderings.
    """
    n = g.n
    if n <= 1:
        return 0
    masks = g.adjacency_masks
    twins = [
        sum(1 << u for u in range(n)
            if u != v and masks[u] & ~(1 << v) == masks[v] & ~(1 << u))
        for v in range(n)
    ]
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
        tried = 0
        for col, v in cols:
            if twins[v] & tried:
                continue
            nb = (bits << k) | col
            # Candidates are ascending, so the first too-large prefix ends the level.
            if best is not None and nb > (best >> (total - nlen)):
                break
            tried |= 1 << v
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
    """All non-isomorphic graphs on exactly n vertices, deterministically ordered.

    One representative per class, sorted by (edge count, canonical_key),
    parsed from the stored table.
    """
    require_enumerable(n)
    return tuple(parse_graph6(text) for text in ROWS[n - 1].split())


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic connected graphs on exactly n vertices."""
    return tuple(g for g in all_graphs(n) if g.is_connected())
