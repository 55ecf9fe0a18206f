"""Hypothesis strategies shared across the test modules."""

from itertools import combinations

from hypothesis import strategies as st

from tensorcut.catalog import all_graphs
from tensorcut.dense import dense_precondition
from tensorcut.graphs import Graph, edge


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 7):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return Graph(n)
    edges = draw(st.frozensets(st.sampled_from(pairs)))
    return Graph(n, edges)


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 7):
    """A random spanning path plus arbitrary extra edges."""
    n = draw(st.integers(min_n, max_n))
    perm = draw(st.permutations(range(n)))
    base = {edge(perm[i], perm[i + 1]) for i in range(n - 1)}
    pairs = list(combinations(range(n), 2))
    extra = draw(st.frozensets(st.sampled_from(pairs)))
    return Graph(n, base | set(extra))


@st.composite
def broken_paths(draw, max_n: int = 130):
    """A path through every vertex in a random order, cut in a few places,
    plus a few chords: components of any size, bipartite or not, whose
    vertices lie far apart in the bitmasks."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    cuts = draw(st.frozensets(st.integers(0, max(n - 2, 0)), max_size=6))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=4))
    edges = {edge(order[i], order[i + 1]) for i in range(n - 1) if i not in cuts}
    return Graph(n, edges | {edge(u, v) for u, v in chords if u != v})


def dense_factors(max_n: int = 6):
    """Every enumerated graph with 2*delta > n, up to the given order."""
    pool = [
        h
        for n in range(3, max_n + 1)
        for h in all_graphs(n)
        if dense_precondition(h)
    ]
    return st.sampled_from(pool)
