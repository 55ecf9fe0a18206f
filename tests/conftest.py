import pytest

from tensorcut.graph6 import emit_graph6
from tensorcut.mincut import enumerate_min_cuts, enumerate_min_cuts_subset


@pytest.fixture(scope="session")
def enum_cache():
    """Session-wide cache of minimum-cut enumerations by graph6 key: the
    max-flow engine's, or with a budget the subset-scan oracle's."""
    cache = {}

    def cached(product, budget=None):
        key = (emit_graph6(product), budget)
        if key not in cache:
            cache[key] = (enumerate_min_cuts(product) if budget is None
                          else enumerate_min_cuts_subset(product, budget))
        return cache[key]

    return cached
