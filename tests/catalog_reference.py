"""Reference generator for the graph catalog, and the writer of its table.

``tensorcut.catalog.all_graphs`` reads a stored table
(``tensorcut/_catalog_table.py``).  This module keeps the generator that
table was made from, so the tests can compare the two: orders are built by
adding one vertex to every graph of the previous order in every possible
way, keeping the first-generated member of each isomorphism class and
sorting by (edge count, ``canonical_key``).

Regenerate the table from the repository root with

    PYTHONPATH=src python3 tests/catalog_reference.py > src/tensorcut/_catalog_table.py
"""

from __future__ import annotations

from functools import lru_cache

from tensorcut.catalog import MAX_ENUM_ORDER, canonical_key, require_enumerable
from tensorcut.graph6 import emit_graph6
from tensorcut.graphs import Graph


@lru_cache(maxsize=None)
def generate_graphs(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic graphs on n vertices, in the catalog's order."""
    require_enumerable(n)
    if n == 1:
        return (Graph(1),)
    found: dict[int, Graph] = {}
    v = n - 1
    for parent in generate_graphs(n - 1):
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


TABLE_HEADER = '''"""Every graph on 1..{max_n} vertices up to isomorphism, as graph6 strings.

Generated by ``tests/catalog_reference.py``; do not edit.  ``ROWS[n - 1]``
holds the graphs on n vertices, space-separated: the first-generated member
of each isomorphism class under one-vertex augmentation, sorted by (edge
count, ``canonical_key``).  ``tensorcut.catalog.all_graphs`` parses a row;
``tests/test_catalog.py`` checks the rows against the generator.
Regenerate from the repository root with

    PYTHONPATH=src python3 tests/catalog_reference.py > src/tensorcut/_catalog_table.py
"""

ROWS = (
'''


def render_table() -> str:
    """Source text of the table module for orders 1..MAX_ENUM_ORDER."""
    lines = [TABLE_HEADER.format(max_n=MAX_ENUM_ORDER)]
    for n in range(1, MAX_ENUM_ORDER + 1):
        row = " ".join(emit_graph6(g) for g in generate_graphs(n))
        # graph6 bytes include the backslash, which cannot end a raw literal.
        if row.endswith("\\"):
            raise ValueError(f"order {n} row ends in a backslash")
        lines.append(f'    r"{row}",\n')
    lines.append(")\n")
    return "".join(lines)


if __name__ == "__main__":
    print(render_table(), end="")
