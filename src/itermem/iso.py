"""Color-preserving isomorphism of chromatic complexes.

Two complexes are isomorphic when a bijection of vertices preserves colors
and maps the facet set of one exactly onto the facet set of the other.

``is_isomorphic`` is an individualization-refinement search (McKay and
Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 2014).
Refinement colors the vertices of both complexes together, from one shared
table, until the coloring stops changing: a facet's color is the tuple of
its vertices' colors in process-color order, and a vertex's next color is
its color plus the sorted multiset of its facets' colors.  An isomorphism
keeps refined colors, so if the two sides' color counts differ the coloring
admits none.  While some class holds several vertices per side, the search
individualizes: it gives one ``a``-vertex of the smallest such class and
each same-class ``b``-vertex in turn a fresh shared color, and refines
again, keeping the branches on an explicit stack.  Once every class holds
one vertex per side the bijection is forced, and one facet-image check
decides the branch.  A search that refines more than ``_NODE_BUDGET``
colorings raises ResourceLimit.  ``brute_force_isomorphic`` tries every
color-respecting bijection and is usable as an oracle on small inputs.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .complexes import ChromaticComplex, Simplex
from .errors import InvalidParameters, ResourceLimit

_BRUTE_LIMIT = 8
_NODE_BUDGET = 10_000  # colorings refined by one is_isomorphic call


def _refine(
    color: list[int], facets: list[tuple[int, ...]], incidence: list[list[int]]
) -> list[int]:
    """The stable refinement of a vertex coloring, recolored 0..k-1."""
    classes = len(set(color))
    while True:
        of_vertex = color.__getitem__
        table: dict[tuple, int] = {}
        facet_color = [table.setdefault(tuple(map(of_vertex, f)), len(table)) for f in facets]
        of_facet = facet_color.__getitem__
        table = {}
        new = [
            table.setdefault((k, tuple(sorted(map(of_facet, incident)))), len(table))
            for k, incident in zip(color, incidence)
        ]
        if len(table) == classes:
            return new
        color, classes = new, len(table)


def is_isomorphic(
    a: ChromaticComplex, b: ChromaticComplex
) -> tuple[bool, dict[int, int] | None]:
    """Decide color-preserving isomorphism; return (answer, vid witness map).

    The witness maps vids of ``a`` to vids of ``b`` and is None on failure.
    Raises ResourceLimit when the search refines more than ``_NODE_BUDGET``
    colorings.
    """
    n = len(a.vertices)
    if n != len(b.vertices) or len(a.facets) != len(b.facets):
        return False, None
    # a's vertices are 0..n-1 and b's n..2n-1; facets list vertices in
    # process-color order
    vids = [*a.vertices, *b.vertices]
    facets: list[tuple[int, ...]] = []
    incidence: list[list[int]] = [[] for _ in vids]
    for c, offset in ((a, 0), (b, n)):
        index = {vid: offset + i for i, vid in enumerate(c.vertices)}
        for f in c.facets:
            facet = tuple(index[vid] for vid in sorted(f, key=lambda u: c.vertices[u].color))
            for v in facet:
                incidence[v].append(len(facets))
            facets.append(facet)

    stack = [[v.color for c in (a, b) for v in c.vertices.values()]]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise ResourceLimit(f"isomorphism search passed {_NODE_BUDGET} nodes")
        color = _refine(stack.pop(), facets, incidence)
        if Counter(color[:n]) != Counter(color[n:]):
            continue
        cells: dict[int, list[int]] = {}
        for v, k in enumerate(color):
            cells.setdefault(k, []).append(v)
        # with equal counts every cell holds as many a- as b-vertices, a first
        open_cells = [cell for cell in cells.values() if len(cell) > 2]
        if not open_cells:  # the map is forced; checking its image certifies it
            mapping = {vids[v]: vids[w] for v, w in cells.values()}
            image = frozenset(Simplex(mapping[v] for v in f) for f in a.facets)
            if image == b.facets:
                return True, mapping
            continue
        cell = min(open_cells, key=len)
        fresh = len(cells)
        for w in reversed(cell[len(cell) // 2 :]):
            child = color.copy()
            child[cell[0]] = child[w] = fresh
            stack.append(child)
    return False, None


def brute_force_isomorphic(
    a: ChromaticComplex, b: ChromaticComplex
) -> tuple[bool, dict[int, int] | None]:
    """Try every color-respecting bijection.  Only for tiny complexes."""
    if len(a.vertices) > _BRUTE_LIMIT or len(b.vertices) > _BRUTE_LIMIT:
        raise InvalidParameters(f"brute force capped at {_BRUTE_LIMIT} vertices")
    if len(a.vertices) != len(b.vertices):
        return False, None
    per_color_a: dict[int, list[int]] = {}
    per_color_b: dict[int, list[int]] = {}
    for vid, v in a.vertices.items():
        per_color_a.setdefault(v.color, []).append(vid)
    for vid, v in b.vertices.items():
        per_color_b.setdefault(v.color, []).append(vid)
    if set(per_color_a) != set(per_color_b):
        return False, None
    if any(len(per_color_a[c]) != len(per_color_b[c]) for c in per_color_a):
        return False, None
    colors = sorted(per_color_a)
    for perm_parts in itertools.product(
        *(itertools.permutations(per_color_b[c]) for c in colors)
    ):
        mapping: dict[int, int] = {}
        for c, part in zip(colors, perm_parts):
            mapping.update(zip(per_color_a[c], part))
        image = frozenset(Simplex(mapping[v] for v in f) for f in a.facets)
        if image == b.facets:
            return True, mapping
    return False, None
