"""Color-preserving isomorphism of chromatic complexes.

Two complexes are isomorphic when a bijection of vertices preserves colors
and maps the facet set of one exactly onto the facet set of the other.

``is_isomorphic`` is an individualization-refinement search (McKay and
Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 2014).
Refinement (`_refine`) colors the vertices of both complexes together,
from one shared table, until the coloring stops changing: a facet's color
is the tuple of its vertices' colors in process-color order, and a
vertex's next color is its color plus the sorted multiset of its facets'
colors.  Each pass reads the facets grouped by size and the vertices
grouped by degree, column by column (`_layout`), in C-level ``map`` and
``zip`` chains, and a class is numbered by the position of its first
member, so the ids of k classes are not 0..k-1 but lie below the 2n
vertices of the pair.  An isomorphism keeps refined colors, so if the two
sides' color counts differ the coloring admits none.  While some class
holds several vertices per side, the search individualizes: it gives one
``a``-vertex of the smallest such class and each same-class ``b``-vertex
in turn the fresh shared color 2n, and refines again, keeping the branches
on an explicit stack.  Once every class holds one vertex per side the
bijection is forced, and one facet-image check decides the branch.  A
search that refines more than ``_NODE_BUDGET`` colorings raises
ResourceLimit.  ``brute_force_isomorphic`` tries every color-respecting
bijection and is usable as an oracle on small inputs.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import chain, count, groupby, permutations, product, repeat

from .complexes import ChromaticComplex, Simplex
from .errors import InvalidParameters, ResourceLimit

_BRUTE_LIMIT = 8
_NODE_BUDGET = 10_000  # colorings refined by one is_isomorphic call


def _layout(
    facets: list[tuple[int, ...]], size: int
) -> tuple[list[list[tuple[int, ...]]], list[list[tuple[int, ...]]], list[int]]:
    """What `_refine` reads of the facets over vertices 0..size-1.

    The facets grouped by size, and each vertex's incident facets grouped
    by degree, each group as its columns; and each vertex's position in
    the degree order.
    """
    facets = sorted(facets, key=len)
    incidence: list[list[int]] = [[] for _ in range(size)]
    for i, facet in enumerate(facets):
        for v in facet:
            incidence[v].append(i)
    degree = list(map(len, incidence)).__getitem__
    order = sorted(range(size), key=degree)
    position = [0] * size
    for p, v in enumerate(order):
        position[v] = p
    facet_columns = [list(zip(*group)) for _, group in groupby(facets, len)]
    vertex_columns = [
        list(zip(*map(incidence.__getitem__, group))) for _, group in groupby(order, degree)
    ]
    return facet_columns, vertex_columns, position


def _refine(
    color: list[int],
    facet_columns: list[list[tuple[int, ...]]],
    vertex_columns: list[list[tuple[int, ...]]],
    position: list[int],
) -> list[int]:
    """The stable refinement of a vertex coloring, over a `_layout`.

    Each class is numbered by the position of its first vertex, so ids lie
    below len(color) but are not 0..k-1.
    """
    classes = len(set(color))
    while True:
        # each facet, then each vertex, gets the first position of its key;
        # a group of keys is zipped from its columns
        table: dict[tuple, int] = {}
        of_vertex = color.__getitem__
        keys = chain.from_iterable(
            zip(*[map(of_vertex, column) for column in columns]) for columns in facet_columns
        )
        of_facet = list(map(table.setdefault, keys, count())).__getitem__
        by_degree = list(
            chain.from_iterable(
                map(tuple, map(sorted, zip(*[map(of_facet, column) for column in columns])))
                for columns in vertex_columns
            )
        )
        table = {}
        multisets = map(by_degree.__getitem__, position)
        new = list(map(table.setdefault, zip(color, multisets), count()))
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
    for c, offset in ((a, 0), (b, n)):
        index = dict(zip(c.vertices, count(offset)))
        col = {vid: v.color for vid, v in c.vertices.items()}
        in_color_order = map(partial(sorted, key=col.__getitem__), c.facets)
        facets += map(tuple, map(map, repeat(index.__getitem__), in_color_order))
    layout = _layout(facets, 2 * n)

    stack = [[v.color for c in (a, b) for v in c.vertices.values()]]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise ResourceLimit(f"isomorphism search passed {_NODE_BUDGET} nodes")
        color = _refine(stack.pop(), *layout)
        if Counter(color[:n]) != Counter(color[n:]):
            continue
        cells: dict[int, list[int]] = {}
        for v, k in enumerate(color):
            cells.setdefault(k, []).append(v)
        # with equal counts every cell holds as many a- as b-vertices, a first
        open_cells = [cell for cell in cells.values() if len(cell) > 2]
        if not open_cells:  # the map is forced; checking its image certifies it
            mapping = {vids[v]: vids[w] for v, w in cells.values()}
            image = frozenset(map(Simplex, map(map, repeat(mapping.__getitem__), a.facets)))
            if image == b.facets:
                return True, mapping
            continue
        cell = min(open_cells, key=len)
        fresh = 2 * n  # refined ids are first positions, below 2n
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
    for perm_parts in product(*(permutations(per_color_b[c]) for c in colors)):
        mapping: dict[int, int] = {}
        for c, part in zip(colors, perm_parts):
            mapping.update(zip(per_color_a[c], part))
        image = frozenset(Simplex(mapping[v] for v in f) for f in a.facets)
        if image == b.facets:
            return True, mapping
    return False, None
