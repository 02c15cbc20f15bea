"""Color-preserving isomorphism of chromatic complexes.

Two complexes are isomorphic when a bijection of vertices preserves colors
and maps the facet set of one exactly onto the facet set of the other.

``is_isomorphic`` is an individualization-refinement search (McKay and
Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 2014).  Each
side's vertices are numbered color-major, ``a``'s as 0..n-1 and ``b``'s as
n..2n-1, so a facet's sorted indices list its vertices in process-color
order.  Refinement (`_refine`) colors the vertices of both complexes
together, from one shared table: a facet's color is the tuple of its
vertices' colors in that order, and a vertex's next color is its color
plus the sorted multiset of its facets' colors.  Each pass reads the
facets grouped by size and the vertices grouped by degree, column by
column (`_layout`), in C-level ``map`` and ``zip`` chains, and a class is
numbered by the position of its first member, so the ids of k classes are
not 0..k-1 but lie below the 2n vertices of the pair.  The search starts
from the (color, degree) classes.  On a pure complex they are what a
first pass from the process colors gives, and in general they lie between
the two, so they refine to the same stable coloring.  Refinement stops
when the coloring is stable or holds n classes.  An isomorphism keeps
refined colors, so if the two sides' color counts differ the coloring
admits none; with equal counts each class holds as many ``a``- as
``b``-vertices, and n classes hold one vertex per side each.
Every search node ends in one leaf check: the bijection that pairs each
class's ``a``-vertices with its ``b``-vertices in index order (the first
leaf of McKay and Piperno's search tree) is returned when its facet image
is ``b``'s facet set.  With n classes it is the forced map, so the check
also stands in for the pass that would confirm the coloring stable; on
two sides that list their vertices alike, or whose open classes are
symmetric, it decides at the first node.  When it misses and some class
holds several vertices per side, the search individualizes: it gives one
``a``-vertex of the smallest such class and each same-class ``b``-vertex
in turn the fresh shared color 2n, and refines again, keeping the
branches on an explicit stack.  A search that refines more than
``_NODE_BUDGET`` colorings raises ResourceLimit.
``brute_force_isomorphic`` tries every color-respecting bijection and is
usable as an oracle on small inputs.
"""

from __future__ import annotations

from itertools import chain, count, groupby, permutations, product, repeat
from operator import attrgetter

from .complexes import ChromaticComplex, Simplex, gc_paused
from .errors import InvalidParameters, ResourceLimit

_BRUTE_LIMIT = 8
_NODE_BUDGET = 10_000  # colorings refined by one is_isomorphic call

# facet columns by size, incidence columns by degree, degree-order positions
_Layout = tuple[list[list[tuple[int, ...]]], list[list[tuple[int, ...]]], list[int]]


def _layout(facets: list[tuple[int, ...]], size: int) -> tuple[_Layout, list[int]]:
    """What `_refine` reads of the facets over vertices 0..size-1, and degrees.

    The layout holds the facets grouped by size, and each vertex's incident
    facets grouped by degree, each group as its columns; and each vertex's
    position in the degree order.  The second value is each vertex's degree.
    """
    facets = sorted(facets, key=len)
    incidence: list[list[int]] = [[] for _ in range(size)]
    for i, facet in enumerate(facets):
        for v in facet:
            incidence[v].append(i)
    degree = list(map(len, incidence))
    order = sorted(range(size), key=degree.__getitem__)
    position = [0] * size
    for p, v in enumerate(order):
        position[v] = p
    facet_columns = [list(zip(*group)) for _, group in groupby(facets, len)]
    vertex_columns = [
        list(zip(*map(incidence.__getitem__, group)))
        for _, group in groupby(order, degree.__getitem__)
    ]
    return (facet_columns, vertex_columns, position), degree


def _refine(color: list[int], layout: _Layout, stop: int) -> list[int]:
    """Refine a vertex coloring over a `_layout` until it is stable or has
    ``stop`` classes.

    A refined class is numbered by the position of its first vertex, so ids
    lie below len(color) but are not 0..k-1.  A coloring that already has
    ``stop`` classes comes back as it is.
    """
    facet_columns, vertex_columns, position = layout
    classes = len(set(color))
    while classes < stop:
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
    return color


@gc_paused
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
    # a's vertices are 0..n-1 and b's n..2n-1, each side numbered
    # color-major, so a facet's sorted indices are in process-color order
    by_color = attrgetter("color")
    verts = [v for c in (a, b) for v in sorted(c.vertices.values(), key=by_color)]
    vids = list(map(attrgetter("vid"), verts))
    facets: list[tuple[int, ...]] = []
    for c, offset in ((a, 0), (b, n)):
        index = dict(zip(vids[offset : offset + n], count(offset)))
        facets += map(tuple, map(sorted, map(map, repeat(index.__getitem__), c.facets)))
    layout, degree = _layout(facets, 2 * n)

    # (color, degree) classes, numbered like refined ones, save the first pass
    seed: dict[tuple[int, int], int] = {}
    stack = [list(map(seed.setdefault, zip(map(by_color, verts), degree), count()))]
    nodes = 0
    while stack:
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise ResourceLimit(f"isomorphism search passed {_NODE_BUDGET} nodes")
        # n classes with equal counts leave one vertex per side in each
        color = _refine(stack.pop(), layout, n)
        if sorted(color[:n]) != sorted(color[n:]):
            continue
        cells: dict[int, list[int]] = {}
        for v, k in enumerate(color):
            cells.setdefault(k, []).append(v)
        # with equal counts every cell holds as many a- as b-vertices, a
        # first; the leaf pairs them in index order, and its image decides
        mapping: dict[int, int] = {}
        of_vid = vids.__getitem__
        for cell in cells.values():
            half = len(cell) // 2
            mapping.update(zip(map(of_vid, cell[:half]), map(of_vid, cell[half:])))
        # a bijection sends a's facets to as many distinct sets, so they are
        # b's facets iff each is one; the first that is not ends the check
        image = map(Simplex, map(map, repeat(mapping.__getitem__), a.facets))
        if all(map(b.facets.__contains__, image)):
            return True, mapping
        open_cells = [cell for cell in cells.values() if len(cell) > 2]
        if not open_cells:  # the leaf was the forced map
            continue
        cell = min(open_cells, key=len)
        fresh = 2 * n  # seeded and refined ids are first positions, below 2n
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
