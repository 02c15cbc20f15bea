"""Standard chromatic subdivision and its iteration.

Each facet F is subdivided by the ordered set partitions of its vertex set:
a vertex lands in a block B_i and becomes the pair (its color, carrier),
where the carrier is the union of blocks B_1..B_i.  Pairs with a singleton
carrier {v} are identified with the original vertex v, so vertex identity
(and hence per-vertex degree) is preserved across iterations.  Facets of
neighboring base facets glue automatically because equal (color, carrier)
pairs receive equal vids.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .complexes import DEFAULT_MAX_FACETS, ChromaticComplex, Simplex, Vertex
from .errors import InvalidParameters, ResourceLimit


def ordered_set_partitions(items: list) -> Iterator[list[list]]:
    """All ordered set partitions (sequences of disjoint nonempty blocks)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in ordered_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        for i in range(len(sub) + 1):
            yield sub[:i] + [[first]] + sub[i:]


def ordered_bell(n: int) -> int:
    """Number of ordered set partitions of an n-set."""
    counts = [1]  # counts[k] = ordered Bell of k
    for k in range(1, n + 1):
        counts.append(sum(comb(k, j) * counts[k - j] for j in range(1, k + 1)))
    return counts[n]


class SubdivisionRegistry:
    """Vid allocator for subdivision vertices over a fixed base complex.

    Shared across calls so subdividing overlapping subcomplexes of the same
    base yields identical vertices on the overlap.  Corner pairs (color,{v})
    keep the base vid v and the base label.
    """

    def __init__(self, base: ChromaticComplex):
        self.base = base
        self._next = max(base.vertices, default=-1) + 1
        self._ids: dict[tuple[int, Simplex], int] = {}
        self.vertices: dict[int, Vertex] = {}

    def get(self, color: int, carrier: Simplex) -> int:
        if len(carrier) == 1:
            (v,) = carrier
            self.vertices[v] = self.base.vertices[v]
            return v
        key = (color, carrier)
        vid = self._ids.get(key)
        if vid is None:
            vid = self._next
            self._next += 1
            self._ids[key] = vid
            self.vertices[vid] = Vertex(vid, color, (color, tuple(sorted(carrier))))
        return vid


def chromatic_subdivide(
    c: ChromaticComplex, registry: SubdivisionRegistry | None = None
) -> ChromaticComplex:
    """One round of standard chromatic subdivision.

    Pass a shared registry (built on a common base) to subdivide several
    subcomplexes into a common vid space.
    """
    reg = registry if registry is not None else SubdivisionRegistry(c)
    facets: list[Simplex] = []
    for f in sorted(c.facets, key=sorted):
        base = sorted(f)
        for partition in ordered_set_partitions(base):
            new_facet: list[int] = []
            acc: list[int] = []
            for block in partition:
                acc.extend(block)
                carrier = Simplex(acc)
                for v in block:
                    new_facet.append(reg.get(c.vertices[v].color, carrier))
            facets.append(Simplex(new_facet))
    return ChromaticComplex(reg.vertices, facets)


def iterate_subdivide(
    c: ChromaticComplex, r: int, max_facets: int = DEFAULT_MAX_FACETS
) -> ChromaticComplex:
    """r-fold chromatic subdivision with a facet-count budget."""
    if r < 1:
        raise InvalidParameters("need r >= 1")
    cur = c
    for _ in range(r):
        # each facet of dimension d subdivides into orderedBell(d+1) facets
        projected = sum(ordered_bell(len(f)) for f in cur.facets)
        if projected > max_facets:
            raise ResourceLimit(f"subdivision would exceed {max_facets} facets")
        cur = chromatic_subdivide(cur)
    return cur


@dataclass(frozen=True)
class GrowthRow:
    r: int
    max_degree: int
    ratio: float  # max_degree divided by the previous row's (r=1 row: vs the base simplex)


def degree_growth_table(
    n: int, r_max: int, max_facets: int = DEFAULT_MAX_FACETS
) -> list[GrowthRow]:
    """Exact max-degree of Ch^r of the n-simplex for r = 1..r_max."""
    from .generators import gen_simplex

    if n < 1 or r_max < 2:
        raise InvalidParameters("need n >= 1 and r_max >= 2")
    cur = gen_simplex(n)
    prev = cur.max_degree()
    rows: list[GrowthRow] = []
    for r in range(1, r_max + 1):
        cur = iterate_subdivide(cur, 1, max_facets=max_facets)
        deg = cur.max_degree()
        rows.append(GrowthRow(r, deg, deg / prev))
        prev = deg
    return rows
