"""Standard chromatic subdivision and its iteration.

Each facet F is subdivided by the ordered set partitions of its vertex set:
a vertex lands in a block B_i and becomes the pair (its color, carrier),
where the carrier is the union of blocks B_1..B_i.  Pairs with a singleton
carrier {v} are identified with the original vertex v, so vertex identity
(and hence per-vertex degree) is preserved across iterations.  Facets of
neighboring base facets glue automatically because equal (color, carrier)
pairs receive equal vids.

The partitions depend only on the facet size, so they are compiled once
per size over positions 0..k-1 (`_compiled`): the distinct (position,
carrier) states in first-use order, and each partition as a row of indices
into them.  A facet places its vids on positions in vid order, requests
each distinct state once, and reads its facets off the rows; the states
are requested in the order a partition-by-partition walk would first
request them, so vids and labels do not depend on the compilation.  The
template stays separate from `protocols._template(IIS)`, which orders
positions by color.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator

from .complexes import (
    DEFAULT_MAX_FACETS,
    ChromaticComplex,
    CompiledRows,
    Simplex,
    StateRegistry,
    compile_rows,
    mask_sets,
)
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


def partition_views(vids: list) -> Iterator[dict[int, Simplex]]:
    """Per ordered partition of vids: each vid -> union of the blocks up to its own.

    Each dict lists the vids block by block, in partition order.
    """
    for partition in ordered_set_partitions(vids):
        views: dict[int, Simplex] = {}
        acc: list[int] = []
        for block in partition:
            acc.extend(block)
            carrier = Simplex(acc)
            for v in block:
                views[v] = carrier
        yield views


@lru_cache(maxsize=None)
def _compiled(n: int) -> CompiledRows:
    """The ordered partitions of positions 0..n-1 as compiled rows.

    A state is (position, carrier mask), listed per partition block by
    block, as `partition_views` lists them.
    """
    return compile_rows(
        ((i, sum(1 << j for j in carrier)) for i, carrier in views.items())
        for views in partition_views(list(range(n)))
    )


def chromatic_subdivide(
    c: ChromaticComplex, registry: StateRegistry | None = None
) -> ChromaticComplex:
    """One round of standard chromatic subdivision.

    Pass a shared registry (built on a common base) to subdivide several
    subcomplexes into a common vid space.
    """
    reg = registry if registry is not None else StateRegistry(c)
    facets: list[Simplex] = []
    for f in sorted(c.facets, key=sorted):
        at = sorted(f)
        colors = [c.vertices[v].color for v in at]
        reg.emit(colors, mask_sets(at), _compiled(len(at)), facets)
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


def degree_growth_table(n: int, r_max: int) -> list[GrowthRow]:
    """Exact max-degree of Ch^r of the n-simplex for r = 1..r_max."""
    from .generators import gen_simplex

    if n < 1 or r_max < 2:
        raise InvalidParameters("need n >= 1 and r_max >= 2")
    cur = gen_simplex(n)
    prev = cur.max_degree()
    rows: list[GrowthRow] = []
    for r in range(1, r_max + 1):
        cur = iterate_subdivide(cur, 1)
        deg = cur.max_degree()
        rows.append(GrowthRow(r, deg, deg / prev))
        prev = deg
    return rows
