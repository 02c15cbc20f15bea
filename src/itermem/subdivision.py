"""Standard chromatic subdivision and its iteration.

One round of the standard chromatic subdivision is one immediate-snapshot
round (Borowsky & Gafni 1993; Herlihy & Shavit's asynchronous computability
theorem), so Ch is built as `protocols.one_round(c, IIS, ...)` and Ch^r as
`protocols.protocol_complex(c, IIS, r)`: the same vids, labels and export
bytes.  Each facet F is subdivided by the ordered set partitions of its
vertex set: a vertex lands in a block B_i and becomes the pair (its color,
carrier), where the carrier is the union of blocks B_1..B_i.  Pairs with a
singleton carrier {v} are identified with the original vertex v, so vertex
identity (and hence per-vertex degree) is preserved across iterations.
Facets of neighboring base facets glue automatically because equal (color,
carrier) pairs receive equal vids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import DEFAULT_MAX_FACETS, ChromaticComplex, StateRegistry, gc_paused
from .errors import InvalidParameters
from .generators import gen_simplex
from .protocols import IIS, one_round, protocol_complex


@gc_paused
def chromatic_subdivide(
    c: ChromaticComplex, registry: StateRegistry | None = None
) -> ChromaticComplex:
    """One round of standard chromatic subdivision: one iis round.

    Like every builder it keeps to `DEFAULT_MAX_FACETS`: a projected facet
    count over it raises ResourceLimit before any facet is built.  Pass a
    shared registry (built on a common base) to subdivide several
    subcomplexes into a common vid space.
    """
    return one_round(c, IIS, registry or StateRegistry(c))


def iterate_subdivide(
    c: ChromaticComplex, r: int, max_facets: int = DEFAULT_MAX_FACETS
) -> ChromaticComplex:
    """r-fold chromatic subdivision, r iis rounds, with a facet-count budget."""
    return protocol_complex(c, IIS, r, max_facets=max_facets)


@dataclass(frozen=True)
class GrowthRow:
    r: int
    max_degree: int
    ratio: float  # max_degree divided by the previous row's (r=1 row: vs the base simplex)


def degree_growth_table(n: int, r_max: int) -> list[GrowthRow]:
    """Exact max-degree of Ch^r of the n-simplex for r = 1..r_max."""
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
