"""Encoding functions and distinguishability.

An encoding function maps every vertex to an integer code or to bottom
(None, "unwritten").  A vertex v is distinguishable when no other vertex
within two hops of v (via a common neighbor) shares both its color and its
code — two bottoms count as equal codes.  Rainbow facets make same-colored
vertices non-adjacent, so the two-hop window is exactly where a reader
could confuse two candidate states.

The vertices that can conflict with v are its rivals: the x != v of v's
color adjacent to a neighbor of v.  They depend on the complex alone, so
`ChromaticComplex.rivals` computes them once per complex and every check
here reads that cache; v is distinguishable iff no rival has v's code.
This is the same predicate as the two-hop scan, not an approximation.
Since the relation is symmetric, the distinguishable vertices under one
function are found from the coded vertices and their rivals, plus the
vertices without rivals: an uncoded v is distinguishable iff every rival
is coded, which needs a rival of a coded vertex or no rival at all.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Iterable, Mapping

from .complexes import ChromaticComplex, _maximal, assert_subcomplex
from .errors import InvalidParameters, VertexNotInComplex

BOTTOM = None


class Encoding:
    """Immutable vid -> code map; missing/None entries are bottom."""

    __slots__ = ("_codes",)

    def __init__(self, codes: Mapping[int, int | None]):
        clean: dict[int, int] = {}
        for vid, code in codes.items():
            if code is None:
                continue
            if not isinstance(code, int) or code < 0:
                raise InvalidParameters(f"code for vid {vid} must be None or >= 0")
            clean[vid] = code
        self._codes = clean

    def value(self, vid: int) -> int | None:
        return self._codes.get(vid)

    def coded_vids(self) -> frozenset[int]:
        return frozenset(self._codes)

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self._codes.values())))

    def image_size(self) -> int:
        return len(set(self._codes.values()))

    def items(self):
        return self._codes.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Encoding):
            return NotImplemented
        return self._codes == other._codes

    def __hash__(self) -> int:
        return hash(frozenset(self._codes.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{v}:{k}" for v, k in sorted(self._codes.items()))
        return f"Encoding({{{body}}})"


def is_vertex_distinguishable(c: ChromaticComplex, v: int, enc: Encoding) -> bool:
    """No x != v adjacent to a neighbor of v with v's color and v's code."""
    if v not in c.vertices:
        raise VertexNotInComplex(f"vid {v}")
    code = enc.value(v)
    return all(enc.value(x) != code for x in c.rivals().of[v])


def is_subcomplex_distinguishable(
    c: ChromaticComplex, sub: ChromaticComplex, enc: Encoding
) -> bool:
    """Every vertex of sub is distinguishable within the ambient complex."""
    assert_subcomplex(sub, c)
    return all(is_vertex_distinguishable(c, v, enc) for v in sub.vertices)


def _distinguishable_vids(c: ChromaticComplex, enc: Encoding) -> set[int]:
    """The distinguishable vertices of c, visiting only coded vertices' rivals.

    A coded v is distinguishable iff no rival has its code; an uncoded v iff
    every rival is coded.  Rivals are symmetric, so an uncoded vertex with a
    rival is distinguishable only if it is a rival of some coded vertex, and
    then iff it is a rival of as many coded vertices as it has rivals.
    """
    of, lonely = c.rivals()
    codes = {v: k for v, k in enc.items() if v in of}
    by_code: dict[int, set[int]] = {}
    for v, k in codes.items():
        by_code.setdefault(k, set()).add(v)
    good = set(lonely)
    good.update(v for v, k in codes.items() if by_code[k].isdisjoint(of[v]))
    hits = Counter(chain.from_iterable(of[v] for v in codes))
    good.update(
        x for x, n in hits.items() if n == len(of[x]) and x not in codes
    )
    return good


def distinguishable_subcomplex(
    c: ChromaticComplex, seq: Iterable[Encoding]
) -> ChromaticComplex:
    """Union over the sequence of the faces each function makes distinguishable.

    A face is distinguishable under one function iff all its vertices are, so
    per function the distinguishable faces are generated by {F ∩ D : F facet}.
    """
    goods = (_distinguishable_vids(c, enc) for enc in seq)
    gen = (f & good for good in goods for f in c.facets)
    return ChromaticComplex(c.vertices, _maximal(gen))


def lower_bound_rounds(c: ChromaticComplex, b: int) -> int:
    """Ceiling of max-degree over (number of colors times available codes).

    A true lower bound on every sequence `verify_cover` accepts.  Each
    neighbor u of a vertex v shares a facet with v, and some round codes
    that facet whole, so u is coded in some round.  Coded same-color
    neighbors of v are pairwise rivals (v is their common neighbor), so a
    sound round gives them distinct codes and holds at most 2^b - 1 of them
    per color.  One round thus codes at most n(2^b - 1) neighbors of v.
    """
    if b < 1:
        raise InvalidParameters("need b >= 1")
    if not c.facets:
        raise InvalidParameters("need a nonempty complex")
    n = len(c.colors())
    return math.ceil(c.max_degree() / (n * (2**b - 1)))
