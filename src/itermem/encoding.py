"""Encoding functions and distinguishability.

An encoding function maps every vertex to an integer code or to bottom
(None, "unwritten").  A vertex v is distinguishable when no other vertex
within two hops of v (via a common neighbor) shares both its color and its
code — two bottoms count as equal codes.  Rainbow facets make same-colored
vertices non-adjacent, so the two-hop window is exactly where a reader
could confuse two candidate states.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .complexes import ChromaticComplex, _maximal, assert_subcomplex
from .errors import InvalidParameters, VertexNotInComplex

BOTTOM = None


class Encoding:
    """Immutable vid -> code map; missing/None entries are bottom.

    `groups` optionally records blocks of vertices that were coded together
    (one tuple per block) so budget splitting can keep them in one round.
    """

    __slots__ = ("_codes", "groups")

    def __init__(
        self,
        codes: Mapping[int, int | None],
        groups: tuple[tuple[int, ...], ...] | None = None,
    ):
        clean: dict[int, int] = {}
        for vid, code in codes.items():
            if code is None:
                continue
            if not isinstance(code, int) or code < 0:
                raise InvalidParameters(f"code for vid {vid} must be None or >= 0")
            clean[vid] = code
        self._codes = clean
        self.groups = groups

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
    adj = c.adjacency()
    code = enc.value(v)
    color = c.vertices[v].color
    for u in adj[v]:
        for x in adj[u]:
            if x != v and c.vertices[x].color == color and enc.value(x) == code:
                return False
    return True


def is_subcomplex_distinguishable(
    c: ChromaticComplex, sub: ChromaticComplex, enc: Encoding
) -> bool:
    """Every vertex of sub is distinguishable within the ambient complex."""
    assert_subcomplex(sub, c)
    return all(is_vertex_distinguishable(c, v, enc) for v in sub.vertices)


def _distinguishable_vids(c: ChromaticComplex, enc: Encoding) -> frozenset[int]:
    return frozenset(
        v for v in c.vertices if is_vertex_distinguishable(c, v, enc)
    )


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
    """Ceiling of max-degree over (number of colors times available codes)."""
    if b < 1:
        raise InvalidParameters("need b >= 1")
    if not c.facets:
        raise InvalidParameters("need a nonempty complex")
    n = len(c.colors())
    return math.ceil(c.max_degree() / (n * (2**b - 1)))
