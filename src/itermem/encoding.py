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

One clash relation serves both soundness rules: `_clashes` yields each
pair of coded rivals that a round codes alike.  `greedy.verify_cover`
calls a round sound iff it yields no pair (every reader decodes).  The
simulator raises AmbiguousDecode iff a yielded pair has a coded common
neighbor, since only a coded reader decodes what it reads.  So the two
rules differ by that coded-reader filter alone, and a sequence
`verify_cover` accepts always simulates.

`rounds_coding` turns a sequence into per-vertex round masks, the one
coding map that the cover checks of `greedy` and the simulator read.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .complexes import ChromaticComplex
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
            if type(code) is not int or code < 0:
                raise InvalidParameters(
                    f"code for vid {vid} must be None or an int >= 0, not {code!r}"
                )
            clean[vid] = code
        self._codes = clean

    @classmethod
    def _of(cls, codes: dict[int, int]) -> "Encoding":
        """From a vid -> code dict of ints >= 0, held as given (the library's
        own outputs; outside input goes through the checking constructor)."""
        enc = cls.__new__(cls)
        enc._codes = codes
        return enc

    def value(self, vid: int) -> int | None:
        return self._codes.get(vid)

    def coded_vids(self) -> frozenset[int]:
        return frozenset(self._codes)

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


def rounds_coding(seq: Iterable[Encoding]) -> dict[int, int]:
    """vid -> the rounds that code it, as bits: bit r is set iff seq[r] codes it.

    A face is coded whole by some round iff the AND of its vertices' masks
    is nonzero; vids no round codes are absent.
    """
    coding: dict[int, int] = {}
    get = coding.get
    for r, enc in enumerate(seq):
        bit = 1 << r
        for v in enc._codes:
            coding[v] = get(v, 0) | bit
    return coding


def _clashes(c: ChromaticComplex, enc: Encoding) -> Iterator[tuple[int, int]]:
    """Each pair (v, x), v < x, of rivals in c that enc codes alike.

    A vertex of c that enc codes is distinguishable under enc iff it is in
    no yielded pair; vids outside c are ignored.  The pairs say nothing of
    an uncoded vertex, which `is_vertex_distinguishable` calls
    distinguishable iff no rival is uncoded too (bottoms count as equal
    codes); neither soundness rule asks about uncoded vertices.
    """
    of = c.rivals()
    by_code: dict[int, set[int]] = {}
    for v, k in enc._codes.items():
        by_code.setdefault(k, set()).add(v)
    for v, k in enc._codes.items():
        if v in of and not by_code[k].isdisjoint(of[v]):
            for x in sorted(by_code[k].intersection(of[v])):
                if v < x:
                    yield v, x


def is_vertex_distinguishable(c: ChromaticComplex, v: int, enc: Encoding) -> bool:
    """No x != v adjacent to a neighbor of v with v's color and v's code."""
    if v not in c.vertices:
        raise VertexNotInComplex(f"vid {v}")
    code = enc.value(v)
    return all(enc.value(x) != code for x in c.rivals()[v])


def lower_bound_rounds(c: ChromaticComplex, b: int) -> int:
    """Ceiling of max-degree over (number of colors times available codes).

    A true lower bound on every sequence `verify_cover` accepts.  Each
    neighbor u of a vertex v shares a facet with v, and some round codes
    that facet whole, so u is coded in some round.  Coded same-color
    neighbors of v are pairwise rivals (v is their common neighbor), so a
    sound round gives them distinct codes and holds at most 2^b - 1 of them
    per color.  One round thus codes at most n(2^b - 1) neighbors of v.
    The ceiling is taken in integers, so it stays exact at any b.
    """
    if b < 1:
        raise InvalidParameters("need b >= 1")
    if not c.facets:
        raise InvalidParameters("need a nonempty complex")
    n = len(c.colors())
    deg = c.max_degree()
    return -(-deg // (n * _code_count(b, max(deg, 1))))


def _code_count(b: int, need: int) -> int:
    """min(2^b - 1, need) for need >= 1, without building 2^b.

    More codes than `need` change no caller's answer, so a huge b costs
    nothing: 2^b - 1 >= need iff need has at most b bits.
    """
    return need if need.bit_length() <= b else (1 << b) - 1
