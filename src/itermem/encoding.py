"""Encoding functions, distinguishability, and the verdict on a sequence.

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

This module alone decides whether a b-bit sequence is accepted, from
three checks:

- Decoding.  `_ambiguous` yields each (reader p, v, x) where the round
  codes the rivals v < x alike and codes p, a common neighbor of theirs,
  which reads both and cannot tell them apart.  A process whose own
  vertex is uncoded keeps its state and decodes nothing, so rivals coded
  alike with only uncoded common neighbors are harmless.  The simulator
  raises AmbiguousDecode on the first triple, so it decodes exactly the
  rounds `verify_cover` accepts.  The packer and the exact search keep
  the stricter rival rule (no two rivals coded alike), which implies it.
- Coverage.  `rounds_coding` turns a sequence into per-vertex round
  masks, the one coding map that `verify_cover` and the simulator read: a
  facet is coded whole by some round iff its vertices' masks AND to
  nonzero (`_unkept` returns the others).
- Width.  b bits hold bottom or one of the codes 1..2^b - 1.
  `_code_count` is the one place that turns b into a number of codes; the
  packer, `lower_bound_rounds`, the two-process row of `bounds` and the
  width check `_width_witness` read it.

`verify_cover` is decoding and coverage; `_cover_witness` and
`_width_witness` name the first failure of each, for `itermem verify`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .complexes import ChromaticComplex, Simplex
from .errors import InvalidParameters, VertexNotInComplex


class Encoding:
    """Immutable vid -> code map; missing/None entries are bottom.

    The constructor checks its input: every vid an int (not a bool), every
    code None or an int >= 0.
    """

    __slots__ = ("_codes",)

    def __init__(self, codes: Mapping[int, int | None]):
        clean: dict[int, int] = {}
        for vid, code in codes.items():
            if type(vid) is not int:  # a bool would alias vid 0 or 1
                raise InvalidParameters(f"vid {vid!r} must be an int")
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


def _ambiguous(c: ChromaticComplex, enc: Encoding) -> Iterator[tuple[int, int, int]]:
    """Each (p, v, x): rivals v < x in c that enc codes alike, and a common
    neighbor p of theirs that enc codes too, in ascending p per pair.

    The rival pairs come first, from the rival cache, so a round that
    codes no two rivals alike (every round the packer emits) never looks
    at a neighborhood; vids outside c are ignored.
    """
    of, adj, codes = c.rivals(), c.adjacency(), enc._codes
    by_code: dict[int, set[int]] = {}
    for v, k in codes.items():
        by_code.setdefault(k, set()).add(v)
    for v, k in codes.items():
        if v in of and not by_code[k].isdisjoint(of[v]):
            for x in sorted(by_code[k].intersection(of[v])):
                if v < x:
                    for p in sorted(set(adj[v]).intersection(adj[x])):
                        if p in codes:
                            yield p, v, x


def _unkept(faces: Iterable[Simplex], coding: dict[int, int]) -> set[Simplex]:
    """The faces no round codes whole: their vertices' round masks
    (`rounds_coding`) AND to 0."""
    get = coding.get
    out: set[Simplex] = set()
    for f in faces:
        rounds = -1
        for v in f:
            rounds &= get(v, 0)
        if not rounds:
            out.add(f)
    return out


def verify_cover(c: ChromaticComplex, seq: list[Encoding]) -> bool:
    """True iff every round decodes and some round codes each facet of c whole.

    A round decodes when no coded reader sees two coded neighbors of one
    color with one code (`_ambiguous` yields nothing), the rule
    by which `bounded_protocol_complex` raises AmbiguousDecode, so the
    simulator decodes a sequence iff its rounds pass here.  A facet
    counts only in a round that codes all its vertices: an uncoded process
    discards what it reads, so a facet with an uncoded vertex gains
    nothing in that round.  On such a sequence the bounded simulation is
    the full-information collect complex: the round that codes a facet
    whole reaches each collect view, and the other rounds only add unions
    with collect views, which are collect views again.

    A facet is coded whole iff its vertices' round masks (`rounds_coding`)
    AND to nonzero.  `_cover_witness` names the first failure.
    """
    return _cover_witness(c, seq) is None


def _cover_witness(c: ChromaticComplex, seq: list[Encoding]) -> dict | None:
    """Why `verify_cover` rejects seq, or None when it accepts.

    The first ambiguous read, as its round, reader, source color, code and
    the two vids it cannot tell apart; failing that, the least sorted facet
    that no round codes whole.
    """
    for r, enc in enumerate(seq):
        for p, v, x in _ambiguous(c, enc):
            color, code = c.vertices[v].color, enc.value(v)
            return {"round": r, "reader": p, "color": color, "code": code, "vids": [v, x]}
    unkept = _unkept(c.facets, rounds_coding(seq))
    return {"facet": min(map(sorted, unkept))} if unkept else None


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
    that facet whole, so u is coded in a round that codes v too.  In that
    round v is a coded reader of its coded neighbors, so its coded
    same-color neighbors need distinct codes (`_ambiguous` yields
    nothing): at most 2^b - 1 of them per color.  One round that codes v
    thus codes at most n(2^b - 1) neighbors of v.  The ceiling is taken in
    integers, so it stays exact at any b.
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


def _width_witness(seq: Iterable[Encoding], b: int) -> dict | None:
    """The first code a b-bit register cannot hold, or None when all fit.

    Rounds are read in order and vids in ascending order; code k fits iff
    k >= 1 and `_code_count(b, k)` is k, so 0 never fits.
    """
    for r, enc in enumerate(seq):
        for v, k in sorted(enc._codes.items()):
            if k < 1 or _code_count(b, k) != k:
                return {"round": r, "vid": v, "code": k}
    return None
