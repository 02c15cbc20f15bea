"""Greedy star cover and bit-budget splitting of its encoding sequence.

Each outer round scans candidate vertices in ascending vid and selects the
closed star of every vertex whose star keeps a two-hop clearance from the
stars already selected this round (the star-intersection guard).  Selected
stars receive disjoint code blocks, so within a round every coded vertex is
distinguishable outright.  Two repairs over the plain greedy sweep are
load-bearing and documented inline: candidate re-seeding (termination) and
round-global per-color code uniqueness (distinguishability across stars).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .complexes import ChromaticComplex, Simplex
from .encoding import (
    Encoding,
    _distinguishable_vids,
    distinguishable_subcomplex,
    lower_bound_rounds,
)
from .errors import InvalidParameters, ItermemError


@dataclass(frozen=True)
class StarRound:
    """One outer round: selected centers, covered subcomplex, its encoding."""

    centers: tuple[int, ...]
    covered: ChromaticComplex
    encoding: Encoding


@dataclass(frozen=True)
class StarCoverTrace:
    rounds: tuple[StarRound, ...]

    def __len__(self) -> int:
        return len(self.rounds)


def _closed_star_vertices(c: ChromaticComplex, v: int) -> frozenset[int]:
    return c.adjacency()[v] | {v}


def greedy_star(c: ChromaticComplex) -> tuple[list[Encoding], StarCoverTrace]:
    """Cover c by vertex stars, one encoding function per round.

    The guard "every vertex of the candidate star has a star disjoint from
    this round's covered part" is evaluated as: no vertex within distance 1
    of the candidate star lies in an already-selected star (equivalent,
    since a closed star meets a face-closed set iff their vertex sets meet).
    """
    if not c.facets:
        raise InvalidParameters("need a nonempty complex")
    adj = c.adjacency()
    centers_ever: set[int] = set()

    def facet_covered(f: Simplex) -> bool:
        return any(v in centers_ever for v in f)

    pool = set(c.vertices)
    seq: list[Encoding] = []
    rounds: list[StarRound] = []
    while not all(facet_covered(f) for f in c.facets):
        # every round retires at least one never-before-selected center
        if len(rounds) >= len(c.vertices):  # pragma: no cover
            raise ItermemError("star cover failed to terminate")
        if not pool:
            # re-seed with vertices whose closed star is not fully covered;
            # without this the sweep can strand a facet whose vertices were
            # all swallowed by neighboring stars (candidate exhaustion)
            pool = {
                v for f in c.facets if not facet_covered(f) for v in f
            }
        round_vertex_cover: set[int] = set()  # vertices of this round's stars
        selected: list[int] = []
        used: set[int] = set()
        for v in sorted(pool):
            star_verts = _closed_star_vertices(c, v)
            ok = all(
                not ((adj[w] | {w}) & round_vertex_cover) for w in star_verts
            )
            if ok:
                selected.append(v)
                round_vertex_cover |= star_verts
                used |= star_verts
        # disjoint per-star code blocks; same-color vertices get distinct
        # codes within a star (per-color rank), and distinct blocks keep
        # same-color vertices of different stars apart: stars selected in
        # one round can sit two hops from each other, inside the window
        # the distinguishability predicate inspects
        codes: dict[int, int] = {}
        groups: list[tuple[int, ...]] = []
        base = 1
        for v in selected:
            star_verts = sorted(_closed_star_vertices(c, v))
            per_color: Counter = Counter()
            for x in star_verts:
                codes[x] = base + per_color[c.vertices[x].color]
                per_color[c.vertices[x].color] += 1
            groups.append(tuple(star_verts))
            base += max(per_color.values())
        enc = Encoding(codes, groups=tuple(groups))
        covered = ChromaticComplex(
            c.vertices, [f for f in c.facets if f & set(selected)]
        )
        seq.append(enc)
        rounds.append(StarRound(tuple(selected), covered, enc))
        centers_ever |= set(selected)
        pool -= used
    return seq, StarCoverTrace(tuple(rounds))


# -- budget splitting --------------------------------------------------------


def _facet_encoding(f: Simplex) -> Encoding:
    # a rainbow facet coded constant-1 is always distinguishable on its own
    return Encoding({v: 1 for v in f})


def _split_star_aligned(
    enc: Encoding, c: ChromaticComplex, budget: int
) -> list[Encoding]:
    out: list[Encoding] = []
    batch: list[tuple[int, ...]] = []
    batch_counts: Counter = Counter()

    def flush():
        if not batch:
            return
        codes: dict[int, int] = {}
        per_color: Counter = Counter()
        for grp in batch:
            for x in sorted(grp):
                codes[x] = 1 + per_color[c.vertices[x].color]
                per_color[c.vertices[x].color] += 1
        out.append(Encoding(codes, groups=tuple(batch)))
        batch.clear()
        batch_counts.clear()

    for grp in enc.groups or ():
        counts = Counter(c.vertices[x].color for x in grp)
        if max(counts.values()) > budget:
            # a single star too color-heavy for the budget: code it one
            # rainbow facet at a time (each such round is self-contained)
            flush()
            grp_set = set(grp)
            for f in sorted(
                (f for f in c.facets if f <= grp_set), key=sorted
            ):
                out.append(_facet_encoding(f))
            continue
        if any(batch_counts[col] + k > budget for col, k in counts.items()):
            flush()
        batch.append(grp)
        batch_counts.update(counts)
    flush()
    return out


def _split_generic(enc: Encoding, budget: int) -> list[Encoding]:
    image = enc.image()
    out = []
    for i in range(0, len(image), budget):
        chunk = {code: 1 + j for j, code in enumerate(image[i : i + budget])}
        out.append(
            Encoding({v: chunk[k] for v, k in enc.items() if k in chunk})
        )
    return out


def _all_kept(faces: Iterable[Simplex], goods: Iterable[set[int]]) -> bool:
    """True iff every nonempty face lies inside one of the vertex sets.

    Faces wait under their least vid, so a set only tests the faces waiting
    under its own vertices; the sets are drawn until no face waits.
    """
    waiting: dict[int, set[Simplex]] = {}
    for f in faces:
        waiting.setdefault(min(f), set()).add(f)
    for good in goods:
        if not waiting:
            break
        for v in good & waiting.keys():
            fs = waiting[v]
            fs.difference_update([f for f in fs if f <= good])
            if not fs:
                del waiting[v]
    return not waiting


def _split_keeps(c: ChromaticComplex, enc: Encoding, subs: list[Encoding]) -> bool:
    """True iff every face enc makes distinguishable, some sub does too.

    The faces enc makes distinguishable are generated by the sets f & good
    over the facets f; a face is distinguishable under a sub iff its
    vertices all are, and faces of a kept face are kept.
    """
    good = _distinguishable_vids(c, enc)
    faces = {f & good for f in c.facets} - {frozenset()}
    return _all_kept(faces, (_distinguishable_vids(c, s) for s in subs))


def split_to_budget(
    seq: list[Encoding], c: ChromaticComplex, b: int
) -> list[Encoding]:
    """Replace each function by sub-functions with at most 2^b - 1 codes.

    Functions already within budget pass through unchanged.  Functions with
    block metadata are split block-aligned (whole stars stay in one
    sub-round); others by contiguous chunks of their sorted code image.
    The faces the input made distinguishable must remain so across the
    union; if a split loses any, it is replaced by one sub-function per
    facet of the input's distinguishable subcomplex, which never loses.
    """
    if b < 1:
        raise InvalidParameters("need b >= 1")
    budget = 2**b - 1
    out: list[Encoding] = []
    for enc in seq:
        if enc.image_size() <= budget:
            out.append(enc)
            continue
        subs = (
            _split_star_aligned(enc, c, budget)
            if enc.groups
            else _split_generic(enc, budget)
        )
        if not _split_keeps(c, enc, subs):
            target = distinguishable_subcomplex(c, [enc])
            subs = [_facet_encoding(f) for f in sorted(target.facets, key=sorted)]
        out.extend(subs)
    return out


def upper_bound_rounds(c: ChromaticComplex, b: int) -> int:
    """Four times the degree-based round lower bound."""
    return 4 * lower_bound_rounds(c, b)


def verify_cover(c: ChromaticComplex, seq: list[Encoding]) -> bool:
    """True iff the sequence makes every face of c distinguishable.

    A facet f lies in the union iff f is a face of F ∩ D_e for some facet F
    and function e, with D_e the distinguishable vertices under e; as f is
    maximal, iff f ⊆ D_e.
    """
    return _all_kept(c.facets, (_distinguishable_vids(c, e) for e in seq))
