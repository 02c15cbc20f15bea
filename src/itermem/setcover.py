"""Set cover embedded into minimum-length encoding sequences.

The reduction builds one rainbow facet per universe element.  Two facets
can be made distinguishable in the same round exactly when no structural
conflict links them, so gluing a shared vertex plus a same-colored filler
pair between two facets forbids sharing a round.  Gluing every pair whose
elements never co-occur in a subset makes minimum rounds equal minimum
cover size, which `exact_min_sequence` then recovers by exact coloring of
the facet-conflict graph over the two-valued (bottom / 1) code family.

That minimum is over bottom/1 sequences whose coded vertices are all
distinguishable (the rival rule: no round codes two rivals alike).
`verify_cover` asks less, only that no coded reader sees two coded
neighbors of one color and one code, so on some complexes it accepts
shorter bottom/1 sequences (IC²Δ², for one).  On a reduction the two
agree: the glue vertex lies in both glued facets, so a round that codes
both codes it too, and it reads the two fillers alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, combinations, count

from .complexes import ChromaticComplex, Simplex, Vertex
from .encoding import Encoding
from .errors import InvalidParameters, ResourceLimit

_NODE_BUDGET = 100_000  # colors tried by one exact_min_sequence call, over every k


@dataclass(frozen=True)
class SetCoverInstance:
    """A finite universe plus a family of nonempty subsets."""

    universe: frozenset
    subsets: tuple  # of frozensets

    def __init__(self, universe, subsets):
        u = frozenset(universe)
        subs = tuple(frozenset(s) for s in subsets)
        if not u:
            raise InvalidParameters("universe must be nonempty")
        for s in subs:
            if not s:
                raise InvalidParameters("subsets must be nonempty")
            if not s <= u:
                raise InvalidParameters(f"subset {sorted(s)} leaves the universe")
        object.__setattr__(self, "universe", u)
        object.__setattr__(self, "subsets", subs)

    def uncovered(self) -> frozenset:
        """Universe elements no subset reaches (nonempty ⇒ infeasible)."""
        hit = frozenset().union(*self.subsets) if self.subsets else frozenset()
        return self.universe - hit


def set_cover_optimum(inst: SetCoverInstance) -> int | None:
    """Brute-force minimum number of subsets covering the universe.

    None when no cover exists.
    """
    if inst.uncovered():
        return None
    for k in range(1, len(inst.subsets)):
        for combo in combinations(inst.subsets, k):
            if frozenset().union(*combo) >= inst.universe:
                return k
    return len(inst.subsets)  # nothing is uncovered, so the whole family covers


# -- reduction -----------------------------------------------------------------


def _glued_pairs(inst: SetCoverInstance) -> tuple[list[tuple], bool]:
    """Element pairs forced into different rounds, and whether the tie-break fired.

    A pair is glued iff no subset contains both; additionally, when all
    three pairs of a 3-element universe co-occur pairwise but no single
    subset holds all three, the smallest pair is glued anyway — otherwise
    one round could cover facets that no single subset justifies.
    """
    elems = sorted(inst.universe)
    glued = [
        (u, v)
        for u, v in combinations(elems, 2)
        if not any(u in s and v in s for s in inst.subsets)
    ]
    if (
        len(elems) == 3
        and not glued
        and not any(set(elems) <= s for s in inst.subsets)
    ):
        return [tuple(elems[:2])], True
    return glued, False


def set_cover_reduce(inst: SetCoverInstance) -> ChromaticComplex:
    """One facet of dimension |U| per element; glue conflicting pairs.

    Each glued pair {u, v} contributes a shared vertex (fresh color) in
    both facets plus one filler per facet in another shared fresh color;
    the fillers sit two hops apart through the shared vertex, so the two
    facets cannot both be distinguishable under one two-valued function.
    Remaining facet slots get vertices in globally unique colors.
    """
    elems = sorted(inst.universe)
    if len(elems) > 3:
        raise InvalidParameters("reduction supports at most 3 universe elements")
    # facet dimension |U|; an element lies in at most |U| - 1 glued pairs,
    # each taking 2 of its slots, and 2(|U| - 1) <= |U| + 1 when |U| <= 3
    slots = len(elems) + 1
    glued, _ = _glued_pairs(inst)

    vertices: dict[int, Vertex] = {}
    next_vid = 0
    next_color = 0
    facet_vids: dict = {u: [] for u in elems}

    def add(color: int, label) -> int:
        nonlocal next_vid
        vid = next_vid
        next_vid += 1
        vertices[vid] = Vertex(vid, color, label)
        return vid

    for u, v in glued:
        shared_color, filler_color = next_color, next_color + 1
        next_color += 2
        w = add(shared_color, f"w({u},{v})")
        facet_vids[u].append(w)
        facet_vids[v].append(w)
        facet_vids[u].append(add(filler_color, f"y({u},{v})@{u}"))
        facet_vids[v].append(add(filler_color, f"y({u},{v})@{v}"))
    for u in elems:
        while len(facet_vids[u]) < slots:
            facet_vids[u].append(add(next_color, f"f{u}.{len(facet_vids[u])}"))
            next_color += 1
    return ChromaticComplex(
        vertices, [Simplex(facet_vids[u]) for u in elems]
    )


def explain_reduction(inst: SetCoverInstance) -> str:
    """Narrate the reduction choices on this instance."""
    elems = sorted(inst.universe)
    glued, tie_break = _glued_pairs(inst)
    lines = [
        f"universe: {elems}",
        f"subsets: {[sorted(s) for s in inst.subsets]}",
        f"one rainbow facet of dimension {len(elems)} per element",
        "rule: glue a shared vertex plus a same-colored filler pair between"
        " the facets of every element pair that shares no subset; glued"
        " facets can never be distinguishable in the same round",
    ]
    if tie_break:
        lines.append(
            "tie-break: all pairs co-occur but no subset holds all three"
            f" elements, so {glued[0]} is glued to keep one round from"
            " covering what no single subset covers"
        )
    lines.append(f"glued pairs: {glued if glued else 'none'}")
    unc = inst.uncovered()
    if unc:
        lines.append(
            f"warning: elements {sorted(unc)} are uncovered; the instance has"
            " no set cover, while every complex has a finite round cover"
        )
    return "\n".join(lines)


# -- exact optimum over the two-valued family ----------------------------------


def exact_min_sequence(c: ChromaticComplex) -> tuple[int, list[Encoding]]:
    """Shortest sequence of bottom/1 functions that codes every facet of c
    whole and every coded vertex distinguishable (the rival rule, stricter
    than `verify_cover`'s; see the module docstring): the chromatic number
    of the facet-conflict graph.

    Facets conflict when a vertex of one has a rival in the other.  A
    facet's own vertices differ in color, so are never rivals: facets coded
    1 in one round meet the rival rule iff no two conflict, and coding
    more than whole facets only adds rivals coded alike.  Each color class
    is one round.

    Placing facets most-conflicted first (DSATUR's rule, Brélaz 1979, made
    static) opens with a greedy clique of q facets, colored 0..q-1.  For
    k = q, q + 1, ... an iterative backtrack k-colors the rest, opening no
    color above the highest used plus one.  Past ``_NODE_BUDGET`` colors
    tried it raises ResourceLimit naming k, which the clique or k - 1 failing certifies.
    """
    if not c.facets:
        raise InvalidParameters("cannot cover an empty complex")
    facets = c.rows()
    m, of, holding = len(facets), c.rivals(), {}
    for i, v in [(i, v) for i, f in enumerate(facets) for v in f]:
        holding.setdefault(v, []).append(i)
    near = [{j for v in f for x in of[v] for j in holding[x]} for f in facets]
    links, pos, earlier = [0] * m, {}, []  # pos: facet -> place, in placing order
    heap = sorted((0, -len(near[i]), i) for i in range(m))  # (-links, -degree, facet)
    while len(pos) < m:
        i = heappop(heap)[2]
        if i not in pos:  # else an entry outdated by a later push
            earlier.append([pos[j] for j in near[i] if j in pos])
            pos[i] = len(pos)
            for j in near[i].difference(pos):
                links[j] += 1
                heappush(heap, (-links[j], -len(near[j]), j))
    q = next((p for p, e in enumerate(earlier) if len(e) < p), m)  # the leading clique
    nodes = 0
    for k in count(q):  # k = m always succeeds
        color, top, p = list(range(q)) + [-1] * (m - q), [q - 1] * (m + 1), q
        while q <= p < m:  # color[p]: last color tried at place p; top[p]: highest before
            nodes += 1
            if nodes > _NODE_BUDGET:
                raise ResourceLimit(f"exact search passed {_NODE_BUDGET} nodes: minimum ≥ {k}")
            used = {color[j] for j in earlier[p]}
            free = (x for x in range(color[p] + 1, min(k, top[p] + 2)) if x not in used)
            x = color[p] = next(free, -1)  # top[p + 1] is read only after p advances
            top[p + 1], p = max(top[p], x), p + (1 if x >= 0 else -1)
        if p == m:
            rounds = [[facets[i] for i, x in zip(pos, color) if x == y] for y in range(k)]
            return k, [Encoding._of(dict.fromkeys(chain(*r), 1)) for r in rounds]
