"""Set cover embedded into minimum-length encoding sequences.

The reduction builds one rainbow facet per universe element.  Two facets
can be made distinguishable in the same round exactly when no structural
conflict links them, so gluing a shared vertex plus a same-colored filler
pair between two facets forbids sharing a round.  Gluing every pair whose
elements never co-occur in a subset makes minimum rounds equal minimum
cover size, which `exact_min_sequence` then recovers by exhaustive search
over the two-valued (bottom / 1) code family.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import ChromaticComplex, Simplex, Vertex
from .encoding import Encoding
from .errors import InvalidParameters, ResourceLimit

_MAX_VERTS = 12
_MAX_FACETS = 12


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
    for k in range(1, len(inst.subsets) + 1):
        for combo in combinations(inst.subsets, k):
            if frozenset().union(*combo) >= inst.universe:
                return k
    return None


# -- reduction -----------------------------------------------------------------


def _glued_pairs(inst: SetCoverInstance) -> list[tuple]:
    """Element pairs forced into different rounds.

    A pair is glued iff no subset contains both; additionally, when all
    three pairs of a 3-element universe co-occur pairwise but no single
    subset holds all three, the smallest pair is glued anyway — otherwise
    one round could cover facets that no single subset justifies.
    """
    elems = sorted(inst.universe)
    co = {
        (u, v): any(u in s and v in s for s in inst.subsets)
        for u, v in combinations(elems, 2)
    }
    glued = [p for p, ok in co.items() if not ok]
    if (
        len(elems) == 3
        and not glued
        and not any(set(elems) <= s for s in inst.subsets)
    ):
        glued = [tuple(elems[:2])]
    return glued


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
    slots = len(elems) + 1  # facet dimension |U|
    glued = _glued_pairs(inst)

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
        if len(facet_vids[u]) > slots:
            raise InvalidParameters(f"element {u} over-glued beyond dimension")
        while len(facet_vids[u]) < slots:
            facet_vids[u].append(add(next_color, f"f{u}.{len(facet_vids[u])}"))
            next_color += 1
    return ChromaticComplex(
        vertices, [Simplex(facet_vids[u]) for u in elems]
    )


def explain_reduction(inst: SetCoverInstance) -> str:
    """Narrate the reduction choices on this instance."""
    elems = sorted(inst.universe)
    glued = _glued_pairs(inst)
    lines = [
        f"universe: {elems}",
        f"subsets: {[sorted(s) for s in inst.subsets]}",
        f"one rainbow facet of dimension {len(elems)} per element",
        "rule: glue a shared vertex plus a same-colored filler pair between"
        " the facets of every element pair that shares no subset; glued"
        " facets can never be distinguishable in the same round",
    ]
    if len(elems) == 3 and glued == [tuple(elems[:2])] and all(
        any(u in s and v in s for s in inst.subsets)
        for u, v in combinations(elems, 2)
    ):
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


def _conflict_free(c: ChromaticComplex, vids: frozenset) -> bool:
    # all-1 codes: a clash is two same-colored coded vertices with a common
    # neighbor (same-colored vertices are never adjacent themselves)
    adj = c.adjacency()
    for u, v in combinations(sorted(vids), 2):
        if c.vertices[u].color == c.vertices[v].color and adj[u] & adj[v]:
            return False
    return True


def exact_min_sequence(
    c: ChromaticComplex, code_family: str = "binary"
) -> tuple[int, list[Encoding]]:
    """Shortest sequence of bottom/1 functions making every face of c
    distinguishable.

    A round's useful content is which facets it fully covers, and coding
    anything beyond those facets' vertices only adds clashes, so search
    runs over facet subsets whose vertex union is clash-free, then takes a
    breadth-first minimum set cover over facet masks.
    """
    if code_family != "binary":
        raise InvalidParameters(f"unknown code family {code_family!r}")
    if not c.facets:
        raise InvalidParameters("cannot cover an empty complex")
    if len(c.vertices) > _MAX_VERTS or len(c.facets) > _MAX_FACETS:
        raise ResourceLimit("exact search is capped at 12 vertices / 12 facets")
    facets = sorted(c.facets, key=sorted)
    m = len(facets)

    feasible: list[tuple[int, frozenset]] = []
    for mask in range(1, 1 << m):
        vids = frozenset().union(*(facets[i] for i in range(m) if mask & (1 << i)))
        if _conflict_free(c, vids):
            feasible.append((mask, vids))
    # keep only maximal masks: covering more facets per round never hurts
    feasible.sort(key=lambda t: -bin(t[0]).count("1"))
    maximal: list[tuple[int, frozenset]] = []
    for mask, vids in feasible:
        if not any(mask | m2 == m2 for m2, _ in maximal):
            maximal.append((mask, vids))

    full = (1 << m) - 1
    frontier = {0: []}  # covered-mask -> list of coded vid sets so far
    seen = {0}
    while True:
        nxt: dict[int, list] = {}
        for covered, hist in frontier.items():
            for mask, vids in maximal:
                new = covered | mask
                if new == full:
                    seq = [
                        Encoding({v: 1 for v in w}) for w in hist + [vids]
                    ]
                    return len(seq), seq
                if new not in seen:
                    seen.add(new)
                    nxt[new] = hist + [vids]
        frontier = nxt
        if not frontier:
            raise ResourceLimit("search exhausted without covering all facets")
