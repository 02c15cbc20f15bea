"""The producers of encoding sequences: a greedy star cover, and first-fit
packing into b-bit rounds.

Each outer round of the star cover scans candidate vertices in ascending
vid and selects the closed star of every vertex whose star keeps a two-hop
clearance from the stars already selected this round (the
star-intersection guard).  The guard is one test against a frontier set,
`near`, that holds this round's cover and every neighbor of it: a star
keeps its clearance iff none of its vertices lies in `near`.  Selected
stars receive disjoint code blocks, so within a round every coded vertex
is distinguishable outright.  Two repairs over the plain greedy sweep are
load-bearing and documented inline: candidate re-seeding (termination) and
round-global per-color code uniqueness (distinguishability across stars).

The star cover is a report (`itermem greedy-star` and its `--trace`), not
a compile step.  `_first_fit(c, b)` compiles c to b-bit registers by
packing its facets first-fit into rounds, which is first-fit greedy
coloring of the graph of facets that cannot share a round (Welsh &
Powell, Comput. J. 1967); `simulator.iterate_pipeline` calls it directly.
`split_to_budget(seq, c, b)` is the public form: it checks that seq
covers c (a sequence that does not raises InvalidParameters), reads it no
further, and packs, so any cover compiles alike.

Whether a sequence is accepted is decided in `encoding` (`verify_cover`),
not here.  The packer and the star cover meet the stricter rival rule (no
two rivals coded alike in a round), so what they emit passes it.  The
library's own sequences are built unchecked (`Encoding._of`); outside
input goes through `Encoding`.
"""

from __future__ import annotations

from .complexes import ChromaticComplex, Simplex
from .encoding import Encoding, _code_count, verify_cover
from .errors import InvalidParameters, ItermemError


def greedy_star(c: ChromaticComplex) -> tuple[list[Encoding], list[tuple[int, ...]]]:
    """Cover c by vertex stars: one encoding function per round, and each
    round's centers in ascending vid.

    The facets a round covers, those that hold one of its centers, and its
    codes are read off c and the sequence (`io.trace_to_dict`).

    The guard "every vertex of the candidate star has a star disjoint from
    this round's covered part" holds iff no vertex within distance 1 of the
    candidate star lies in an already-selected star (a closed star meets a
    face-closed set iff their vertex sets meet).  Adjacency is symmetric,
    so that is: no vertex of the candidate star lies in `near`, the round's
    cover together with its neighbors.  The sweep tests this as
    `v not in near and near.isdisjoint(adj[v])`, and selecting v adds its
    star and the neighbors of each of its neighbors to `near`, which keeps
    `near` equal to the cover plus its neighbors.
    Rounds continue until every facet holds a selected center, so every
    facet is coded whole in the round that selects its first center.
    """
    if not c.facets:
        raise InvalidParameters("need a nonempty complex")
    adj = c.adjacency()
    color = {vid: vx.color for vid, vx in c.vertices.items()}
    through: dict[int, list[Simplex]] = {v: [] for v in c.vertices}
    for f in c.facets:
        for v in f:
            through[v].append(f)
    open_facets = set(c.facets)  # facets without a selected center
    pool = set(c.vertices)
    seq: list[Encoding] = []
    centers: list[tuple[int, ...]] = []
    while open_facets:
        # every round retires at least one never-before-selected center
        if len(seq) >= len(c.vertices):  # pragma: no cover
            raise ItermemError("star cover failed to terminate")
        if not pool:
            # re-seed with vertices whose closed star is not fully covered;
            # without this the sweep can strand a facet whose vertices were
            # all swallowed by neighboring stars (candidate exhaustion)
            pool = {v for f in open_facets for v in f}
        near: set[int] = set()  # this round's stars and their neighbors
        selected: list[int] = []
        for v in sorted(pool):
            if v not in near and near.isdisjoint(adj[v]):
                selected.append(v)
                near.add(v)
                near.update(adj[v])
                for w in adj[v]:
                    near.update(adj[w])
        # disjoint per-star code blocks; same-color vertices get distinct
        # codes within a star (per-color rank), and distinct blocks keep
        # same-color vertices of different stars apart: stars selected in
        # one round can sit two hops from each other, inside the window
        # the distinguishability predicate inspects
        codes: dict[int, int] = {}
        base = 1
        for v in selected:
            rank: dict[int, int] = {}
            for x in sorted((v, *adj[v])):
                k = rank.get(color[x], 0)
                codes[x] = base + k
                rank[color[x]] = k + 1
            base += max(rank.values())
        seq.append(Encoding._of(codes))
        centers.append(tuple(selected))
        open_facets.difference_update(*map(through.__getitem__, selected))
        pool.difference_update(codes)  # codes holds this round's stars
    return seq, centers


# -- packing ------------------------------------------------------------------


def split_to_budget(
    seq: list[Encoding], c: ChromaticComplex, b: int
) -> list[Encoding]:
    """Pack the facets of c into rounds of at most 2^b - 1 codes each
    (`_first_fit`).

    seq must cover c (`verify_cover`), or InvalidParameters is raised; it
    is checked, not read otherwise, so the packing depends only on c and b,
    and the one-round cover that codes each vertex alone compiles as any
    other.
    """
    if b < 1:
        raise InvalidParameters("need b >= 1")
    if not verify_cover(c, seq):
        raise InvalidParameters("need a sequence that covers c (verify_cover)")
    return _first_fit(c, b)


def _first_fit(c: ChromaticComplex, b: int) -> list[Encoding]:
    """The facets of c packed first-fit into rounds of 2^b - 1 codes, b >= 1.

    Facets are taken in row order (`ChromaticComplex.rows`), and each
    joins the first round where every vertex of the facet is already coded
    or can take the least code in 1..2^b-1 that none of its coded rivals
    uses.  So no round codes two rivals alike (the rival rule, stricter
    than `verify_cover`'s), and every facet is coded whole: the output
    covers c.

    Per vertex, a bitmask holds the rounds in which its coded rivals use
    every code; OR-ing the masks of a facet's vertices gives its first
    round with room in one step.  Vertices of a facet have distinct colors
    and so are never rivals of each other: coding one leaves the others'
    codes free.
    """
    of = c.rivals()
    # a vertex with fewer rivals than codes always finds a free code, so
    # codes past the largest rival count plus one are never handed out
    budget = _code_count(b, max(map(len, of.values()), default=0) + 1)
    every_code = (1 << (budget + 1)) - 2  # bits 1..budget
    rounds: list[dict[int, int]] = []  # per round: vid -> code
    taken: list[dict[int, int]] = []  # per round: open vid -> its rivals' codes
    full: dict[int, int] = {}  # vid -> rounds with no code left for it
    for facet in c.rows():
        blocked = 0
        for v in facet:
            blocked |= full.get(v, 0)
        i = (~blocked & (blocked + 1)).bit_length() - 1
        if i == len(rounds):
            rounds.append({})
            taken.append({})
        codes, near, bit = rounds[i], taken[i], 1 << i
        for v in facet:
            if v in codes:
                continue
            used = near.pop(v, 0) | 1  # code 0 is never handed out
            k = (~used & (used + 1)).bit_length() - 1
            codes[v] = k
            for x in of[v]:
                if x in codes or full.get(x, 0) & bit:
                    continue
                mask = near.get(x, 0) | (1 << k)
                if mask == every_code:
                    full[x] = full.get(x, 0) | bit
                    near.pop(x, None)
                else:
                    near[x] = mask
    return [Encoding._of(codes) for codes in rounds]
