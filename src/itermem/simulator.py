"""Bounded-register execution of the write/read/update loop.

A process writes its round code (or bottom), reads the other registers per
a schedule, and inverts each non-bottom value back to the unique candidate
neighbor state (`decode`).  A process whose own vertex is uncoded this
round keeps its state unchanged — its decoded values are discarded.

`run_bounded` executes one explicit schedule; `bounded_protocol_complex`
folds all schedules per round into reachable knowledge vectors (two
schedule combinations with equal round-k states share all continuations)
using the oracle-validated one-round view families, with real decode calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .complexes import DEFAULT_MAX_FACETS, ChromaticComplex, Simplex, assert_facet
from .encoding import Encoding
from .errors import AmbiguousDecode, InvalidParameters, ItermemError, ResourceLimit
from .generators import gen_glued
from .iso import is_isomorphic
from .protocols import (
    IC,
    GlobalView,
    StateRegistry,
    protocol_complex,
    round_views,
)

Event = tuple  # ("write", color) | ("read", reader_color, source_color)


@dataclass(frozen=True)
class SimProcessState:
    """A process mid-run: its color, input vertex, and decoded knowledge."""

    color: int
    input_vertex: int
    knowledge: frozenset  # of (color, vid), own pair always present


def decode(
    reader: SimProcessState,
    source: int,
    value: int | None,
    enc: Encoding,
    c: ChromaticComplex,
) -> int | None:
    """Invert a register value to the unique matching neighbor vertex.

    Bottom carries no information.  Two matching candidates mean the
    encoding failed to keep same-color two-hop states apart; that is always
    raised, never resolved by choice.
    """
    if value is None:
        return None
    cands = [
        x
        for x in sorted(c.adjacency()[reader.input_vertex])
        if c.vertices[x].color == source and enc.value(x) == value
    ]
    if len(cands) > 1:
        raise AmbiguousDecode(
            f"value {value} from color {source} matches vids {cands} "
            f"near vid {reader.input_vertex}"
        )
    if not cands:
        raise ItermemError(
            f"no candidate for value {value} from color {source} "
            f"near vid {reader.input_vertex}"
        )
    return cands[0]


# -- explicit schedules -------------------------------------------------------


def sequential_schedule(colors: list[int]) -> list[Event]:
    """Processes run one after another in the given order."""
    ev: list[Event] = []
    for p in colors:
        ev.append(("write", p))
        ev.extend(("read", p, q) for q in colors)
    return ev


def concurrent_schedule(colors: list[int]) -> list[Event]:
    """All writes land before any read: everyone observes everyone."""
    return [("write", p) for p in colors] + [
        ("read", p, q) for p in colors for q in colors
    ]


def _validate_schedule(events: list[Event], colors: set[int]) -> None:
    writes: dict[int, int] = {}
    reads: dict[tuple[int, int], int] = {}
    for i, ev in enumerate(events):
        if ev[0] == "write" and len(ev) == 2 and ev[1] in colors:
            if ev[1] in writes:
                raise InvalidParameters(f"color {ev[1]} writes twice")
            writes[ev[1]] = i
        elif ev[0] == "read" and len(ev) == 3 and ev[1] in colors and ev[2] in colors:
            if (ev[1], ev[2]) in reads:
                raise InvalidParameters(f"duplicate read {ev}")
            reads[(ev[1], ev[2])] = i
        else:
            raise InvalidParameters(f"malformed event {ev!r}")
    if set(writes) != colors or set(reads) != {(p, q) for p in colors for q in colors}:
        raise InvalidParameters("schedule must write once and read every register")
    for (p, _q), i in reads.items():
        if i < writes[p]:
            raise InvalidParameters(f"color {p} reads before writing")


def run_bounded(
    c: ChromaticComplex,
    facet,
    seq: list[Encoding],
    schedules: list[list[Event]],
) -> GlobalView:
    """Execute one schedule per round over a fresh memory layer each round."""
    f = assert_facet(c, facet)
    if len(schedules) != len(seq):
        raise InvalidParameters("need exactly one schedule per encoding function")
    vid_of = {c.vertices[v].color: v for v in f}
    colors = set(vid_of)
    states = {
        p: SimProcessState(p, v, frozenset({(p, v)})) for p, v in vid_of.items()
    }
    for enc, sched in zip(seq, schedules):
        _validate_schedule(sched, colors)
        cells: dict[int, int | None] = {p: None for p in colors}
        buf: dict[int, set] = {p: set() for p in colors}
        for ev in sched:
            if ev[0] == "write":
                cells[ev[1]] = enc.value(vid_of[ev[1]])
            else:
                _, rd, src = ev
                if src == rd:
                    continue  # own cell: self-knowledge is initial state
                x = decode(states[rd], src, cells[src], enc, c)
                if x is not None:
                    buf[rd].add((src, x))
        for p in colors:
            if enc.value(vid_of[p]) is not None:
                states[p] = replace(
                    states[p], knowledge=states[p].knowledge | buf[p]
                )
            # an uncoded process discards what it decoded this round
    return GlobalView(
        {p: frozenset(v for (_q, v) in s.knowledge) for p, s in states.items()}
    )


# -- all-schedules protocol complex -------------------------------------------


def bounded_protocol_complex(
    c: ChromaticComplex,
    seq: list[Encoding],
    registry: StateRegistry | None = None,
    max_facets: int = DEFAULT_MAX_FACETS,
) -> ChromaticComplex:
    """Reachable final states over every schedule combination, as a complex.

    Per facet and per round, the reachable knowledge vectors are composed
    against every one-round read configuration; vectors are deduplicated
    between rounds.  Coded readers decode via `decode`; uncoded readers
    skip the (discarded anyway) decode.  Vertices glue on equal
    (color, knowledge) states.
    """
    if len(c.colors()) > 3:
        raise ResourceLimit("bounded enumeration is capped at 3 process colors")
    reg = registry if registry is not None else StateRegistry()
    facets: list[Simplex] = []
    for f in sorted(c.facets, key=sorted):
        participants = sorted(f)
        color_of = {v: c.vertices[v].color for v in participants}
        fams = round_views(c, f, IC)
        vecs: set[tuple] = {
            tuple(frozenset({(color_of[v], v)}) for v in participants)
        }
        for enc in seq:
            new_vecs: set[tuple] = set()
            for vec in vecs:
                for gv in fams:
                    nxt = []
                    for i, p in enumerate(participants):
                        if enc.value(p) is None:
                            nxt.append(vec[i])
                            continue
                        know = set(vec[i])
                        st = SimProcessState(color_of[p], p, vec[i])
                        for q in gv.views[color_of[p]]:
                            if q != p and enc.value(q) is not None:
                                x = decode(st, color_of[q], enc.value(q), enc, c)
                                know.add((color_of[q], x))
                        nxt.append(frozenset(know))
                    new_vecs.add(tuple(nxt))
            vecs = new_vecs
        for vec in sorted(vecs, key=lambda t: sorted(map(sorted, t))):
            facets.append(
                Simplex(
                    reg.get(color_of[p], vec[i])
                    for i, p in enumerate(participants)
                )
            )
        if len(facets) > max_facets:
            raise ResourceLimit(f"bounded protocol exceeded {max_facets} facets")
    return ChromaticComplex(reg.vertices, facets)


# -- single-function counterexample -------------------------------------------


def _observation_complex(
    c: ChromaticComplex,
    sub: ChromaticComplex,
    enc: Encoding,
    registry: StateRegistry,
) -> ChromaticComplex:
    """States as raw observations (color, code), without decoding.

    This is what a reader actually holds when an encoding is too coarse to
    invert; equal observation sets from different executions merge.
    """
    facets: list[Simplex] = []
    for f in sub.facets:
        vid_of = {sub.vertices[v].color: v for v in f}
        for gv in round_views(sub, f, IC):
            verts = []
            for col, view in gv.views.items():
                p = vid_of[col]
                obs = frozenset(
                    (c.vertices[x].color, enc.value(x))
                    for x in view
                    if x != p and enc.value(x) is not None
                )
                verts.append(registry.get(col, (p, obs)))
            facets.append(Simplex(verts))
    return ChromaticComplex(registry.vertices, facets)


def code_collision_counterexample() -> tuple[ChromaticComplex, list[Encoding], dict]:
    """Two triangles on a shared edge with both apexes coded alike.

    Readers of the apex register see the same value in both triangles, so
    their observation states merge across executions that full information
    keeps apart: the intersection of the two triangles' state complexes
    exceeds the shared edge's own state complex.  Giving the apexes
    distinct codes restores the full-information complex exactly.
    """
    c = gen_glued(2)  # vids: a1=0, p1=1, p2=2, a2=3
    a1, p1, p2, a2 = 0, 1, 2, 3
    broken = Encoding({a1: 1, a2: 1, p1: 1, p2: 1})
    repaired = Encoding({a1: 1, a2: 2, p1: 1, p2: 1})

    alpha = c.subcomplex([[a1, p1, p2]])
    beta = c.subcomplex([[a2, p1, p2]])
    sigma = alpha.intersect(beta)
    reg = StateRegistry()
    xa = _observation_complex(c, alpha, broken, reg)
    xb = _observation_complex(c, beta, broken, reg)
    xs = _observation_complex(c, sigma, broken, reg)
    inter = xa.intersect(xb)
    merged = sorted(set(inter.vertices) - set(xs.vertices))

    fi = protocol_complex(c, IC, 1)
    broken_full = _observation_complex(c, c, broken, StateRegistry())
    repaired_full = bounded_protocol_complex(c, [repaired])

    from .io import _canonical_label, encoding_to_dict

    evidence = {
        "merged_states": [
            {
                "color": reg.vertices[v].color,
                "label": _canonical_label(reg.vertices[v].label),
            }
            for v in merged
        ],
        "intersection_facets": len(inter.facets),
        "shared_edge_facets": len(xs.facets),
        "intersection_preserved": inter == xs,
        "broken_isomorphic_to_full_information": is_isomorphic(broken_full, fi)[0],
        "repaired_isomorphic_to_full_information": is_isomorphic(repaired_full, fi)[0],
        "repaired_encoding": encoding_to_dict(repaired),
    }
    return c, [broken], evidence


# -- end-to-end pipeline -------------------------------------------------------


def iterate_pipeline(
    c: ChromaticComplex,
    r: int,
    b: int,
    max_facets: int = DEFAULT_MAX_FACETS,
) -> tuple[ChromaticComplex, int]:
    """r full-information iterations, each emulated by budgeted rounds.

    Per iteration: build the star-cover sequence for the current complex,
    split it to the b-bit budget, and fold the bounded runs into the next
    complex.  Returns the final complex and the total bounded round count.
    """
    from .greedy import greedy_star, split_to_budget

    if r < 1 or b < 1:
        raise InvalidParameters("need r >= 1 and b >= 1")
    cur = c
    total = 0
    for _ in range(r):
        seq, _trace = greedy_star(cur)
        seq = split_to_budget(seq, cur, b)
        total += len(seq)
        cur = bounded_protocol_complex(cur, seq, max_facets=max_facets)
    return cur, total
