"""One-round and iterated full-information protocol complexes.

Three per-round read disciplines are supported: register-by-register reads
(collect, "ic"), one atomic multi-register read ("ias"), and write-and-read
as a single combined step ("iis").  Each discipline has a closed-form
characterization of its reachable view configurations (`round_views`) plus
a brute-force interleaving enumerator (`schedule_oracle`); agreement of the
two routes is a test gate for everything downstream.  For ic and ias the
oracle walks register-level events and is independent of the closed form;
for iis it replays block semantics over ordered set partitions, the same
construction as the closed form, so there it is a consistency check only.

Closed forms (views are self-inclusive subsets of one facet):
  iis: ordered set partitions; a view is the union of the blocks up to and
       including the owner's block.
  ias: families pairwise comparable under inclusion (read times are totally
       ordered).
  ic:  families whose misses digraph (edge p -> q when q is not in p's
       view) is acyclic.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .complexes import (
    DEFAULT_MAX_FACETS,
    ChromaticComplex,
    Simplex,
    StateRegistry,
    assert_facet,
)
from .errors import InvalidParameters, ResourceLimit
from .subdivision import ordered_set_partitions, partition_views

IC = "ic"
IAS = "ias"
IIS = "iis"
PATTERNS = (IC, IAS, IIS)


def _check_pattern(p: str) -> str:
    if p not in PATTERNS:
        raise InvalidParameters(f"unknown pattern {p!r}; expected one of {PATTERNS}")
    return p


class GlobalView:
    """One reachable per-process view assignment: color -> set of observed vids."""

    __slots__ = ("views", "_key")

    def __init__(self, views: dict[int, frozenset[int]]):
        self.views = {c: frozenset(v) for c, v in views.items()}
        self._key = frozenset(self.views.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalView):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        parts = ", ".join(f"{c}:{sorted(v)}" for c, v in sorted(self.views.items()))
        return f"GlobalView({parts})"

    def to_dict(self) -> dict:
        return {"views": {str(c): sorted(v) for c, v in sorted(self.views.items())}}


def _misses_acyclic(views: dict[int, frozenset[int]], owner: dict[int, int]) -> bool:
    """True iff the digraph p -> q (q's vertex not in p's view) has no cycle."""
    colors = list(views)
    out = {
        p: [q for q in colors if q != p and owner[q] not in views[p]] for p in colors
    }
    seen: dict[int, int] = {}  # 0 = on stack, 1 = done

    def dfs(p: int) -> bool:
        seen[p] = 0
        for q in out[p]:
            if q not in seen:
                if not dfs(q):
                    return False
            elif seen[q] == 0:
                return False
        seen[p] = 1
        return True

    return all(dfs(p) for p in colors if p not in seen)


def round_views(c: ChromaticComplex, input_facet, pattern: str) -> frozenset[GlobalView]:
    """Closed-form reachable view configurations for one round on a facet."""
    _check_pattern(pattern)
    facet = assert_facet(c, input_facet)
    vids = sorted(facet)
    color_of = {v: c.vertices[v].color for v in vids}
    owner = {color_of[v]: v for v in vids}
    colors = sorted(owner)

    if pattern == IIS:
        return frozenset(
            GlobalView({color_of[v]: view for v, view in views.items()})
            for views in partition_views(vids)
        )

    # ias/ic: enumerate self-inclusive view candidates, then filter
    out: set[GlobalView] = set()
    others = {p: [owner[q] for q in colors if q != p] for p in colors}
    choices = {
        p: [
            frozenset({owner[p]}) | frozenset(sub)
            for k in range(len(others[p]) + 1)
            for sub in itertools.combinations(others[p], k)
        ]
        for p in colors
    }
    for combo in itertools.product(*(choices[p] for p in colors)):
        views = dict(zip(colors, combo))
        if pattern == IAS:
            ok = all(
                a <= b or b <= a for a, b in itertools.combinations(combo, 2)
            )
        else:
            ok = _misses_acyclic(views, owner)
        if ok:
            out.add(GlobalView(views))
    return frozenset(out)


# -- brute-force oracle -----------------------------------------------------


def schedule_oracle(
    c: ChromaticComplex, input_facet, pattern: str
) -> frozenset[GlobalView]:
    """Enumerate every event interleaving respecting program order.

    For ic and ias, independent of round_views: reads are evaluated against
    write positions along each explored schedule; outcomes are deduplicated
    as view sets.  States that agree on (writes done, reads done, values
    seen) share all continuations, which keeps the walk polynomial in
    practice.  For iis, each ordered partition is replayed as block writes
    followed by block snapshots, which is the closed form's own
    construction, not an independent one.
    """
    _check_pattern(pattern)
    facet = assert_facet(c, input_facet)
    vids = sorted(facet)
    n = len(vids)
    color_of = {v: c.vertices[v].color for v in vids}
    colors = [color_of[v] for v in vids]

    if pattern == IC and n > 3:
        raise ResourceLimit("collect-schedule oracle is capped at 3 processes")
    if pattern in (IAS, IIS) and n > 4:
        raise ResourceLimit("snapshot-schedule oracles are capped at 4 processes")

    if pattern == IIS:
        out: set[GlobalView] = set()
        for partition in ordered_set_partitions(vids):
            # simulate block semantics: all of the block writes, then all read
            written: list[int] = []
            views: dict[int, frozenset[int]] = {}
            for block in partition:
                written.extend(block)
                snap = frozenset(written)
                for v in block:
                    views[color_of[v]] = snap
            out.add(GlobalView(views))
        return frozenset(out)

    full = (1 << n) - 1

    if pattern == IAS:
        # events: write_i, snapshot_i (write precedes snapshot)
        @lru_cache(maxsize=None)
        def walk(written: int, snapped: tuple[int | None, ...]) -> frozenset:
            if all(s is not None for s in snapped):
                return frozenset({snapped})
            results: set = set()
            for i in range(n):
                if not written & (1 << i):
                    results |= walk(written | (1 << i), snapped)
                elif snapped[i] is None:
                    nxt = snapped[:i] + (written,) + snapped[i + 1 :]
                    results |= walk(written, nxt)
            return frozenset(results)

        outcomes = walk(0, (None,) * n)
        walk.cache_clear()
    else:
        # ic events: write_i, then reads of each of the n registers in any order
        @lru_cache(maxsize=None)
        def walk_ic(
            written: int, reads_left: tuple[int, ...], seen: tuple[int, ...]
        ) -> frozenset:
            if all(r == 0 for r in reads_left):
                return frozenset({seen})
            results: set = set()
            for i in range(n):
                if not written & (1 << i):
                    results |= walk_ic(written | (1 << i), reads_left, seen)
                elif reads_left[i]:
                    rl = reads_left[i]
                    for j in range(n):
                        if rl & (1 << j):
                            nl = reads_left[:i] + (rl & ~(1 << j),) + reads_left[i + 1 :]
                            s = seen
                            if written & (1 << j):
                                # a read of a written register observes it
                                s = seen[:i] + (seen[i] | (1 << j),) + seen[i + 1 :]
                            results |= walk_ic(written, nl, s)
            return frozenset(results)

        outcomes = walk_ic(0, (full,) * n, (0,) * n)
        walk_ic.cache_clear()

    out = set()
    for seen in outcomes:
        views = {
            colors[i]: frozenset(vids[j] for j in range(n) if (seen[i] | (1 << i)) & (1 << j))
            for i in range(n)
        }
        out.add(GlobalView(views))
    return frozenset(out)


def raw_interleaving_views(
    c: ChromaticComplex, input_facet, pattern: str, sample: int | None = None, seed: int = 0
) -> frozenset[GlobalView]:
    """Evaluate explicit event sequences one by one (no state sharing).

    A second, slower cross-check of `schedule_oracle`.  Enumerates every
    linear extension when feasible; with `sample` set, draws that many
    random extensions instead (used for the 12-event collect case).
    """
    _check_pattern(pattern)
    if pattern == IIS:
        return schedule_oracle(c, input_facet, pattern)
    facet = assert_facet(c, input_facet)
    vids = sorted(facet)
    n = len(vids)
    color_of = {v: c.vertices[v].color for v in vids}

    # per-process event lists in program order; reads may permute
    def run(sequence: list[tuple]) -> GlobalView:
        written: set[int] = set()
        seen: dict[int, set[int]] = {i: set() for i in range(n)}
        for ev in sequence:
            if ev[0] == "w":
                written.add(ev[1])
            elif ev[0] == "snap":
                seen[ev[1]] |= written
            else:  # ("r", reader, target)
                if ev[2] in written:
                    seen[ev[1]].add(ev[2])
        views = {
            color_of[vids[i]]: frozenset(vids[j] for j in seen[i] | {i})
            for i in range(n)
        }
        return GlobalView(views)

    per_proc: list[list[list[tuple]]] = []
    for i in range(n):
        if pattern == IAS:
            per_proc.append([[("w", i), ("snap", i)]])
        else:
            reads = [("r", i, j) for j in range(n)]
            per_proc.append([[("w", i)] + list(p) for p in itertools.permutations(reads)])

    def interleavings(seqs: tuple[tuple[tuple, ...], ...]):
        if all(not s for s in seqs):
            yield []
            return
        for i, s in enumerate(seqs):
            if s:
                rest = seqs[:i] + (s[1:],) + seqs[i + 1 :]
                for tail in interleavings(rest):
                    yield [s[0]] + tail

    out: set[GlobalView] = set()
    if sample is None:
        for program in itertools.product(*per_proc):
            for seq in interleavings(tuple(tuple(p) for p in program)):
                out.add(run(seq))
    else:
        rng = random.Random(seed)
        for _ in range(sample):
            program = [list(rng.choice(p)) for p in per_proc]
            seq = []
            pending = [list(p) for p in program]
            while any(pending):
                i = rng.choice([k for k in range(n) if pending[k]])
                seq.append(pending[i].pop(0))
            out.add(run(seq))
    return frozenset(out)


# -- protocol complexes ------------------------------------------------------


def one_round(
    c: ChromaticComplex,
    pattern: str,
    registry: StateRegistry,
    max_facets: int | None = None,
) -> ChromaticComplex:
    """One full-information round applied to every facet of c.

    States come from `registry`, so an input vid stays the vid of its
    process's solo view.  (Executions on a proper face of a facet are faces
    of that facet's executions, so iterating over facets loses nothing.)
    """
    facets: list[Simplex] = []
    for f in sorted(c.facets, key=sorted):
        for gv in round_views(c, f, pattern):
            facets.append(
                Simplex(registry.get(col, view) for col, view in gv.views.items())
            )
        if max_facets is not None and len(facets) > max_facets:
            raise ResourceLimit(f"protocol complex exceeded {max_facets} facets")
    return ChromaticComplex(registry.vertices, facets)


def protocol_complex(
    c: ChromaticComplex,
    pattern: str,
    rounds: int = 1,
    *,
    max_facets: int = DEFAULT_MAX_FACETS,
) -> ChromaticComplex:
    """The r-round full-information protocol complex.

    Vertices are (color, accumulated view) states; round i+1 consumes the
    facets of round i.  Every input vertex keeps its vid as the state of a
    process that only ever saw itself; other states get vids above the
    input's largest.
    """
    _check_pattern(pattern)
    if rounds < 1:
        raise InvalidParameters("need rounds >= 1")
    cur = c
    for _ in range(rounds):
        cur = one_round(cur, pattern, StateRegistry(cur), max_facets=max_facets)
    return cur


def check_no_input_edges(c: ChromaticComplex, pattern: str) -> bool:
    """No two input vertices stay mutually unaware in any one-round facet."""
    xi = protocol_complex(c, pattern, 1)
    return all(len(f & c.vertices.keys()) < 2 for f in xi.facets)


def subcomplex_sample(
    c: ChromaticComplex, rng: random.Random, max_faces: int = 4
) -> ChromaticComplex:
    """A random face-generated subcomplex (deterministic under the rng)."""
    faces = sorted(c.faces(), key=lambda s: (len(s), sorted(s)))
    k = rng.randint(1, min(max_faces, len(faces)))
    return c.subcomplex(rng.sample(faces, k))


def check_intersection_preserving(
    c: ChromaticComplex, pattern: str, trials: int, seed: int = 0
) -> bool:
    """One round's protocol of an intersection equals intersection of protocols.

    Samples `trials` random subcomplex pairs A, B of c and compares
    X(A) ∩ X(B) with X(A ∩ B), all built over one registry on c.
    """
    if not c.facets:
        return True
    rng = random.Random(seed)
    reg = StateRegistry(c)
    for _ in range(trials):
        a = subcomplex_sample(c, rng)
        b = subcomplex_sample(c, rng)
        xa, xb, xab = (one_round(s, pattern, reg) for s in (a, b, a.intersect(b)))
        if xa.intersect(xb) != xab:
            return False
    return True
