"""One-round and iterated full-information protocol complexes.

Three per-round read disciplines are supported: register-by-register reads
(collect, "ic"), one atomic multi-register read ("ias"), and write-and-read
as a single combined step ("iis").  Each discipline has a closed-form
characterization of its reachable view configurations (`round_views`) plus
a brute-force interleaving enumerator (`schedule_oracle`); agreement of the
two routes is a test gate for everything downstream.  The oracle walks
register-level events and uses no closed form: iis runs the ias events
(write, then snapshot) and keeps the immediate outcomes, where whoever saw
q saw everything q saw (Borowsky & Gafni, PODC 1993).

Closed forms (views are self-inclusive subsets of one facet):
  iis: ordered set partitions; a view is the union of the blocks up to and
       including the owner's block.
  ias: families pairwise comparable under inclusion (read times are totally
       ordered).
  ic:  families whose misses digraph (edge p -> q when q is not in p's
       view) is acyclic.

The families depend only on the number of processes, so each pattern's are
built once per facet size, over positions 0..n-1 (`_template`, cached on
first use), and `_families` moves them onto a facet's vids, positions by
color rank.  ias keeps the definition, the pairwise comparable members of
the product of self-inclusive views, searched depth-first so that an
incomparable prefix is dropped once.  ic is generated instead: the misses
digraph is acyclic iff some order of the processes lets each one see its
whole prefix and any subset of its suffix.  `one_round` numbers new states by content
(see `StateRegistry`) and checks its budget against counts of the families
(`_family_count`), so a facet too large to enumerate raises ResourceLimit
without building its template.  It emits a facet's families from the
template compiled once per size (`_compiled`): each distinct (position,
view) state is requested once per facet, in first-use order.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from math import comb

from .complexes import (
    DEFAULT_MAX_FACETS,
    ChromaticComplex,
    CompiledRows,
    Simplex,
    StateRegistry,
    assert_facet,
    compile_rows,
    mask_sets,
)
from .errors import InvalidParameters, ResourceLimit
from .subdivision import ordered_bell, partition_views

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

    @classmethod
    def _of(cls, pairs) -> "GlobalView":
        """From (color, frozenset view) pairs with distinct colors, as given."""
        gv = cls.__new__(cls)
        gv.views = dict(pairs)
        gv._key = frozenset(pairs)
        return gv

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


def _with_subsets(base: int, others) -> list[int]:
    """base plus each subset of others, by size, in `combinations` order."""
    return [
        base | sum(1 << q for q in sub)
        for k in range(len(others) + 1)
        for sub in itertools.combinations(others, k)
    ]


def _comparable_product(choices: list[list[int]], chosen: tuple[int, ...]):
    """Extensions of `chosen` in `product(*choices)` with comparable masks.

    Depth-first over positions, so they come in product order; a mask is
    kept only if it is comparable with every mask already chosen, which
    prunes each incomparable prefix once instead of per completion.
    """
    if len(chosen) == len(choices):
        yield chosen
        return
    for m in choices[len(chosen)]:
        if all((m & a) in (a, m) for a in chosen):
            yield from _comparable_product(choices, chosen + (m,))


@lru_cache(maxsize=None)
def _template(pattern: str, n: int) -> tuple[tuple[int, ...], ...]:
    """The view families of one round on n processes, over positions 0..n-1.

    Each family is a tuple of view masks, one per position in position
    order.  ias families come in the order of the product of each
    position's self-inclusive views, ic families in sorted order, iis
    families one per ordered partition.
    """
    if pattern == IIS:
        return tuple(
            tuple(sum(1 << j for j in views[i]) for i in range(n))
            for views in partition_views(list(range(n)))
        )
    if pattern == IAS:
        choices = [
            _with_subsets(1 << i, [j for j in range(n) if j != i]) for i in range(n)
        ]
        return tuple(_comparable_product(choices, ()))
    # acyclic misses: some order in which everyone sees its prefix and any
    # subset of its suffix
    found: set[tuple[int, ...]] = set()
    for order in itertools.permutations(range(n)):
        per: list[list[int]] = [[] for _ in range(n)]
        for j, p in enumerate(order):
            prefix = sum(1 << q for q in order[: j + 1])
            per[p] = _with_subsets(prefix, order[j + 1 :])
        found.update(itertools.product(*per))
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def _compiled(pattern: str, n: int) -> CompiledRows:
    """`_template(pattern, n)` as compiled rows of (position, mask) states."""
    return compile_rows(enumerate(fam) for fam in _template(pattern, n))


@lru_cache(maxsize=None)
def _family_count(pattern: str, n: int) -> int:
    """len(_template(pattern, n)), counted without building a family.

    iis: ordered set partitions.  ic: labeled acyclic digraphs (the misses
    digraphs), by inclusion-exclusion over the set of sources.  ias: see
    `_chain_count`.
    """
    if pattern == IIS:
        return ordered_bell(n)
    if pattern == IAS:
        return _chain_count(n, n)
    dags = [1]
    for m in range(1, n + 1):
        dags.append(
            sum(
                (-1) ** (k + 1) * comb(m, k) * 2 ** (k * (m - k)) * dags[m - k]
                for k in range(1, m + 1)
            )
        )
    return dags[n]


@lru_cache(maxsize=None)
def _chain_count(s: int, u: int) -> int:
    """ias families, counted from the largest view down.

    The distinct views of an ias family form a chain whose top holds every
    process.  Given the chain's current bottom, of s processes, u of which
    have no view yet: some a >= 1 of the u take it as their view, and the
    other u - a go into a proper subset of it that holds all of them.
    """
    total = 0
    for a in range(1, u + 1):
        rest = u - a
        below = 1 if rest == 0 else sum(
            comb(s - rest, t - rest) * _chain_count(t, rest) for t in range(rest, s)
        )
        total += comb(u, a) * below
    return total


def _placement(
    c: ChromaticComplex, facet: Simplex
) -> tuple[list[int], list[int], list[frozenset[int]]]:
    """A facet's vids on template positions by color rank.

    Returns the vid and the color at each position, and the vid set of
    every view mask over those positions.
    """
    at = sorted(facet, key=lambda v: c.vertices[v].color)
    return at, [c.vertices[v].color for v in at], mask_sets(at)


def _families(
    c: ChromaticComplex, facet: Simplex, pattern: str
) -> list[list[tuple[int, frozenset[int]]]]:
    """The view families of one round on a facet of c, in template order.

    Each family lists its (color, view) pairs in color order (`_placement`).
    """
    at, colors, sets = _placement(c, facet)
    return [
        [(colors[i], sets[m]) for i, m in enumerate(fam)]
        for fam in _template(pattern, len(at))
    ]


def round_views(c: ChromaticComplex, input_facet, pattern: str) -> frozenset[GlobalView]:
    """Closed-form reachable view configurations for one round on a facet."""
    _check_pattern(pattern)
    facet = assert_facet(c, input_facet)
    return frozenset(GlobalView._of(fam) for fam in _families(c, facet, pattern))


# -- brute-force oracle -----------------------------------------------------


def _immediate(masks: tuple[int, ...]) -> bool:
    """Whoever saw q saw everything q saw (masks by position, self bits set)."""
    return all(
        m & masks[q] == masks[q] for m in masks for q in range(len(masks)) if m >> q & 1
    )


def _outcome_views(
    c: ChromaticComplex, vids: list[int], pattern: str, outcomes
) -> frozenset[GlobalView]:
    """Per-position seen masks over sorted `vids` as GlobalViews.

    Adds each position's own bit; for iis keeps only the `_immediate` ones.
    """
    colors = [c.vertices[v].color for v in vids]
    sets = mask_sets(vids)
    out = set()
    for seen in outcomes:
        masks = tuple(m | 1 << i for i, m in enumerate(seen))
        if pattern != IIS or _immediate(masks):
            out.add(GlobalView._of([(colors[i], sets[m]) for i, m in enumerate(masks)]))
    return frozenset(out)


def schedule_oracle(
    c: ChromaticComplex, input_facet, pattern: str
) -> frozenset[GlobalView]:
    """Enumerate every event interleaving respecting program order.

    Independent of round_views: reads are evaluated against write
    positions along each explored schedule; outcomes are deduplicated as
    view sets.  States that agree on (writes done, reads done, values seen)
    share all continuations, which keeps the walk polynomial in practice.
    ic runs a write, then n register reads in any order; ias and iis run a
    write, then one snapshot, and iis keeps the `_immediate` outcomes.
    """
    _check_pattern(pattern)
    facet = assert_facet(c, input_facet)
    vids = sorted(facet)
    n = len(vids)

    if pattern == IC and n > 3:
        raise ResourceLimit("collect-schedule oracle is capped at 3 processes")
    if pattern in (IAS, IIS) and n > 4:
        raise ResourceLimit("snapshot-schedule oracles are capped at 4 processes")

    if pattern != IC:
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
        bits = [1 << i for i in range(n)]

        @lru_cache(maxsize=None)
        def walk_ic(
            written: int, reads_left: tuple[int, ...], seen: tuple[int, ...]
        ) -> frozenset:
            if not any(reads_left):
                return frozenset({seen})
            results: set = set()
            for i, bit in enumerate(bits):
                if not written & bit:
                    results |= walk_ic(written | bit, reads_left, seen)
                elif reads_left[i]:
                    rl = reads_left[i]
                    head, tail = reads_left[:i], reads_left[i + 1 :]
                    for b in bits:
                        if rl & b:
                            s = seen
                            if written & b:
                                # a read of a written register observes it
                                s = seen[:i] + (seen[i] | b,) + seen[i + 1 :]
                            results |= walk_ic(written, head + (rl & ~b,) + tail, s)
            return frozenset(results)

        outcomes = walk_ic(0, ((1 << n) - 1,) * n, (0,) * n)
        walk_ic.cache_clear()

    return _outcome_views(c, vids, pattern, outcomes)


def raw_interleaving_views(
    c: ChromaticComplex, input_facet, pattern: str, sample: int | None = None, seed: int = 0
) -> frozenset[GlobalView]:
    """Evaluate explicit event sequences one by one (no state sharing).

    A second, slower cross-check of `schedule_oracle`, with the same event
    programs and the same iis filter.  Enumerates every linear extension
    when feasible; with `sample` set, draws that many random extensions
    instead (used for the 12-event collect case).
    """
    _check_pattern(pattern)
    facet = assert_facet(c, input_facet)
    vids = sorted(facet)
    n = len(vids)

    # per-process event lists in program order; reads may permute
    def run(sequence: list[tuple]) -> tuple[int, ...]:
        written = 0
        seen = [0] * n
        for ev in sequence:
            if ev[0] == "w":
                written |= 1 << ev[1]
            elif ev[0] == "snap":
                seen[ev[1]] |= written
            else:  # ("r", reader, target)
                seen[ev[1]] |= written & 1 << ev[2]
        return tuple(seen)

    per_proc: list[list[list[tuple]]] = []
    for i in range(n):
        if pattern != IC:
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

    outcomes: set[tuple[int, ...]] = set()
    if sample is None:
        for program in itertools.product(*per_proc):
            for seq in interleavings(tuple(tuple(p) for p in program)):
                outcomes.add(run(seq))
    else:
        rng = random.Random(seed)
        for _ in range(sample):
            program = [list(rng.choice(p)) for p in per_proc]
            seq = []
            pending = [list(p) for p in program]
            while any(pending):
                i = rng.choice([k for k in range(n) if pending[k]])
                seq.append(pending[i].pop(0))
            outcomes.add(run(seq))
    return _outcome_views(c, vids, pattern, outcomes)


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
    With `max_facets` set, the facet count is projected from the family
    counts before any family is built.
    """
    _check_pattern(pattern)
    if max_facets is not None:
        projected = sum(_family_count(pattern, len(f)) for f in c.facets)
        if projected > max_facets:
            raise ResourceLimit(
                f"protocol round would make {projected} facets, over {max_facets}"
            )
    facets: list[Simplex] = []
    for f in sorted(c.facets, key=sorted):
        at, colors, sets = _placement(c, f)
        registry.emit(colors, sets, _compiled(pattern, len(at)), facets)
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


def subcomplex_sample(c: ChromaticComplex, rng: random.Random) -> ChromaticComplex:
    """A random subcomplex generated by 1-4 faces (deterministic under the rng)."""
    faces = sorted(c.faces(), key=lambda s: (len(s), sorted(s)))
    k = rng.randint(1, min(4, len(faces)))
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
