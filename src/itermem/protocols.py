"""One-round and iterated full-information protocol complexes.

Three per-round read disciplines are supported: register-by-register reads
(collect, "ic"), one atomic multi-register read ("ias"), and write-and-read
as a single combined step ("iis").  Each discipline has a closed-form
characterization of its reachable view configurations (`round_views`) plus
two brute-force interleaving enumerators (`schedule_oracle`,
`raw_interleaving_views`); agreement of the routes is a test gate for
everything downstream.  A view configuration is a frozenset of (color,
view) pairs, one per process of the facet, where a view is the frozenset
of vids the process saw; the routes return sets of them, compared by
``==``, and ``dict(config)`` maps each color to its view.  The oracles use
no closed form and share one event rule: each process writes its
register, then reads in steps until no register is left, and a read sees
the written registers its step covers.  The patterns differ only in what
one step covers (`_steps`): one register for ic, all of them for ias and
iis.  iis keeps the immediate outcomes, where whoever saw q saw everything
q saw (Borowsky & Gafni, PODC 1993).
`ORACLE_CAP` holds the most processes `schedule_oracle` walks per pattern,
3 for ic and 5 for the snapshots; the CLI notes a protocol round on a larger
facet as unchecked by it.

Closed forms (views are self-inclusive subsets of one facet):
  iis: ordered set partitions; a view is the union of the blocks up to and
       including the owner's block.  This is the standard chromatic
       subdivision (below).
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
whole prefix and any subset of its suffix.  Budgets (`DEFAULT_MAX_FACETS`
unless given) are checked against counts of the families
(`_family_count`, `_check_budget`), so a facet too large to enumerate
raises ResourceLimit without building its template, and
`protocol_complex` refuses all r rounds before it builds the first.
`one_round` checks its own round too and emits each facet's families from the
template compiled once per size (`_compiled`) through `_emit_round`, the
one round emitter, which `simulator.bounded_protocol_complex` shares.
The emitter defines the facet order that numbers new states (facets in
sorted order, vids by color rank), requests each distinct (position,
view) state once per facet, in first-use order, from a `StateRegistry`
that only keys them, and builds the round complex itself.

One round of the standard chromatic subdivision is one immediate-snapshot
round (Borowsky & Gafni 1993; Herlihy & Shavit's asynchronous
computability theorem), so Ch^r is `iterate_subdivide(c, r)`, r iis
rounds (Ch is r = 1): the same vids, labels and export bytes as
`protocol_complex(c, IIS, r)`.  Each facet F is subdivided by the
ordered set partitions of its vertex set: a vertex lands in a block B_i
and becomes the pair (its color, carrier), where the carrier is the union
of blocks B_1..B_i.  Pairs with a singleton carrier {v} are identified
with the original vertex v, so vertex identity (and hence per-vertex
degree) is preserved across iterations.  Facets of neighboring base facets
glue automatically because equal (color, carrier) pairs receive equal
vids.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .complexes import (
    DEFAULT_MAX_FACETS,
    ChromaticComplex,
    Simplex,
    StateRegistry,
    assert_facet,
    gc_paused,
)
from .errors import InvalidParameters, ResourceLimit

IC = "ic"
IAS = "ias"
IIS = "iis"
PATTERNS = (IC, IAS, IIS)

# the most processes `schedule_oracle` walks, per pattern
ORACLE_CAP = {IC: 3, IAS: 5, IIS: 5}


def _check_pattern(p: str) -> str:
    if p not in PATTERNS:
        raise InvalidParameters(f"unknown pattern {p!r}; expected one of {PATTERNS}")
    return p


def ordered_set_partitions(items: list) -> Iterator[list[list]]:
    """All ordered set partitions (sequences of disjoint nonempty blocks)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in ordered_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        for i in range(len(sub) + 1):
            yield sub[:i] + [[first]] + sub[i:]


def ordered_bell(n: int) -> int:
    """Number of ordered set partitions of an n-set."""
    counts = [1]  # counts[k] = ordered Bell of k
    for k in range(1, n + 1):
        counts.append(sum(comb(k, j) * counts[k - j] for j in range(1, k + 1)))
    return counts[n]


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
    families one per ordered partition (`ordered_set_partitions` order),
    where a position's view is the union of the blocks up to its own.
    """
    if pattern == IIS:
        families = []
        for partition in ordered_set_partitions(list(range(n))):
            masks, seen = [0] * n, 0
            for block in partition:
                seen |= sum(1 << i for i in block)
                for i in block:
                    masks[i] = seen
            families.append(tuple(masks))
        return tuple(families)
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


CompiledRows = tuple[tuple[tuple[int, int], ...], tuple[itemgetter, ...]]


def compile_rows(families: Iterable[Iterable[tuple[int, int]]]) -> CompiledRows:
    """A round template as its distinct (position, mask) states, in first-use
    order, and each family as an `itemgetter` of its indices into them."""
    index: dict[tuple[int, int], int] = {}
    rows = [[index.setdefault(state, len(index)) for state in fam] for fam in families]
    return tuple(index), tuple(map(_row_getter, rows))


def _row_getter(row: list[int]) -> itemgetter:
    # itemgetter(i) returns the item itself, not a 1-tuple
    return itemgetter(*row) if len(row) > 1 else itemgetter(slice(row[0], row[0] + 1))


def mask_sets(at: list[int]) -> list[Simplex]:
    """The vid set of every mask over positions at[0], at[1], ...: bit j is at[j]."""
    sets = [Simplex()]
    for v in at:
        sets += [s | {v} for s in sets]
    return sets


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


def _placement(c: ChromaticComplex, facet: Simplex) -> tuple[list[int], list[int]]:
    """A facet's vids on template positions by color rank, and their colors."""
    at = sorted(facet, key=lambda v: c.vertices[v].color)
    return at, [c.vertices[v].color for v in at]


def _families(
    c: ChromaticComplex, facet: Simplex, pattern: str
) -> list[list[tuple[int, frozenset[int]]]]:
    """The view families of one round on a facet of c, in template order.

    Each family lists its (color, view) pairs in color order (`_placement`).
    """
    at, colors = _placement(c, facet)
    sets = mask_sets(at)
    return [
        [(colors[i], sets[m]) for i, m in enumerate(fam)]
        for fam in _template(pattern, len(at))
    ]


def round_views(c: ChromaticComplex, input_facet, pattern: str) -> frozenset[frozenset]:
    """Closed-form reachable view configurations for one round on a facet.

    Each configuration is a frozenset of (color, view) pairs, one per
    vertex of the facet, where a view is the frozenset of vids that color's
    process saw, its own included; ``dict(config)`` maps color to view.
    """
    _check_pattern(pattern)
    facet = assert_facet(c, input_facet)
    return frozenset(map(frozenset, _families(c, facet, pattern)))


# -- brute-force oracle -----------------------------------------------------


def _immediate(masks: tuple[int, ...]) -> bool:
    """Whoever saw q saw everything q saw (masks by position, self bits set)."""
    return all(
        m & masks[q] == masks[q] for m in masks for q in range(len(masks)) if m >> q & 1
    )


def _outcome_views(
    c: ChromaticComplex, vids: list[int], pattern: str, outcomes
) -> frozenset[frozenset]:
    """Per-position seen masks over sorted `vids` as view configurations.

    Adds each position's own bit; for iis keeps only the `_immediate` ones.
    Each outcome becomes a frozenset of (color, view) pairs, as
    `round_views` returns them.
    """
    colors = [c.vertices[v].color for v in vids]
    sets = mask_sets(vids)
    out = set()
    for seen in outcomes:
        masks = tuple(m | 1 << i for i, m in enumerate(seen))
        if pattern != IIS or _immediate(masks):
            out.add(frozenset([(colors[i], sets[m]) for i, m in enumerate(masks)]))
    return frozenset(out)


def _steps(pattern: str, left: int) -> list[int]:
    """The register masks one read step may cover, given the registers `left`.

    Each single register for collect; all of `left` at once for a snapshot.
    """
    if pattern == IC:
        return [1 << j for j in range(left.bit_length()) if left >> j & 1]
    return [left]


@gc_paused
def schedule_oracle(c: ChromaticComplex, input_facet, pattern: str) -> frozenset[frozenset]:
    """Enumerate every event interleaving respecting program order.

    Returns the view configurations the interleavings reach, each a
    frozenset of (color, view) pairs as `round_views` gives them, but
    computed independently of it.  Each process writes its register, then
    reads in steps (`_steps`) until no register is left; a read sees
    `written & step`.  States that agree on (registers written, registers
    left per process, values seen) share all continuations, which keeps
    the walk polynomial in practice.  iis keeps the `_immediate` outcomes.
    Capped at `ORACLE_CAP[pattern]` processes (ResourceLimit).

    A walk state is one int of n(2n + 1) bits, over positions 0..n-1 of
    the sorted vids: the registers written in bits [0, n), process i's
    registers left in bits [n(i+1), n(i+2)), and process i's seen mask in
    the n·n bits above those, at [n(n+1) + n·i, n(n+1) + n(i+1)).  The walk
    returns the seen fields of its final states, unpacked into per-process
    masks once at the end.
    """
    _check_pattern(pattern)
    facet = assert_facet(c, input_facet)
    vids = sorted(facet)
    n = len(vids)
    cap = ORACLE_CAP[pattern]
    if n > cap:
        raise ResourceLimit(f"{pattern} schedule oracle is capped at {cap} processes")

    full = (1 << n) - 1
    seen_at = n * (n + 1)
    any_left = (1 << seen_at) - 1 ^ full
    steps = [_steps(pattern, left) for left in range(full + 1)]

    @lru_cache(maxsize=None)
    def walk(state: int) -> frozenset:
        if not state & any_left:
            return frozenset({state >> seen_at})
        results: set = set()
        written = state & full
        for i in range(n):
            left_at = n * (i + 1)
            left = state >> left_at & full
            if not written >> i & 1:
                results |= walk(state | 1 << i)
            elif left:
                for step in steps[left]:
                    got = (written & step) << seen_at + n * i
                    results |= walk(state ^ step << left_at | got)
        return frozenset(results)

    outcomes = [
        tuple(seen >> n * i & full for i in range(n))
        for seen in walk(sum(full << n * (i + 1) for i in range(n)))
    ]
    walk.cache_clear()
    walk = None  # the cached closure refers to itself: break that cycle
    return _outcome_views(c, vids, pattern, outcomes)


def _programs(pattern: str, left: int) -> list[tuple[int, ...]]:
    """Every order of read steps that covers `left`, in `_steps` order."""
    if not left:
        return [()]
    return [
        (step,) + rest
        for step in _steps(pattern, left)
        for rest in _programs(pattern, left & ~step)
    ]


def _interleavings(counts: list[int]) -> list[tuple[int, ...]]:
    """Every sequence of process indices in which i occurs counts[i] times."""
    level = [((), tuple(counts))]
    for _ in range(sum(counts)):
        level = [
            (seq + (i,), rest[:i] + (k - 1,) + rest[i + 1 :])
            for seq, rest in level
            for i, k in enumerate(rest)
            if k
        ]
    return [seq for seq, _ in level]


def _run(programs, order) -> tuple[int, ...]:
    """Seen masks after processes step in `order`: first a write, then reads."""
    written = 0
    seen = [0] * len(programs)
    at = [0] * len(programs)
    for i in order:
        k = at[i]
        if k:
            seen[i] |= written & programs[i][k - 1]
        else:
            written |= 1 << i
        at[i] = k + 1
    return tuple(seen)


def raw_interleaving_views(
    c: ChromaticComplex, input_facet, pattern: str, sample: int | None = None, seed: int = 0
) -> frozenset[frozenset]:
    """Evaluate explicit event sequences one by one (no state sharing).

    A second, slower cross-check of `schedule_oracle`, with the same
    read-step rule (`_steps`), the same iis filter and the same value: the
    view configurations reached, each a frozenset of (color, view) pairs.
    A process's program is an order of its read steps.  Enumerates every
    program choice and interleaving, which is capped at 2 processes for ic
    and 4 for snapshots (ResourceLimit); with `sample` set, draws random
    programs and interleavings instead, with no cap, until `sample` draws
    pass the pattern's filter (for iis, the immediate ones; every draw
    passes for ic and ias), so a sampled result is never empty.  A sample
    below 1 raises InvalidParameters: it would keep nothing, and the empty
    result lies within every closed form.
    """
    _check_pattern(pattern)
    if sample is not None and sample < 1:
        raise InvalidParameters(f"need sample >= 1, got {sample}")
    facet = assert_facet(c, input_facet)
    vids = sorted(facet)
    n = len(vids)
    cap = 2 if pattern == IC else 4
    if sample is None and n > cap:
        raise ResourceLimit(f"unsampled {pattern} interleavings are capped at {cap} processes")

    programs = _programs(pattern, (1 << n) - 1)
    outcomes: set[tuple[int, ...]] = set()
    if sample is None:
        for chosen in itertools.product(programs, repeat=n):
            for order in _interleavings([1 + len(p) for p in chosen]):
                outcomes.add(_run(chosen, order))
    else:
        rng = random.Random(seed)
        kept = 0
        while kept < sample:
            chosen = [rng.choice(programs) for _ in range(n)]
            pending = [1 + len(p) for p in chosen]
            order = []
            while any(pending):
                i = rng.choice([k for k in range(n) if pending[k]])
                pending[i] -= 1
                order.append(i)
            seen = _run(chosen, order)
            if pattern != IIS or _immediate(tuple(m | 1 << q for q, m in enumerate(seen))):
                outcomes.add(seen)
                kept += 1
    return _outcome_views(c, vids, pattern, outcomes)


# -- protocol complexes ------------------------------------------------------


def _emit_round(
    c: ChromaticComplex, registry: StateRegistry, rows_of: Callable[[list], list[CompiledRows]]
) -> ChromaticComplex:
    """One round on every facet of c, its states keyed by `registry`.

    The one place that orders and places a round's facets: it walks them
    in row order (`ChromaticComplex.rows`), the order that numbers fresh
    vids, and places each one's vids by color rank (`_placement`).
    `rows_of` takes these placements, (vids, colors) per facet in that
    order, and returns each facet's compiled rows in the same order, before
    the first state is requested, so a caller's budget checks raise first.
    A compiled state (i, m) is the process at position i, with view mask m
    over the facet's vids; each is requested once per facet, in first-use
    order (`compile_rows`), so the first request for each state, and hence
    each fresh vid, comes in the order per-family requests would make.
    `one_round` (so also Ch) supplies each facet size's template rows;
    `simulator.bounded_protocol_complex` supplies each key's knowledge
    vectors in sorted order, or the ic template's own rows when a key
    folds to all of it.  Equal complexes thus build equal vids however
    their facets were listed.

    The result is built unchecked (`ChromaticComplex._unchecked`), since
    emission guarantees all that the constructor would check.  The
    registry maps distinct (color, payload) pairs to distinct vids, each
    registered with a `Vertex` of that vid and color.  Each input facet's
    states go on its positions, one color per position, so no output facet
    repeats a color.  And no output facet lies inside another: one input
    facet's output facets have one size, and every state's view holds its
    own input vertex, so an output facet of input facet f inside one of g
    would put f inside g, which the input complex rules out.  The vertex
    table is built as the constructor builds it, so the result is the one
    it returns for the same facets.
    """
    placed = [_placement(c, f) for f in c.rows()]
    get = registry.get
    facets: list[Simplex] = []
    for (at, colors), (states, rows) in zip(placed, rows_of(placed)):
        sets = mask_sets(at)
        vids = [get(colors[i], sets[m]) for i, m in states]
        facets += [Simplex(row(vids)) for row in rows]
    facet_set = frozenset(facets)
    used: set[int] = set().union(*facet_set)
    table = dict(zip(used, map(registry.vertices.__getitem__, used)))
    return ChromaticComplex._unchecked(table, facet_set)


def _check_budget(c: ChromaticComplex, pattern: str, rounds: int, max_facets: int) -> None:
    """Raise ResourceLimit if `rounds` rounds of pattern on c make more than
    max_facets facets.

    The count is exact: a round maps each k-facet to `_family_count(pattern,
    k)` k-facets, and no two input facets share an output facet, so r
    rounds make the sum over facets f of `_family_count(pattern, |f|)` ** r.
    A count k >= 2 with r past `max_facets.bit_length()` makes at least
    2^r > max_facets facets alone, so that power is never taken.
    """
    total = 0
    for f in c.facets:
        k = _family_count(pattern, len(f))
        if k > 1 and rounds > max_facets.bit_length():
            raise ResourceLimit(
                f"{rounds} {pattern} round(s) would make at least 2^{rounds} facets, "
                f"over {max_facets}"
            )
        total += k**rounds
    if total > max_facets:
        raise ResourceLimit(
            f"{rounds} {pattern} round(s) would make {total} facets, over {max_facets}"
        )


@gc_paused
def one_round(
    c: ChromaticComplex,
    pattern: str,
    registry: StateRegistry,
    max_facets: int = DEFAULT_MAX_FACETS,
) -> ChromaticComplex:
    """One full-information round applied to every facet of c.

    States come from `registry`, so an input vid stays the vid of its
    process's solo view.  (Executions on a proper face of a facet are faces
    of that facet's executions, so iterating over facets loses nothing.)
    The facet count is projected from the family counts before any family
    is built, and over `max_facets` raises ResourceLimit.
    """
    _check_pattern(pattern)
    _check_budget(c, pattern, 1, max_facets)
    return _emit_round(c, registry, lambda ps: [_compiled(pattern, len(at)) for at, _ in ps])


@gc_paused
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
    _check_budget(c, pattern, rounds, max_facets)
    cur = c
    for _ in range(rounds):
        cur = one_round(cur, pattern, StateRegistry(cur), max_facets=max_facets)
    return cur


def iterate_subdivide(
    c: ChromaticComplex, r: int, max_facets: int = DEFAULT_MAX_FACETS
) -> ChromaticComplex:
    """r-fold chromatic subdivision Ch^r, r iis rounds, with a facet-count
    budget (Ch is r = 1).

    To subdivide several subcomplexes into a common vid space, call
    ``one_round(sub, IIS, registry)`` with one registry on their base.
    """
    return protocol_complex(c, IIS, r, max_facets=max_facets)


def check_no_input_edges(c: ChromaticComplex, pattern: str) -> bool:
    """No two input vertices stay mutually unaware in any one-round facet."""
    xi = protocol_complex(c, pattern, 1)
    return all(len(f & c.vertices.keys()) < 2 for f in xi.facets)


def _sorted_faces(c: ChromaticComplex) -> list[Simplex]:
    """c's faces by size, then by their sorted vids: the order draws sample."""
    return sorted(c.faces(), key=lambda s: (len(s), sorted(s)))


def _draw(c: ChromaticComplex, faces: list[Simplex], rng: random.Random) -> ChromaticComplex:
    """The subcomplex of c generated by 1-4 of `faces`, c's `_sorted_faces`."""
    k = rng.randint(1, min(4, len(faces)))
    return c.subcomplex(rng.sample(faces, k))


def subcomplex_sample(c: ChromaticComplex, rng: random.Random) -> ChromaticComplex:
    """A random subcomplex generated by 1-4 faces (deterministic under the rng)."""
    return _draw(c, _sorted_faces(c), rng)


@gc_paused
def check_intersection_preserving(
    c: ChromaticComplex, pattern: str, trials: int, seed: int = 0
) -> bool:
    """One round's protocol of an intersection equals intersection of protocols.

    Samples `trials` random subcomplex pairs A, B of c and compares
    X(A) ∩ X(B) with X(A ∩ B), all built over one registry on c, each
    within `DEFAULT_MAX_FACETS` (`one_round`).  An unknown pattern or
    `trials` below 1 raises InvalidParameters, even on the empty complex:
    no pair would be compared, so True would be a verdict never checked.
    """
    _check_pattern(pattern)
    if trials < 1:
        raise InvalidParameters(f"need trials >= 1, got {trials}")
    if not c.facets:
        return True
    rng = random.Random(seed)
    reg = StateRegistry(c)
    faces = _sorted_faces(c)
    for _ in range(trials):
        a = _draw(c, faces, rng)
        b = _draw(c, faces, rng)
        xa, xb, xab = (one_round(s, pattern, reg) for s in (a, b, a.intersect(b)))
        if xa.intersect(xb) != xab:
            return False
    return True
