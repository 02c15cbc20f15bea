"""Bounded-register execution of the write/read/update loop.

A process writes its round code (or bottom), reads the registers in read
steps, and inverts each non-bottom value back to the unique candidate
neighbor state (`decode`).  A process whose own vertex is uncoded this
round keeps its state and decodes nothing.

A process state is the one the full-information protocol has: a color and
the set of facet vids it has seen.  `run_bounded` executes one run per
round on the read-step model of `protocols` (`_run`) and decodes what each
reader saw (`_decode_reads`); `bounded_protocol_complex` folds every
execution per round into packed knowledge vectors over the one-round ic
template, and checks decoding once per round.  It emits its
states through `protocols._emit_round`, the one round emitter, which
`one_round` uses too and which defines the facet order that numbers vids
(see its docstring).  Under a covering sequence every facet folds to the
whole ic template and emits that template's own rows, so the result is
the one-round collect complex itself, vids and labels included.

The fold has no color cap.  Up to 3 processes the ic template is checked
by the schedule oracle of `protocols`, and in the tests the fold by
executions of `run_bounded`; at 4 the template is checked by its count
(`_family_count`) and, in the tests, by the per-vector reference fold.

Decoding is decided per coded edge.  A coded reader p that reads the
register of a coded q sees q's code, and `decode` looks only at p's input
vertex, the color of q and that code: not at what p knows, nor at which
execution ran, nor at which facet holds p and q.  q itself is always a
candidate (a neighbor of p with q's color and code), so the answer is q,
or AmbiguousDecode when another neighbor of p has q's color and code.
Every coded pair of a facet is read in some family (everyone sees everyone
in one), so some execution raises iff the round yields a triple of
`encoding._ambiguous`, the one rule `verify_cover` reads too; the check
reads it without visiting a facet.

So a facet's fold is a function of its key: its size k and the set of
coded-position masks of the rounds that code two or more of its vertices.
Given that a round's decoded sources follow from its coded mask, the fold
(an OR-sumset of the knowledge vectors with each round's additions) is
commutative in the rounds, and idempotent because the ic template is
union-closed, so order and repeats drop out.  `bounded_protocol_complex`
folds each distinct key once, in a dict local to the call.  The template
is also up-closed (a larger view only drops misses edges), so once a fold
reaches the whole template every further round leaves it there, and the
fold stops.  Its budget is two checks made before any facet is emitted: a
projection of the fold work per distinct key, before folding, then the
exact facet count.  The decode check comes after both.

`code_collision_counterexample` builds its observation rounds, in which a
reader keeps the raw (color, code) pairs it read instead of decoding them,
as ic rounds of `one_round` over `_Observations`: a registry that keys each
(color, view) state the emitter requests by what that view observes.  So
they take the emitter's facet order, facet budget and collector pause too.

`iterate_pipeline` chains r bounded iterations.  It refuses r iterations
whose final complex, IC^r of its input, is over `DEFAULT_MAX_FACETS`
before it packs anything.  Each iteration packs the current complex into
b-bit rounds with `greedy._first_fit`, which reads only the complex and
b, so no cover, one-round or star, is built or checked on the way.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial, reduce
from operator import index, or_

from .complexes import (
    DEFAULT_MAX_FACETS,
    ChromaticComplex,
    Simplex,
    StateRegistry,
    assert_facet,
    gc_paused,
)
from .encoding import Encoding, _ambiguous, rounds_coding
from .errors import (
    AmbiguousDecode,
    InvalidParameters,
    ItermemError,
    ResourceLimit,
    VertexNotInComplex,
)
from .generators import gen_glued
from .greedy import _first_fit
from .io import _canonical_label, encoding_to_dict
from .iso import is_isomorphic
from .protocols import (
    IC,
    CompiledRows,
    _check_budget,
    _compiled,
    _emit_round,
    _family_count,
    _placement,
    _run,
    _template,
    compile_rows,
    mask_sets,
    one_round,
    protocol_complex,
)


def decode(
    reader: int,
    source: int,
    value: int | None,
    enc: Encoding,
    c: ChromaticComplex,
) -> int | None:
    """Invert a register value to the unique matching neighbor of vid `reader`.

    Bottom carries no information.  Two matching candidates mean the
    encoding failed to keep same-color two-hop states apart; that is always
    raised, never resolved by choice.  A reader outside c raises
    VertexNotInComplex, whatever the value.
    """
    if reader not in c.vertices:
        raise VertexNotInComplex(f"vid {reader}")
    if value is None:
        return None
    cands = [
        x
        for x in c.adjacency()[reader]
        if c.vertices[x].color == source and enc.value(x) == value
    ]
    if len(cands) > 1:
        raise AmbiguousDecode(
            f"value {value} from color {source} matches vids {cands} "
            f"near vid {reader}"
        )
    if not cands:
        raise ItermemError(
            f"no candidate for value {value} from color {source} "
            f"near vid {reader}"
        )
    return cands[0]


# -- one execution -------------------------------------------------------------


def _decode_reads(c: ChromaticComplex, enc: Encoding, at, colors, read) -> int:
    """Per reader, packed as in `_pack`, the mask of the sources it decoded.

    `at` and `colors` are a facet's vids and colors by position
    (`_placement`); read[i] masks the registers reader i saw written.  A
    coded reader decodes every other coded source it read.
    """
    k = len(at)
    codes = [enc.value(v) for v in at]
    decoded = 0
    for i, p in enumerate(at):
        got = 0
        if codes[i] is not None:
            for j, code in enumerate(codes):
                if j != i and code is not None and read[i] >> j & 1:
                    got |= 1 << at.index(decode(p, colors[j], code, enc, c))
        decoded = decoded << k | got
    return decoded


def run_bounded(c: ChromaticComplex, facet, seq: list[Encoding], runs) -> frozenset:
    """Execute one run per round, each over a fresh memory layer.

    Returns the final view configuration: a frozenset of (color, view)
    pairs, one per vertex of the facet, where a view is the frozenset of
    vids that color's process knows, as `protocols.round_views` gives them.

    Positions are the facet's vids by color rank (`_placement`).  A run is
    (programs, order) as `protocols._run` takes them: programs[i] is a
    tuple of disjoint nonempty read-step masks covering every register, and
    `order` names i once for its write, first, then once per step, which
    sees the registers of that step written so far.  Single-register steps
    give collect (ic) memory, the one step ((1 << k) - 1,) atomic-snapshot
    (ias) memory.  A malformed run raises InvalidParameters.
    """
    f = assert_facet(c, facet)
    if len(runs) != len(seq):
        raise InvalidParameters("need exactly one run per encoding function")
    at, colors = _placement(c, f)
    sets = mask_sets(at)
    k = len(at)
    vec = _pack([1 << i for i in range(k)], k)  # a knowledge vector, as in the fold
    for enc, run in zip(seq, runs):
        vec |= _decode_reads(c, enc, at, colors, _run(*_checked(run, k)))
    return frozenset([(colors[i], sets[m]) for i, m in enumerate(_unpack(vec, k))])


def _checked(run, k: int) -> tuple:
    """`run` if it is a well-formed run on k processes (see `run_bounded`)."""
    try:
        programs, order = run
        programs = [tuple(map(index, steps)) for steps in programs]
        order = list(map(index, order))
        need = Counter(i for i, steps in enumerate(programs) for _ in range(1 + len(steps)))
        if len(programs) == k and need == Counter(order) and all(
            min(steps) > 0 and sum(steps) == (1 << k) - 1 == reduce(or_, steps)
            for steps in programs
        ):
            return programs, order
    except (TypeError, ValueError):
        pass
    raise InvalidParameters(f"malformed run {run!r} on {k} processes")


# -- all-schedules protocol complex -------------------------------------------


@gc_paused
def bounded_protocol_complex(
    c: ChromaticComplex,
    seq: list[Encoding],
    max_facets: int = DEFAULT_MAX_FACETS,
) -> ChromaticComplex:
    """Reachable final states over every schedule combination, as a complex.

    Per facet on k positions of `protocols._placement`, a knowledge vector
    is one int holding one view mask per position: position i's mask in
    bits [(k-1-i)k, (k-i)k), so integer order is the order of the mask
    tuples.  It starts from the solo masks.  A round that codes the
    positions in mask m gives reader i the sources m - {i} if i is in m,
    and nothing otherwise (`decode` returns the source or raises; see the
    module docstring).  A reader whose ic view is v adds v & its decoded
    sources, so a family adds its packed masks & the packed decoded masks,
    and the round ors every vector with every distinct addition.  A round
    that codes fewer than two positions adds nothing, so only the active
    rounds, those coding two or more, count.

    The plan reads each vid's rounds from `encoding.rounds_coding`, the
    coding map `encoding.verify_cover` reads too, and refines them position
    by position into the rounds that code each set of positions.  The fold
    of a facet is therefore a function of its key: k and the set of its
    active rounds' coded masks.  The OR-sumset is commutative, and
    idempotent since the ic template is union-closed, so neither the order
    nor the repeats of the rounds matter.  Each distinct key is folded
    once (`_fold`).  Two budget checks come before the decode check and
    any emitted facet, and each raises ResourceLimit over `max_facets`.
    Before any fold, the fold work: at most min(2^(k(k-1)),
    ``_family_count(IC, k)``^|masks|) vectors per distinct key, since each
    position always sees itself.  After folding, the exact facet count.
    Only then is decoding checked, once per round rather than per facet:
    `decode` raises AmbiguousDecode on the first triple that
    `encoding._ambiguous` yields (see the module docstring), before any
    facet is emitted.

    States are emitted by `protocols._emit_round`, the round emitter of
    `protocols.one_round`, from the sorted vectors compiled once per key.
    A key that folds to the whole template emits the ic template's own
    rows, ``protocols._compiled(IC, k)``, which are `one_round`'s.  So a
    covering sequence, whose every key folds whole, yields
    ``protocol_complex(c, IC, 1)`` itself by construction.
    """
    return _emit_round(c, StateRegistry(c), partial(_bounded_rows, c, seq, max_facets))


def _bounded_rows(c: ChromaticComplex, seq: list[Encoding], max_facets: int, placed) -> list:
    """The compiled rows of each placed facet (see `bounded_protocol_complex`),
    returned after the budget and decode checks."""
    coding = rounds_coding(seq)
    keys: dict = {}  # each distinct key, mapped to its one stored copy
    plan = []  # per placed facet: its key
    for at, _colors in placed:
        # the rounds grouped by the positions they code, refined position by position
        parts: dict[int, int] = {}
        seen = 0
        for i, v in enumerate(at):
            rounds = coding.get(v, 0)
            if not rounds:
                continue
            split: dict[int, int] = {}
            for m, rs in parts.items():
                if both := rs & rounds:
                    split[m | 1 << i] = both
                if both != rs:
                    split[m] = rs ^ both
            if first := rounds & ~seen:
                split[1 << i] = first
            seen |= rounds
            parts = split
        key = len(at), frozenset(m for m in parts if m & m - 1)
        plan.append(keys.setdefault(key, key))
    work = sum(min(1 << k * (k - 1), _family_count(IC, k) ** len(ms)) for k, ms in keys)
    if work > max_facets:
        raise ResourceLimit(
            f"bounded protocol could fold {work} knowledge vectors, over {max_facets}"
        )
    folded = {key: _fold(*key) for key in keys}
    total = sum(len(folded[key]) for key in plan)
    if total > max_facets:
        raise ResourceLimit(f"bounded protocol makes {total} facets, over {max_facets}")
    compiled = {key: _key_rows(key[0], vecs) for key, vecs in folded.items()}
    for enc in seq:
        for p, v, _x in _ambiguous(c, enc):  # raises, naming the candidates
            decode(p, c.vertices[v].color, enc.value(v), enc, c)
    return [compiled[key] for key in plan]


def _key_rows(k: int, vecs: frozenset[int]) -> CompiledRows:
    """A key's folded vectors as compiled rows, in sorted order, or the ic
    template's own rows when they are all of it (counted first, so a key
    that stays solo never builds its template)."""
    if len(vecs) == _family_count(IC, k) and vecs == _packed_ic(k):
        return _compiled(IC, k)
    return compile_rows(enumerate(_unpack(v, k)) for v in sorted(vecs))


def _fold(k: int, coded: frozenset[int]) -> frozenset[int]:
    """The knowledge vectors on k positions after one round per coded mask.

    Masks that code more positions go first, and the fold stops once it
    holds the whole template: the template is up-closed, so or-ing an
    addition into one of its vectors stays in it, and each vector t is kept
    by its own family's addition, t | (decoded & t) = t.  A round that codes
    every position reaches the template from the solo vector at once.  With
    no coded mask the solo vector is the fold, and the template, which has
    millions of families from k = 6 on, is not built.
    """
    vecs = {_pack([1 << i for i in range(k)], k)}
    if not coded:
        return frozenset(vecs)
    full = _packed_ic(k)
    for m in sorted(coded, key=lambda m: (-m.bit_count(), m)):
        if vecs == full:
            break
        decoded = _pack([m & ~(1 << i) if m >> i & 1 else 0 for i in range(k)], k)
        adds = set(map(decoded.__and__, full))
        new: set[int] = set()
        for vec in vecs:
            new.update(map(vec.__or__, adds))
        vecs = new
    return frozenset(vecs)


@lru_cache(maxsize=None)
def _packed_ic(k: int) -> frozenset[int]:
    """The ic template on k positions as packed vectors."""
    return frozenset(_pack(fam, k) for fam in _template(IC, k))


def _pack(masks, k: int) -> int:
    """View masks on k positions as one int, position 0 in the top k bits."""
    vec = 0
    for m in masks:
        vec = vec << k | m
    return vec


def _unpack(vec: int, k: int) -> list[int]:
    """The view masks of a packed vector, in position order."""
    low = (1 << k) - 1
    return [vec >> (k - 1 - i) * k & low for i in range(k)]


# -- single-function counterexample -------------------------------------------


class _Observations(StateRegistry):
    """A registry of raw observations, without decoding: what a reader
    holds when an encoding is too coarse to invert.

    A round over it (`one_round`) requests each state as (color, view),
    like any round.  `get` finds p, the view's vertex of that color, and
    keys the state by (p, the (color, code) pairs of the other coded
    vertices in the view), so equal observations from different executions
    merge into one state.  A solo view keys (p, {}), a fresh state, not p.
    Each state still names its input vertex p, so `protocols._emit_round`
    builds the round unchecked as any other (see its docstring).
    """

    def __init__(self, c: ChromaticComplex, enc: Encoding):
        super().__init__(c)
        self._enc = enc

    def get(self, color: int, view: Simplex) -> int:
        # a view holds base vids only, each registered with its vertex
        (p,) = (x for x in view if self.vertices[x].color == color)
        obs = frozenset(
            (self.vertices[x].color, code)
            for x in view
            if x != p and (code := self._enc.value(x)) is not None
        )
        return super().get(color, (p, obs))


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
    reg = _Observations(c, broken)
    xa, xb, xs = (one_round(sub, IC, reg) for sub in (alpha, beta, sigma))
    inter = xa.intersect(xb)
    merged = sorted(set(inter.vertices) - set(xs.vertices))

    fi = protocol_complex(c, IC, 1)
    broken_full = one_round(c, IC, _Observations(c, broken))
    repaired_full = bounded_protocol_complex(c, [repaired])

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


@gc_paused
def iterate_pipeline(c: ChromaticComplex, r: int, b: int) -> tuple[ChromaticComplex, int]:
    """r full-information iterations, each emulated by budgeted rounds.

    Per iteration: pack the facets of the current complex into b-bit
    rounds (`greedy._first_fit`) and fold the bounded runs into the next
    complex.  The packing covers the complex, so each iteration simulates
    to its ic round, and the last complex is IC^r(c): r ic rounds over
    `DEFAULT_MAX_FACETS` raise ResourceLimit before anything is packed.
    Returns the final complex and the total bounded round count.
    """
    if r < 1 or b < 1:
        raise InvalidParameters("need r >= 1 and b >= 1")
    if not c.facets:
        raise InvalidParameters("need a nonempty complex")
    _check_budget(c, IC, r, DEFAULT_MAX_FACETS)
    cur = c
    total = 0
    for _ in range(r):
        seq = _first_fit(cur, b)
        total += len(seq)
        cur = bounded_protocol_complex(cur, seq)
    return cur, total
