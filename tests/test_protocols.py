"""
Unit tests for read-pattern view families and protocol complexes.

Core claims:
    - View counts on the triangle: 13 (immediate snapshot), 19 (atomic
      snapshot), 25 (collect); 3 each on the edge
    - Closed forms equal the brute-force schedule oracle at 2 and 3 colors,
      and at 4 and 5 colors for the snapshot patterns
    - The ias template is the filtered product of self-inclusive views, in
      product order, at 1-4 colors, and has the counted length at 5
    - The per-size templates equal the product-filter definitions (iis:
      comparable and immediate; ias: comparable; ic: acyclic misses) for
      every pattern at 1-4 colors, also when color order differs from vid
      order; ic family counts are the labeled acyclic digraphs
      1, 3, 25, 543, 29281
    - The ic template is union-closed at 1-4 colors (position-wise union
      of view masks)
    - one_round numbers new states by content: facets in sorted order,
      then families in template order, each in color order
    - Explicit event interleavings reproduce the same view families, iis
      on the edge, the triangle and the 3-simplex included
    - Both oracles run iis as atomic-snapshot events and keep the immediate
      outcomes; they equal the block replay over ordered partitions on
      every facet of the oracle corpus (the 1- to 3-simplex, three glued
      triangles, seeded 3- and 4-color complexes), and on the triangle the
      filter drops exactly 6 ias outcomes, each with a p that saw q but
      not all q saw
    - Strict hierarchy: immediate snapshot < atomic snapshot < collect
    - Every view family member self-includes; misses digraphs are acyclic
    - One collect round on the edge is a 4-vertex path
    - One immediate-snapshot round is the chromatic subdivision (==)
    - Input vertices keep their vids as solo-view states in every round;
      every other state gets a vid above the input's largest
    - No facet of a 1-round complex joins two solo views (no-input-edges)
    - Protocol complexes of subcomplexes glue: X(A) ∩ X(B) = X(A ∩ B);
      the check fails on the glued pair when its rounds key states by
      observations under one shared apex code
    - The check sorts c's faces once per call: subcomplex_sample draws the
      subcomplexes a per-call sort draws, consuming the rng alike, and
      the check's verdicts equal those over per-call draws, failing
      ones included (seeds 0-9 on three glued triangles and a seeded
      3-color complex)
    - Multi-round composition stays consistent
    - Containment monotonicity on sampled raw interleavings
    - Both oracles, run on one read-step rule, equal the two walks and the
      string-tagged event interpreter they replaced on every facet of the
      oracle corpus (sampled collect from the same seeds); the schedule
      oracle also on the 4-simplex for the snapshot patterns
    - Every route to a view configuration (round_views, schedule_oracle
      within ORACLE_CAP, sampled raw interleavings, run_bounded) gives a
      frozenset of (color, view) pairs, one per vertex of the facet, each
      view a frozenset of the facet's vids holding its own color's vertex
      (hypothesis, random 3- and 4-color complexes, every pattern)
    - check_intersection_preserving raises InvalidParameters for trials
      below 1 and for an unknown pattern, on the empty complex too, and
      agrees with the per-call reference at one trial
    - Oracle resource caps raise ResourceLimit: the schedule oracle above 3
      processes for ic and 5 for snapshots, unsampled raw interleavings
      above 2 for ic and 4 for snapshots within 1 s; a raw sample below 1
      raises InvalidParameters
    - Protocol budgets are checked from counted facets (ordered Bell,
      labeled acyclic digraphs, ias chains; each equal to the template's
      length), before any view family or template is built; with no
      max_facets, one_round and iterate_subdivide project against
      DEFAULT_MAX_FACETS (ic on Ch²Δ³: 5,625 × 543; iis on Ch³Δ³:
      421,875 × 75)
"""

import functools
import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itermem import (
    IAS,
    IC,
    IIS,
    PATTERNS,
    ChromaticComplex,
    Encoding,
    InvalidParameters,
    ResourceLimit,
    StateRegistry,
    build_complex,
    check_intersection_preserving,
    check_no_input_edges,
    gen_glued,
    gen_random,
    gen_simplex,
    iterate_subdivide,
    one_round,
    ordered_set_partitions,
    protocol_complex,
    raw_interleaving_views,
    round_views,
    run_bounded,
    schedule_oracle,
)
from itermem import protocols
from itermem.complexes import DEFAULT_MAX_FACETS, build_complex
from itermem.protocols import (
    ORACLE_CAP,
    _family_count,
    _outcome_views,
    _template,
    _with_subsets,
    subcomplex_sample,
)

TRIANGLE_COUNTS = {IIS: 13, IAS: 19, IC: 25}
IC_COUNTS = (1, 3, 25, 543, 29281)  # labeled acyclic digraphs


def _facet(c):
    return next(iter(c.facets))


def _reference_block_replay(c, facet) -> frozenset[frozenset]:
    """iis by blocks: per ordered partition, each block writes, then snapshots."""
    vids = sorted(facet)
    color_of = {v: c.vertices[v].color for v in vids}
    out = set()
    for partition in ordered_set_partitions(vids):
        written: list[int] = []
        views: dict[int, frozenset[int]] = {}
        for block in partition:
            written.extend(block)
            snap = frozenset(written)
            for v in block:
                views[color_of[v]] = snap
        out.add(frozenset(views.items()))
    return frozenset(out)


def _reference_schedule_oracle(c, facet, pattern) -> frozenset[frozenset]:
    """The two memoised walks the one read-step walk replaced."""
    vids = sorted(facet)
    n = len(vids)
    if pattern != IC:
        # events: write_i, snapshot_i (write precedes snapshot)
        @functools.lru_cache(maxsize=None)
        def walk(written, snapped):
            if all(s is not None for s in snapped):
                return frozenset({snapped})
            results = set()
            for i in range(n):
                if not written & (1 << i):
                    results |= walk(written | (1 << i), snapped)
                elif snapped[i] is None:
                    results |= walk(written, snapped[:i] + (written,) + snapped[i + 1 :])
            return frozenset(results)

        return _outcome_views(c, vids, pattern, walk(0, (None,) * n))
    # ic events: write_i, then reads of each of the n registers in any order
    bits = [1 << i for i in range(n)]

    @functools.lru_cache(maxsize=None)
    def walk_ic(written, reads_left, seen):
        if not any(reads_left):
            return frozenset({seen})
        results = set()
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
                            s = seen[:i] + (seen[i] | b,) + seen[i + 1 :]
                        results |= walk_ic(written, head + (rl & ~b,) + tail, s)
        return frozenset(results)

    return _outcome_views(c, vids, pattern, walk_ic(0, ((1 << n) - 1,) * n, (0,) * n))


def _reference_raw(c, facet, pattern, sample=None, seed=0) -> frozenset[frozenset]:
    """The string-tagged event interpreter the int-mask one replaced."""
    vids = sorted(facet)
    n = len(vids)

    def run(sequence):
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

    per_proc = []
    for i in range(n):
        if pattern != IC:
            per_proc.append([[("w", i), ("snap", i)]])
        else:
            reads = [("r", i, j) for j in range(n)]
            per_proc.append([[("w", i)] + list(p) for p in itertools.permutations(reads)])

    def interleavings(seqs):
        if all(not s for s in seqs):
            yield []
            return
        for i, s in enumerate(seqs):
            if s:
                rest = seqs[:i] + (s[1:],) + seqs[i + 1 :]
                for tail in interleavings(rest):
                    yield [s[0]] + tail

    outcomes = set()
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


# the oracles are checked against the references on every facet of these
ORACLE_CORPUS = {
    **{f"D{n}": gen_simplex(n) for n in (1, 2, 3)},
    "glued3": gen_glued(3),
    **{f"rand3.{seed}": gen_random(seed, 3, 4) for seed in range(4)},
    **{f"rand4.{seed}": gen_random(seed, 4, 3) for seed in range(2)},
}
# the schedule oracle also walks the 4-simplex, past the unsampled raw
# interleavings' snapshot cap
SCHEDULE_CORPUS = {**ORACLE_CORPUS, "D4": gen_simplex(4)}


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


def _product_filter(c, facet, pattern):
    """Every self-inclusive view assignment that passes the pattern's definition."""
    owner = {c.vertices[v].color: v for v in facet}
    colors = sorted(owner)
    choices = [
        [
            frozenset({owner[p]}) | frozenset(sub)
            for k in range(len(colors))
            for sub in itertools.combinations([owner[q] for q in colors if q != p], k)
        ]
        for p in colors
    ]
    out = set()
    for combo in itertools.product(*choices):
        views = dict(zip(colors, combo))
        comparable = all(a <= b or b <= a for a, b in itertools.combinations(combo, 2))
        if pattern == IC:
            ok = _misses_acyclic(views, owner)
        elif pattern == IAS:
            ok = comparable
        else:  # immediate: whoever sees q sees all q saw
            ok = comparable and all(
                views[q] <= views[p]
                for p in colors
                for q in colors
                if owner[q] in views[p]
            )
        if ok:
            out.add(frozenset(views.items()))
    return frozenset(out)


class TestViewFamilies:
    def test_triangle_counts(self):
        c = gen_simplex(2)
        for pat, want in TRIANGLE_COUNTS.items():
            assert len(round_views(c, _facet(c), pat)) == want

    def test_edge_counts(self):
        c = gen_simplex(1)
        for pat in PATTERNS:
            assert len(round_views(c, _facet(c), pat)) == 3

    def test_self_inclusion(self):
        c = gen_simplex(2)
        f = _facet(c)
        color_of = {c.vertices[v].color: v for v in f}
        for pat in PATTERNS:
            for config in round_views(c, f, pat):
                for col, view in config:
                    assert color_of[col] in view

    def test_full_view_always_present(self):
        c = gen_simplex(2)
        f = _facet(c)
        everyone = frozenset((c.vertices[v].color, frozenset(f)) for v in f)
        for pat in PATTERNS:
            assert everyone in round_views(c, f, pat)

    def test_all_solo_excluded(self):
        c = gen_simplex(2)
        f = _facet(c)
        solo = frozenset((c.vertices[v].color, frozenset({v})) for v in f)
        for pat in PATTERNS:
            assert solo not in round_views(c, f, pat)

    def test_requires_facet(self):
        c = gen_glued(2)
        with pytest.raises(Exception):
            round_views(c, {1, 2}, IC)  # face, not facet

    def test_unknown_pattern(self):
        c = gen_simplex(1)
        with pytest.raises(InvalidParameters):
            round_views(c, _facet(c), "snapshotty")


class TestViewConfigurations:
    @settings(max_examples=40, deadline=None)
    @example(seed=1154, n_colors=4, n_facets=1)
    @given(st.integers(0, 10**6), st.sampled_from([3, 4]), st.integers(1, 5))
    def test_every_route_gives_color_view_pairs(self, seed, n_colors, n_facets):
        c = gen_random(seed, n_colors, n_facets)
        rng = random.Random(seed)
        f = rng.choice(sorted(c.facets, key=sorted))
        owner = {c.vertices[v].color: v for v in f}
        # one round coding every vertex alone, run as a random collect
        seq = [Encoding({v: i for i, v in enumerate(sorted(c.vertices), 1)})]
        programs = [tuple(rng.sample([1 << q for q in range(len(f))], len(f))) for _ in f]
        order = [i for i, steps in enumerate(programs) for _ in range(1 + len(steps))]
        rng.shuffle(order)
        routes = [frozenset({run_bounded(c, f, seq, [(programs, order)])})]
        for pattern in PATTERNS:
            routes.append(round_views(c, f, pattern))
            # iis keeps only immediate outcomes; at seed 1154 on 4 processes
            # 8 draws once kept none, before dropped draws stopped counting
            routes.append(raw_interleaving_views(c, f, pattern, sample=64, seed=seed))
            if len(f) <= ORACLE_CAP[pattern]:
                routes.append(schedule_oracle(c, f, pattern))
        for configs in routes:
            assert type(configs) is frozenset and configs
            for config in configs:
                assert type(config) is frozenset
                assert sorted(col for col, _ in config) == sorted(owner)
                for col, view in config:
                    assert type(view) is frozenset
                    assert owner[col] in view and view <= f


class TestTemplates:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_equal_product_filter(self, n, pattern):
        # colors in vid order, reversed, and rotated by one
        orders = {tuple(range(n)), tuple(reversed(range(n))), tuple(range(1, n)) + (0,)}
        for colors in sorted(orders):
            c = build_complex([[(col, f"x{i}") for i, col in enumerate(colors)]])
            f = _facet(c)
            assert set(round_views(c, f, pattern)) == _product_filter(c, f, pattern)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_same_iteration_order(self, n):
        # one_round numbers new states in the order it first asks for them:
        # facets sorted, families in template order, positions by color rank
        colors = list(reversed(range(n)))
        first = [(col, f"x{i}") for i, col in enumerate(colors)]
        c = build_complex([first, first[1:] + [(colors[0], "y")]])
        for pattern in PATTERNS:
            want = []
            for f in sorted(c.facets, key=sorted):
                at = sorted(f, key=lambda v: c.vertices[v].color)
                for fam in _template(pattern, n):
                    for i, m in enumerate(fam):
                        view = tuple(sorted(v for j, v in enumerate(at) if m >> j & 1))
                        label = (c.vertices[at[i]].color, view)
                        if len(view) > 1 and label not in want:
                            want.append(label)
            x = one_round(c, pattern, StateRegistry(c))
            new = sorted(x.vertices.keys() - c.vertices.keys())
            assert [x.vertices[v].label for v in new] == want

    def test_ias_template_in_product_order(self):
        for n in range(1, 5):
            # the filtered product the pruned search replaced, same order
            choices = [
                _with_subsets(1 << i, [j for j in range(n) if j != i])
                for i in range(n)
            ]
            product = [
                combo
                for combo in itertools.product(*choices)
                if all(a & b in (a, b) for a, b in itertools.combinations(combo, 2))
            ]
            assert _template(IAS, n) == tuple(product)
        assert len(_template(IAS, 5)) == _family_count(IAS, 5)

    def test_ic_template_union_closed(self):
        """The position-wise union of two ic families is an ic family.

        A family is ic iff its misses digraph (p -> q when p's view lacks
        q) is acyclic.  p misses q in the union iff it misses q in both
        families, so the union's misses digraph is the intersection of the
        two digraphs; it is a subgraph of an acyclic digraph, hence
        acyclic.  Views stay self-inclusive, so the union is in the
        template again.
        """
        for n in range(1, 5):
            families = set(_template(IC, n))
            for a in families:
                for b in families:
                    assert tuple(x | y for x, y in zip(a, b)) in families

    def test_family_counts(self):
        for n, want in enumerate(IC_COUNTS, start=1):
            c = gen_simplex(n - 1)
            assert len(round_views(c, _facet(c), IC)) == want
            for pat in (IIS, IC) if n == 5 else PATTERNS:
                assert _family_count(pat, n) == len(round_views(c, _facet(c), pat))

    def test_every_facet_of_a_complex(self):
        # one template per size, moved onto each facet's own vids
        c = gen_random(4, 3, 6)
        for f in c.facets:
            for pat in PATTERNS:
                assert set(round_views(c, f, pat)) == _product_filter(c, f, pat)


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "pattern, n",
        [(p, n) for p in sorted(PATTERNS) for n in (1, 2)] + [(IAS, 3), (IIS, 3)],
    )
    def test_closed_form_equals_oracle(self, n, pattern):
        c = gen_simplex(n)
        f = _facet(c)
        assert set(round_views(c, f, pattern)) == set(
            schedule_oracle(c, f, pattern)
        )

    def test_oracle_caps(self):
        c = gen_simplex(3)
        with pytest.raises(ResourceLimit):
            schedule_oracle(c, _facet(c), IC)
        c6 = gen_simplex(5)
        with pytest.raises(ResourceLimit):
            schedule_oracle(c6, _facet(c6), IAS)

    @pytest.mark.parametrize("name", sorted(SCHEDULE_CORPUS))
    def test_schedule_oracle_equals_reference(self, name):
        c = SCHEDULE_CORPUS[name]
        for f in c.facets:
            for pat in PATTERNS:
                if len(f) <= ORACLE_CAP[pat]:
                    got = schedule_oracle(c, f, pat)
                    assert got == _reference_schedule_oracle(c, f, pat), (f, pat)

    @pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
    def test_raw_interleavings_equal_reference(self, name):
        # sampled ic draws the same programs and steps from the same seed
        c = ORACLE_CORPUS[name]
        for f in c.facets:
            for pat in (IAS, IIS) + ((IC,) if len(f) <= 2 else ()):
                got = raw_interleaving_views(c, f, pat)
                assert got == _reference_raw(c, f, pat), (f, pat)
            for seed in (0, 3):
                got = raw_interleaving_views(c, f, IC, sample=48, seed=seed)
                assert got == _reference_raw(c, f, IC, 48, seed), (f, seed)

    def test_raw_interleavings_caps(self):
        # unsampled ic on the triangle would run 7,484,400 sequences
        for n, pat in ((2, IC), (4, IAS), (4, IIS)):
            c = gen_simplex(n)
            start = time.perf_counter()
            with pytest.raises(ResourceLimit):
                raw_interleaving_views(c, _facet(c), pat)
            assert time.perf_counter() - start < 1.0
        c = gen_simplex(2)
        f = _facet(c)
        assert raw_interleaving_views(c, f, IC, sample=8, seed=1) <= round_views(c, f, IC)

    @pytest.mark.parametrize("sample", [0, -3])
    def test_raw_interleavings_need_a_sample(self, sample):
        # drawing nothing gave an empty set, which lies within every closed form
        c = gen_simplex(2)
        with pytest.raises(InvalidParameters):
            raw_interleaving_views(c, _facet(c), IC, sample=sample)

    def test_sampled_iis_keeps_sample_draws(self):
        # iis drops non-immediate draws; 8 draws at seed 1154 on 4 processes
        # were all dropped, so the result was the empty set
        c = gen_random(1154, 4, 1)
        f = _facet(c)
        assert raw_interleaving_views(c, f, IIS, sample=8, seed=1154)
        for n_colors in (4, 5):
            for seed in range(25):
                c = gen_random(seed, n_colors, 1)
                f = _facet(c)
                got = raw_interleaving_views(c, f, IIS, sample=1, seed=seed)
                assert len(got) == 1 and got <= round_views(c, f, IIS), (n_colors, seed)

    def test_raw_interleavings_edge(self):
        c = gen_simplex(1)
        f = _facet(c)
        for pat in PATTERNS:
            assert set(raw_interleaving_views(c, f, pat)) == set(
                round_views(c, f, pat)
            )

    def test_raw_interleavings_triangle_snapshots(self):
        c = gen_simplex(2)
        f = _facet(c)
        assert set(raw_interleaving_views(c, f, IAS)) == set(
            round_views(c, f, IAS)
        )

    @pytest.mark.parametrize("n", [2, 3])  # the edge: test_raw_interleavings_edge
    def test_raw_interleavings_immediate_snapshot(self, n):
        c = gen_simplex(n)
        f = _facet(c)
        assert raw_interleaving_views(c, f, IIS) == round_views(c, f, IIS)

    def test_iis_oracles_equal_block_replay(self):
        for c in ORACLE_CORPUS.values():
            for f in c.facets:
                want = _reference_block_replay(c, f)
                assert schedule_oracle(c, f, IIS) == want
                assert raw_interleaving_views(c, f, IIS) == want

    def test_immediate_filter_drops_six_triangle_outcomes(self):
        c = gen_simplex(2)
        f = _facet(c)
        owner = {c.vertices[v].color: v for v in f}
        dropped = schedule_oracle(c, f, IAS) - schedule_oracle(c, f, IIS)
        assert len(dropped) == 6
        for config in dropped:
            views = dict(config)
            assert any(
                owner[q] in views[p] and not views[q] <= views[p]
                for p in views
                for q in views
            )

    def test_sampled_collect_interleavings_are_sound(self):
        c = gen_simplex(2)
        f = _facet(c)
        got = raw_interleaving_views(c, f, IC, sample=4000, seed=3)
        assert got <= set(round_views(c, f, IC))
        assert len(got) > 20  # sampling finds nearly all 25

    def test_containment_monotonicity(self):
        # later readers see supersets: every sampled view family keeps
        # self-inclusion, and adding a write never removes knowledge
        c = gen_simplex(2)
        f = _facet(c)
        for config in raw_interleaving_views(c, f, IC, sample=500, seed=9):
            for col, view in config:
                assert view <= f


class TestHierarchy:
    def test_strict_inclusions_triangle(self):
        c = gen_simplex(2)
        f = _facet(c)
        iis = set(round_views(c, f, IIS))
        ias = set(round_views(c, f, IAS))
        ic = set(round_views(c, f, IC))
        assert iis < ias < ic

    def test_collapse_on_edge(self):
        c = gen_simplex(1)
        f = _facet(c)
        fams = [set(round_views(c, f, p)) for p in (IIS, IAS, IC)]
        assert fams[0] == fams[1] == fams[2]


class TestProtocolComplex:
    def test_edge_collect_is_path(self):
        x = protocol_complex(gen_simplex(1), IC, 1)
        assert x.f_vector() == (4, 3)

    def test_triangle_facet_counts(self):
        c = gen_simplex(2)
        for pat, want in TRIANGLE_COUNTS.items():
            assert len(protocol_complex(c, pat, 1).facets) == want

    def test_iis_is_subdivision(self):
        c = gen_simplex(2)
        assert protocol_complex(c, IIS, 1) == iterate_subdivide(c, 1)

    def test_iis_matches_subdivision_on_glued(self):
        c = gen_glued(2)
        assert protocol_complex(c, IIS, 1) == iterate_subdivide(c, 1)

    def test_two_rounds_compose(self):
        c = gen_simplex(1)
        x2 = protocol_complex(c, IC, 2)
        assert x2.f_vector() == (10, 9)

    def test_embedding_solo_views(self):
        # an input vid lies on exactly the executions where its process
        # saw only itself
        c = gen_glued(2)
        for pat in PATTERNS:
            x = protocol_complex(c, pat, 1)
            for v, vert in c.vertices.items():
                solo = sum(
                    dict(config)[vert.color] == {v}
                    for f in c.facets
                    if v in f
                    for config in round_views(c, f, pat)
                )
                assert sum(v in f for f in x.facets) == solo > 0

    def test_embedding_composes_two_rounds(self):
        c = gen_simplex(2)
        x = protocol_complex(c, IIS, 2)
        # corners of Ch^2 and solo-of-solo states both have degree 10
        for v in c.vertices:
            assert x.degree(v) == 10

    @pytest.mark.parametrize("rounds", [1, 2])
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_input_vids_kept(self, pattern, rounds):
        c = gen_glued(2)
        x = protocol_complex(c, pattern, rounds)
        for v, vert in c.vertices.items():
            assert x.vertices[v] == vert
        top = max(c.vertices)
        assert all(v > top for v in x.vertices.keys() - c.vertices.keys())

    def test_registry_sharing_glues(self):
        c = gen_glued(2)
        a = c.subcomplex([[0, 1, 2]])
        b = c.subcomplex([[3, 1, 2]])
        reg = StateRegistry(c)
        xa, xb, xab = (one_round(s, IC, reg) for s in (a, b, a.intersect(b)))
        assert xa.intersect(xb) == xab

    def test_max_facets(self):
        with pytest.raises(ResourceLimit):
            protocol_complex(gen_simplex(2), IC, 2, max_facets=100)

    def test_max_facets_projected_before_building(self, monkeypatch):
        def built(*args):
            raise AssertionError("view families were built past the budget")

        monkeypatch.setattr("itermem.protocols._families", built)
        monkeypatch.setattr("itermem.protocols._template", built)
        with pytest.raises(ResourceLimit):
            protocol_complex(gen_simplex(4), IC, 1, max_facets=10)
        for pat in PATTERNS:
            with pytest.raises(ResourceLimit):
                protocol_complex(gen_glued(3), pat, 1, max_facets=30)
            # six processes: 4683, 81663 and 3781503 families per facet
            with pytest.raises(ResourceLimit):
                protocol_complex(gen_simplex(5), pat, 1, max_facets=4682)
        # the budget is the round's whole count: 543 facets fit in 543
        monkeypatch.undo()
        x = protocol_complex(gen_simplex(3), IC, 1, max_facets=543)
        assert len(x.facets) == 543
        with pytest.raises(ResourceLimit):
            protocol_complex(gen_simplex(3), IC, 1, max_facets=542)

    def test_default_budget_projected_before_building(self, monkeypatch):
        # with no max_facets, one_round and iterate_subdivide keep to
        # DEFAULT_MAX_FACETS like every other builder, and raise from the
        # projection before any facet's rows are compiled
        ch2 = iterate_subdivide(gen_simplex(3), 2)  # 5,625 facets
        ch3 = iterate_subdivide(ch2, 1)  # 421,875 facets

        def built(*args):
            raise AssertionError("rows were compiled past the default budget")

        monkeypatch.setattr("itermem.protocols._compiled", built)
        over = f"facets, over {DEFAULT_MAX_FACETS}"
        with pytest.raises(ResourceLimit, match=f"make {5625 * 543} {over}"):
            one_round(ch2, IC, StateRegistry(ch2))
        with pytest.raises(ResourceLimit, match=f"make {421875 * 75} {over}"):
            iterate_subdivide(ch3, 1)

    @pytest.mark.parametrize(
        "build, count",
        [
            (lambda: protocol_complex(gen_simplex(3), IC, 3), 160_103_007),
            (lambda: iterate_subdivide(gen_simplex(3), 4), 31_640_625),
            (lambda: protocol_complex(gen_simplex(2), IC, 5), 9_765_625),
        ],
        ids=["IC3-D3", "Ch4-D3", "IC5-D2"],
    )
    def test_all_rounds_refused_before_the_first(self, monkeypatch, build, count):
        # the count of every round is checked before round 1 is built, so
        # no round short of the budget is built first and thrown away
        def built(*args, **kwargs):
            raise AssertionError("a round was built past the budget")

        monkeypatch.setattr(protocols, "one_round", built)
        with pytest.raises(ResourceLimit, match=f"make {count} facets, over {DEFAULT_MAX_FACETS}"):
            build()

    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_count_of_all_rounds_is_exact_on_an_impure_complex(self, pattern):
        # a triangle, an edge and a vertex: each facet's rounds stay on it,
        # so r rounds make the sum of each facet's family count to the r
        c = build_complex([[(0, "a"), (1, "b"), (2, "c")], [(0, "d"), (1, "e")], [(0, "f")]])
        for r in (1, 2, 3):
            want = sum(_family_count(pattern, len(f)) ** r for f in c.facets)
            assert len(protocol_complex(c, pattern, r, max_facets=want).facets) == want
            with pytest.raises(ResourceLimit, match=f"make {want} facets, over {want - 1}"):
                protocol_complex(c, pattern, r, max_facets=want - 1)
        if pattern == IIS:
            assert len(protocol_complex(c, IIS, 2, max_facets=179).facets) == 179
            with pytest.raises(ResourceLimit, match="make 179 facets, over 178"):
                protocol_complex(c, IIS, 2, max_facets=178)

    def test_huge_round_counts_refused_without_the_power(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a round was built past the budget")

        monkeypatch.setattr(protocols, "one_round", built)
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match=r"at least 2\^1000000000 facets, over 1000000"):
            protocol_complex(gen_simplex(2), IIS, 10**9)
        assert time.perf_counter() - start < 1.0
        # a facet count of 1 stays 1 at any number of rounds
        protocols._check_budget(gen_simplex(0), IIS, 10**9, 1)


def _reference_sample(c, rng):
    """The per-call draw: c's faces sorted afresh for every sample."""
    faces = sorted(c.faces(), key=lambda s: (len(s), sorted(s)))
    k = rng.randint(1, min(4, len(faces)))
    return c.subcomplex(rng.sample(faces, k))


def _reference_check(c, pattern, trials, seed):
    """check_intersection_preserving over `_reference_sample` draws."""
    rng = random.Random(seed)
    reg = protocols.StateRegistry(c)  # looked up per call, so a patch applies
    for _ in range(trials):
        a, b = _reference_sample(c, rng), _reference_sample(c, rng)
        xa, xb, xab = (one_round(s, pattern, reg) for s in (a, b, a.intersect(b)))
        if xa.intersect(xb) != xab:
            return False
    return True


_SAMPLE_BASES = [gen_glued(3), gen_random(5, 3, 5)]


class TestStructuralChecks:
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_no_input_edges(self, pattern):
        assert check_no_input_edges(gen_glued(2), pattern)
        assert check_no_input_edges(gen_simplex(2), pattern)

    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_intersection_preserving(self, pattern):
        assert check_intersection_preserving(
            gen_glued(2), pattern, trials=4, seed=1
        )

    @pytest.mark.parametrize("seed", [0, 2, 4, 5, 7, 8, 9])
    def test_intersection_check_can_fail(self, monkeypatch, seed):
        # rounds over a registry that merges the glued pair's observations
        # under one shared code: X(A) ∩ X(B) then exceeds X(A ∩ B)
        from itermem.simulator import _Observations

        c = gen_glued(2)
        assert check_intersection_preserving(c, IC, trials=5, seed=seed)
        broken = Encoding({0: 1, 3: 1, 1: 1, 2: 1})
        monkeypatch.setattr(
            "itermem.protocols.StateRegistry", lambda base: _Observations(base, broken)
        )
        assert not check_intersection_preserving(c, IC, trials=5, seed=seed)

    @pytest.mark.parametrize("c", _SAMPLE_BASES, ids=["glued3", "random3"])
    def test_sample_draws_as_per_call_sort(self, c):
        for seed in range(10):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(4):
                assert subcomplex_sample(c, rng) == _reference_sample(c, ref)
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("c", _SAMPLE_BASES, ids=["glued3", "random3"])
    def test_check_verdicts_as_per_call_sort(self, c):
        for pattern in sorted(PATTERNS):
            for seed in range(10):
                got = check_intersection_preserving(c, pattern, trials=3, seed=seed)
                assert got == _reference_check(c, pattern, 3, seed)

    def test_failing_verdicts_as_per_call_sort(self, monkeypatch):
        from itermem.simulator import _Observations

        c = gen_glued(2)
        broken = Encoding({0: 1, 3: 1, 1: 1, 2: 1})
        monkeypatch.setattr(
            "itermem.protocols.StateRegistry", lambda base: _Observations(base, broken)
        )
        got = [check_intersection_preserving(c, IC, trials=5, seed=s) for s in range(10)]
        assert got == [_reference_check(c, IC, 5, s) for s in range(10)]
        assert got.count(False) == 7

    def test_unchecked_verdicts_refused(self):
        # no trial, or no known pattern, leaves True a verdict never checked
        for trials in (0, -3):
            with pytest.raises(InvalidParameters, match="trials >= 1"):
                check_intersection_preserving(gen_glued(3), IC, trials)
        with pytest.raises(InvalidParameters, match="unknown pattern 'bogus'"):
            check_intersection_preserving(ChromaticComplex({}, []), "bogus", 2)
        with pytest.raises(InvalidParameters, match="trials >= 1"):
            check_intersection_preserving(ChromaticComplex({}, []), IC, 0)
        assert check_intersection_preserving(ChromaticComplex({}, []), IC, 1)

    @pytest.mark.parametrize("c", _SAMPLE_BASES, ids=["glued3", "random3"])
    def test_one_trial_as_per_call_sort(self, c):
        for pattern in sorted(PATTERNS):
            for seed in range(10):
                got = check_intersection_preserving(c, pattern, trials=1, seed=seed)
                assert got == _reference_check(c, pattern, 1, seed)

    def test_structure_on_seeded_complexes(self):
        for seed in range(6):
            c = gen_random(seed, 3, 5)
            for pat in PATTERNS:
                assert check_no_input_edges(c, pat)
                assert check_intersection_preserving(c, pat, trials=2, seed=seed)
