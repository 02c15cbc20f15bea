"""
Unit tests for color-preserving isomorphism.

Core claims:
    - Relabeled copies are isomorphic; the returned map is a certificate,
      also on symmetric inputs where refinement leaves classes to search
    - Color swaps and shape changes are rejected, also when the map is
      forced before refinement and only the facet-image check can tell
    - The search agrees with the brute-force matcher on small complexes:
      relabeled copies and near-misses with one facet vertex swapped for
      another vertex of its color
    - The brute-force matcher enforces its size cap
    - Random vid permutations of seeded complexes stay isomorphic
    - Ch^2 == IIS^2 of a seeded random complex, with equal export bytes,
      and a vid-shuffled Ch^2 ~= IIS^2 is decided quickly
    - Every search node ends in one leaf check, the index-order pairing of
      each class: IC(glued(4)) against its bounded simulations and glued(3)
      against itself or a shuffled copy take one node; IC(glued(3))
      against a shuffled copy still branches and takes three, so a node
      budget of one raises ResourceLimit there, while glued(3) against a
      shuffled copy is decided within it
    - Refinement over column groups gives the same vertex partition as the
      per-facet, per-vertex passes it replaced (kept here as the reference),
      on random complexes and after one pair is individualized; so does
      refinement seeded with the (color, degree) classes, and a refinement
      stopped early at k classes is a coarsening of that partition with at
      least k classes; the search returns the same witness when the
      reference refinement, run to stability, replaces its own
    - The search agrees in verdict with the one before color-major
      numbering, degree seeding and the early stop (kept here as the
      reference), on bounded simulations of random 3-color bases against
      their IC round, relabelled copies and near misses, and its witnesses
      map facets onto facets
"""

import random
import time
from collections import Counter
from itertools import count

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from itermem import (
    IC,
    IIS,
    ChromaticComplex,
    InvalidParameters,
    ResourceLimit,
    Simplex,
    Vertex,
    bounded_protocol_complex,
    brute_force_isomorphic,
    build_complex,
    export_complex,
    gen_glued,
    gen_path,
    gen_random,
    gen_simplex,
    greedy_star,
    is_isomorphic,
    iterate_subdivide,
    protocol_complex,
    split_to_budget,
)
from itermem.iso import _layout, _refine


def _permuted(c: ChromaticComplex, seed: int) -> ChromaticComplex:
    """Copy of c with vids shuffled (labels dropped, colors kept)."""
    rng = random.Random(seed)
    vids = sorted(c.vertices)
    new = dict(zip(vids, rng.sample(range(100, 100 + len(vids)), len(vids))))
    verts = {new[v]: Vertex(new[v], c.vertices[v].color) for v in vids}
    return ChromaticComplex(verts, [Simplex(new[v] for v in f) for f in c.facets])


def _check_map(a, b, mapping):
    assert sorted(mapping) == sorted(a.vertices)
    assert sorted(mapping.values()) == sorted(b.vertices)
    assert {Simplex(mapping[v] for v in f) for f in a.facets} == set(b.facets)
    for v, w in mapping.items():
        assert a.vertices[v].color == b.vertices[w].color


def _nodes(monkeypatch, a, b):
    """is_isomorphic(a, b) and the number of colorings it refined."""
    calls = []

    def counted(color, layout, stop):
        calls.append(stop)
        return _refine(color, layout, stop)

    with monkeypatch.context() as m:
        m.setattr("itermem.iso._refine", counted)
        ok, mapping = is_isomorphic(a, b)
    if ok:
        _check_map(a, b, mapping)
    return ok, len(calls)


def _cycles(*lengths: int) -> ChromaticComplex:
    """Disjoint 2-colored cycles of the given even lengths, one edge per facet."""
    facets, start = [], 0
    for k in lengths:
        facets += [[(i % 2, start + i), ((i + 1) % 2, start + (i + 1) % k)] for i in range(k)]
        start += k
    return build_complex(facets)


@st.composite
def _small_complexes(draw):
    """Chromatic complexes on at most 8 vertices and 3 colors."""
    colors = draw(st.lists(st.integers(0, 2), min_size=1, max_size=8))
    raw = draw(st.lists(st.sets(st.integers(0, len(colors) - 1), min_size=1),
                        min_size=1, max_size=8))
    # one vertex per color makes each drawn set rainbow
    simplices = {frozenset({colors[v]: v for v in sorted(s)}.values()) for s in raw}
    facets = [f for f in simplices if not any(f < g for g in simplices)]
    verts = {v: Vertex(v, color) for v, color in enumerate(colors)}
    return ChromaticComplex(verts, facets)


@st.composite
def _pure_complexes(draw):
    """Pure complexes on 2 or 3 colors and at most 8 vertices."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)
                 .filter(lambda k: sum(k) <= 8))
    vids = [[sum(sizes[:color]) + i for i in range(k)] for color, k in enumerate(sizes)]
    picks = draw(st.sets(st.tuples(*(st.sampled_from(vs) for vs in vids)),
                         min_size=2, max_size=6))
    verts = {v: Vertex(v, color) for color, vs in enumerate(vids) for v in vs}
    return ChromaticComplex(verts, [Simplex(p) for p in picks])


def _swapped(c: ChromaticComplex, facet: Simplex, old: int, new: int):
    """c with ``old`` replaced by ``new`` in one facet; None if that nests."""
    moved = facet - {old} | {new}
    facets = c.facets - {facet}
    if any(moved <= g or g <= moved for g in facets):
        return None
    return ChromaticComplex(c.vertices, facets | {moved})


class TestIsomorphic:
    def test_identity(self):
        c = gen_glued(2)
        ok, m = is_isomorphic(c, c)
        assert ok
        _check_map(c, c, m)

    def test_permuted_copy(self):
        for seed in range(5):
            c = gen_path(4)
            d = _permuted(c, seed)
            ok, m = is_isomorphic(c, d)
            assert ok
            _check_map(c, d, m)

    def test_empty(self):
        e = ChromaticComplex({}, [])
        assert is_isomorphic(e, e) == (True, {})

    def test_color_swap_rejected(self):
        a = build_complex([[(0, "x"), (1, "y")], [(0, "x"), (1, "z")]])
        # same 1-skeleton shape, but the degree-2 vertex changes color
        b = build_complex([[(1, "x"), (0, "y")], [(1, "x"), (0, "z")]])
        assert not is_isomorphic(a, b)[0]

    def test_shape_mismatch_rejected(self):
        assert not is_isomorphic(gen_path(3), gen_path(4))[0]
        assert not is_isomorphic(gen_simplex(2), gen_glued(2))[0]

    @pytest.mark.parametrize(
        "c",
        [iterate_subdivide(gen_glued(2), 1), iterate_subdivide(gen_glued(3), 1), gen_path(5)],
        ids=["ch_glued2", "ch_glued3", "path5"],
    )
    def test_certificate_on_symmetric_inputs(self, c):
        for seed in range(3):
            d = _permuted(c, seed)
            ok, m = is_isomorphic(c, d)
            assert ok
            _check_map(c, d, m)

    def test_refinement_ties_broken_by_search(self):
        # every vertex has degree 2, so refinement alone keeps one class per
        # color; individualizing exposes the cycle lengths
        assert is_isomorphic(_cycles(6, 6), _cycles(12)) == (False, None)
        c = _cycles(6, 12)
        for seed in range(8):
            d = _permuted(c, seed)
            ok, m = is_isomorphic(c, d)
            assert ok
            _check_map(c, d, m)

    def test_symmetric_glued_pair(self, monkeypatch):
        # glued(3)'s three same-colored apexes stay one class, and any
        # pairing of them is a map, so the first node's leaf decides
        c = gen_glued(3)
        for d in (c, _permuted(c, 11)):
            assert _nodes(monkeypatch, c, d) == (True, 1)

    def test_forced_map_checked_against_facets(self):
        # the (color, degree) seed pairs each a-vertex with one b-vertex, so
        # the map is forced before any refinement pass, yet it sends a's
        # facets off b's: a has a facet of three degree-2 vertices, b none
        verts = {v: Vertex(v, v // 2) for v in range(6)}
        a = ChromaticComplex(verts, map(Simplex, [(0, 3, 4), (1, 2, 5), (1, 3, 5)]))
        b = ChromaticComplex(verts, map(Simplex, [(0, 2, 5), (0, 3, 4), (1, 2, 4)]))
        assert not brute_force_isomorphic(a, b)[0]
        assert is_isomorphic(a, b) == (False, None)


class TestBruteForceAgreement:
    def test_agreement_on_random_pairs(self):
        for seed in range(8):
            a = gen_random(seed, 3, 3)
            if len(a.vertices) > 8:
                continue
            b = _permuted(a, seed + 100)
            assert brute_force_isomorphic(a, b)[0]
            assert is_isomorphic(a, b)[0]

    def test_agreement_on_positives(self):
        # two triangles on a shared edge, built two different ways
        a = gen_glued(2)
        b = gen_path(2)
        assert brute_force_isomorphic(a, b)[0] is True
        assert is_isomorphic(a, b)[0] is True

    def test_agreement_on_negatives(self):
        # same facet count and vertex count, different gluing shape
        a = gen_glued(3)
        b = gen_path(3)
        assert brute_force_isomorphic(a, b)[0] is False
        assert is_isomorphic(a, b)[0] is False

    def test_per_color_counts_differ(self):
        # three vertices on colors {0, 1} both, split 2 + 1 against 1 + 2
        a = build_complex([[(0, "x"), (1, "y")], [(0, "z"), (1, "y")]])
        b = build_complex([[(1, "x"), (0, "y")], [(1, "z"), (0, "y")]])
        assert brute_force_isomorphic(a, b) == (False, None)
        assert is_isomorphic(a, b)[0] is False

    def test_vertex_counts_differ(self):
        assert brute_force_isomorphic(gen_simplex(1), gen_simplex(2)) == (False, None)

    def test_size_cap(self):
        big = gen_path(7)  # 9 vertices
        with pytest.raises(InvalidParameters):
            brute_force_isomorphic(big, big)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), perm=st.integers(0, 10_000))
def test_permutation_invariance_property(seed, perm):
    c = gen_random(seed % 50, 3, 4)
    ok, m = is_isomorphic(c, _permuted(c, perm))
    assert ok and m is not None


@settings(max_examples=150, deadline=None)
@given(c=_small_complexes(), perm=st.integers(0, 10_000))
def test_relabelled_copies_agree_with_brute_force(c, perm):
    d = _permuted(c, perm)
    ok, m = is_isomorphic(c, d)
    assert ok and brute_force_isomorphic(c, d)[0]
    _check_map(c, d, m)


@settings(max_examples=150, deadline=None)
@given(c=_pure_complexes(), perm=st.integers(0, 10_000), data=st.data())
def test_near_misses_agree_with_brute_force(c, perm, data):
    near_misses = [
        near
        for f in sorted(c.facets, key=sorted)
        for old in sorted(f)
        for new in sorted(c.vertices)
        if new not in f and c.vertices[new].color == c.vertices[old].color
        if (near := _swapped(c, f, old, new)) is not None
    ]
    assume(near_misses)
    d = _permuted(data.draw(st.sampled_from(near_misses)), perm)
    ok, m = is_isomorphic(c, d)
    assert ok == brute_force_isomorphic(c, d)[0]
    if ok:
        _check_map(c, d, m)


def _reference_refine(color, facets, incidence):
    """The per-facet, per-vertex passes `_refine` replaced, recoloring 0..k-1."""
    classes = len(set(color))
    while True:
        of_vertex = color.__getitem__
        table = {}
        facet_color = [table.setdefault(tuple(map(of_vertex, f)), len(table)) for f in facets]
        of_facet = facet_color.__getitem__
        table = {}
        new = [
            table.setdefault((k, tuple(sorted(map(of_facet, incident)))), len(table))
            for k, incident in zip(color, incidence)
        ]
        if len(table) == classes:
            return new
        color, classes = new, len(table)


def _incidence(facets, size):
    incidence = [[] for _ in range(size)]
    for i, f in enumerate(facets):
        for v in f:
            incidence[v].append(i)
    return incidence


def _refinement_input(c: ChromaticComplex):
    """Colors, facets in color order and incidence lists over positions of c's vids."""
    index = {vid: i for i, vid in enumerate(c.vertices)}
    facets = [
        tuple(index[v] for v in sorted(f, key=lambda u: c.vertices[u].color))
        for f in c.facets
    ]
    return [v.color for v in c.vertices.values()], facets, _incidence(facets, len(index))


def _classes(color):
    cells = {}
    for v, k in enumerate(color):
        cells.setdefault(k, set()).add(v)
    return {frozenset(cell) for cell in cells.values()}


_random_complexes = st.builds(
    gen_random, st.integers(0, 10**6), st.integers(2, 4), st.integers(1, 8)
)


def _coarsens(coarse, fine):
    """Every class of ``fine`` lies inside one class of ``coarse``."""
    return all(any(cell <= big for big in coarse) for cell in fine)


@settings(max_examples=100, deadline=None)
@given(c=_random_complexes | _small_complexes(), data=st.data())
def test_refinement_matches_reference(c, data):
    color, facets, incidence = _refinement_input(c)
    size = len(color)
    layout, degree = _layout(facets, size)
    assert degree == list(map(len, incidence))
    stable = _classes(_reference_refine(color, facets, incidence))
    refined = _refine(color, layout, size)  # size classes is no early stop
    assert _classes(refined) == stable
    # the (color, degree) classes refine to the same partition
    seed = {}
    seeded = [seed.setdefault(key, len(seed)) for key in zip(color, degree)]
    assert _classes(_refine(seeded, layout, size)) == stable
    # stopped at k classes: the stable partition, or a coarsening with k or more
    stop = data.draw(st.integers(1, size))
    early = _classes(_refine(color, layout, stop))
    assert early == stable or (len(early) >= stop and _coarsens(early, stable))
    # individualize one pair, as the search does, and refine again
    v, w = (data.draw(st.integers(0, size - 1)) for _ in range(2))
    child = refined.copy()
    child[v] = child[w] = max(refined) + 1
    assert _classes(_refine(child, layout, size)) == _classes(
        _reference_refine(child, facets, incidence)
    )


def _reference_layout(facets, size):
    incidence = _incidence(facets, size)
    return (facets, incidence), list(map(len, incidence))


@pytest.mark.parametrize(
    "c",
    [gen_glued(2), gen_glued(3), iterate_subdivide(gen_glued(2), 1),
     iterate_subdivide(gen_glued(3), 1), gen_path(5), _cycles(6, 12)],
    ids=["glued2", "glued3", "ch_glued2", "ch_glued3", "path5", "cycles6_12"],
)
def test_witness_matches_reference_refinement(monkeypatch, c):
    for seed in range(3):
        d = _permuted(c, seed)
        got = is_isomorphic(c, d)
        with monkeypatch.context() as m:
            m.setattr("itermem.iso._layout", _reference_layout)
            # the reference ignores the stop and refines to stability
            m.setattr("itermem.iso._refine",
                      lambda color, layout, stop: _reference_refine(color, *layout))
            assert is_isomorphic(c, d) == got


def _reference_is_isomorphic(a, b):
    """The search before color-major numbering, degree seeding and the early
    stop: vertices in dict order, each facet sorted by color, and every node
    refined from its coloring to stability."""
    n = len(a.vertices)
    if n != len(b.vertices) or len(a.facets) != len(b.facets):
        return False, None
    vids = [*a.vertices, *b.vertices]
    facets = []
    for c, offset in ((a, 0), (b, n)):
        index = dict(zip(c.vertices, count(offset)))
        facets += [
            tuple(index[v] for v in sorted(f, key=lambda u: c.vertices[u].color))
            for f in c.facets
        ]
    incidence = _incidence(facets, 2 * n)
    stack = [[v.color for c in (a, b) for v in c.vertices.values()]]
    while stack:
        color = _reference_refine(stack.pop(), facets, incidence)
        if Counter(color[:n]) != Counter(color[n:]):
            continue
        cells = {}
        for v, k in enumerate(color):
            cells.setdefault(k, []).append(v)
        open_cells = [cell for cell in cells.values() if len(cell) > 2]
        if not open_cells:
            mapping = {vids[v]: vids[w] for v, w in cells.values()}
            if {Simplex(mapping[v] for v in f) for f in a.facets} == b.facets:
                return True, mapping
            continue
        cell = min(open_cells, key=len)
        for w in reversed(cell[len(cell) // 2 :]):
            child = color.copy()
            child[cell[0]] = child[w] = 2 * n  # reference ids are 0..k-1
            stack.append(child)
    return False, None


@st.composite
def _simulations(draw):
    """A bounded simulation of a random 3-color base, and the base's IC round."""
    base = gen_random(draw(st.integers(0, 10**6)), 3, draw(st.integers(1, 4)))
    seq, _ = greedy_star(base)
    sim = bounded_protocol_complex(base, split_to_budget(seq, base, draw(st.integers(1, 3))))
    return sim, protocol_complex(base, IC, 1)


@settings(max_examples=40, deadline=None)
@given(pair=_simulations(), perm=st.integers(0, 10_000), data=st.data())
def test_agrees_with_reference_on_simulations(pair, perm, data):
    sim, ic = pair
    facet = data.draw(st.sampled_from(sorted(sim.facets, key=sorted)))
    old = data.draw(st.sampled_from(sorted(facet)))
    color = sim.vertices[old].color
    others = [v for v in sorted(sim.vertices) if v not in facet and sim.vertices[v].color == color]
    near = _swapped(sim, facet, old, data.draw(st.sampled_from(others))) if others else None
    cases = [(sim, ic), (sim, _permuted(ic, perm))]
    if near is not None:
        cases += [(near, ic), (_permuted(near, perm), sim)]
    for a, b in cases:
        ok, m = is_isomorphic(a, b)
        assert ok == _reference_is_isomorphic(a, b)[0]
        if ok:
            _check_map(a, b, m)


def test_ch2_of_random_complex_matches_iis2():
    base = gen_random(0, 3, 6)
    ch, xi = iterate_subdivide(base, 2), protocol_complex(base, IIS, 2)
    assert ch == xi
    assert export_complex(ch, "json") == export_complex(xi, "json")
    shuffled = _permuted(ch, 2)
    t0 = time.perf_counter()
    ok, m = is_isomorphic(shuffled, xi)
    dt = time.perf_counter() - t0
    assert ok
    _check_map(shuffled, xi, m)
    assert dt < 2.0


def test_search_budget_raises_resource_limit(monkeypatch):
    # the first node's index-order leaf misses on this pair, and the search
    # branches: three nodes decide it
    c = protocol_complex(gen_glued(3), IC, 1)
    d = _permuted(c, 5)
    assert _nodes(monkeypatch, c, d) == (True, 3)
    monkeypatch.setattr("itermem.iso._NODE_BUDGET", 1)
    with pytest.raises(ResourceLimit):
        is_isomorphic(c, d)
    # glued(3)'s three apexes are symmetric, so the first leaf decides it
    g = gen_glued(3)
    assert is_isomorphic(g, _permuted(g, 5))[0]


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_first_leaf_decides_a_simulation(monkeypatch, bits):
    # the simulation is the IC round itself, so both sides list their
    # vertices alike and the first node's index-order leaf is a map
    base = gen_glued(4)
    seq, _ = greedy_star(base)
    sim = bounded_protocol_complex(base, split_to_budget(seq, base, bits))
    ic = protocol_complex(base, IC, 1)
    assert _nodes(monkeypatch, ic, sim) == (True, 1)

