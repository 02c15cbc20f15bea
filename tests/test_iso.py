"""
Unit tests for color-preserving isomorphism.

Core claims:
    - Relabeled copies are isomorphic; the returned map is a certificate,
      also on symmetric inputs where refinement leaves classes to search
    - Color swaps and shape changes are rejected
    - The search agrees with the brute-force matcher on small complexes:
      relabeled copies and near-misses with one facet vertex swapped for
      another vertex of its color
    - The brute-force matcher enforces its size cap
    - Random vid permutations of seeded complexes stay isomorphic
    - Ch^2 ~= IIS^2 of a seeded random complex is decided quickly
    - Running past the search-node budget raises ResourceLimit
    - Refinement over column groups gives the same vertex partition as the
      per-facet, per-vertex passes it replaced (kept here as the reference),
      on random complexes and after one pair is individualized, and the
      search returns the same witness under either refinement
"""

import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from itermem import (
    IIS,
    ChromaticComplex,
    InvalidParameters,
    ResourceLimit,
    Simplex,
    Vertex,
    brute_force_isomorphic,
    build_complex,
    chromatic_subdivide,
    gen_glued,
    gen_path,
    gen_random,
    gen_simplex,
    is_isomorphic,
    iterate_subdivide,
    protocol_complex,
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
        [chromatic_subdivide(gen_glued(2)), chromatic_subdivide(gen_glued(3)), gen_path(5)],
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

    def test_symmetric_glued_pair(self):
        # glued(3) has three same-colored interchangeable apexes
        c = gen_glued(3)
        d = _permuted(c, 11)
        ok, m = is_isomorphic(c, d)
        assert ok
        _check_map(c, d, m)


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


@settings(max_examples=100, deadline=None)
@given(c=_random_complexes | _small_complexes(), data=st.data())
def test_refinement_matches_reference(c, data):
    color, facets, incidence = _refinement_input(c)
    layout = _layout(facets, len(color))
    refined = _refine(color, *layout)
    assert _classes(refined) == _classes(_reference_refine(color, facets, incidence))
    # individualize one pair, as the search does, and refine again
    v, w = (data.draw(st.integers(0, len(color) - 1)) for _ in range(2))
    child = refined.copy()
    child[v] = child[w] = max(refined) + 1
    assert _classes(_refine(child, *layout)) == _classes(
        _reference_refine(child, facets, incidence)
    )


@pytest.mark.parametrize(
    "c",
    [gen_glued(2), gen_glued(3), chromatic_subdivide(gen_glued(2)),
     chromatic_subdivide(gen_glued(3)), gen_path(5), _cycles(6, 12)],
    ids=["glued2", "glued3", "ch_glued2", "ch_glued3", "path5", "cycles6_12"],
)
def test_witness_matches_reference_refinement(monkeypatch, c):
    for seed in range(3):
        d = _permuted(c, seed)
        got = is_isomorphic(c, d)
        with monkeypatch.context() as m:
            m.setattr("itermem.iso._layout", lambda f, size: (f, _incidence(f, size)))
            m.setattr("itermem.iso._refine", _reference_refine)
            assert is_isomorphic(c, d) == got


def test_ch2_of_random_complex_matches_iis2():
    base = gen_random(0, 3, 6)
    ch, xi = iterate_subdivide(base, 2), protocol_complex(base, IIS, 2)
    t0 = time.perf_counter()
    ok, m = is_isomorphic(ch, xi)
    dt = time.perf_counter() - t0
    assert ok
    _check_map(ch, xi, m)
    assert dt < 2.0


def test_search_budget_raises_resource_limit(monkeypatch):
    # glued(3) permutes its three apexes, so refinement alone cannot decide
    c = gen_glued(3)
    monkeypatch.setattr("itermem.iso._NODE_BUDGET", 1)
    with pytest.raises(ResourceLimit):
        is_isomorphic(c, _permuted(c, 5))
