"""
Reference tests for the round builders.

`protocols.one_round` emits each facet's states from a compiled template
(`protocols._emit_round`), and `protocols.iterate_subdivide(c, 1)` is its
iis round.  The references below are the per-family builders it
replaced, one `registry.get` per (family, position), and the definition
of the chromatic subdivision: per facet, the carriers of the ordered
partitions of its vids.

Core claims:
    - one_round (ic, ias, iis) is == to the per-family reference and
      exports equal bytes, on hypothesis complexes with 1-vertex, edge,
      triangle and tetrahedron facets
    - iterate_subdivide(c, 1), once and twice, has the facets of the
      definitional reference, compared as sets of (color, view) states
      with no vids
    - The same holds with one registry shared across subcomplexes (the
      check_intersection_preserving path), registry state included
    - Ch^r == IIS^r with equal export bytes: r = 1, 2 on hypothesis
      complexes; Δ² to r = 3, Δ³ to r = 2, glued(3) and gen_random(3, 3, 6)
    - A compiled template lists each distinct state once, and each facet
      requests exactly those: 12 per triangle, 32 per Δ³ facet for iis
    - Exports of Ch^r, iis/ias/ic^r and bounded simulation on fixed inputs
      hash to the digest computed with the per-family builders
"""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itermem import (
    IAS,
    IC,
    IIS,
    PATTERNS,
    ChromaticComplex,
    StateRegistry,
    Vertex,
    bounded_protocol_complex,
    export_complex,
    gen_glued,
    gen_random,
    gen_simplex,
    greedy_star,
    iterate_subdivide,
    one_round,
    ordered_set_partitions,
    protocol_complex,
    split_to_budget,
)
from itermem.complexes import Simplex
from itermem.protocols import _compiled, _families, subcomplex_sample


def _reference_one_round(c, pattern, registry):
    facets = []
    for f in sorted(c.facets, key=sorted):
        for fam in _families(c, f, pattern):
            facets.append(Simplex(registry.get(col, view) for col, view in fam))
    return ChromaticComplex(registry.vertices, facets)


def _reference_subdivide(c, registry=None):
    """Ch by definition: per facet and ordered partition of its vids, each
    vid's state is (its color, the union of the blocks up to its own)."""
    reg = registry if registry is not None else StateRegistry(c)
    facets = []
    for f in sorted(c.facets, key=sorted):
        for partition in ordered_set_partitions(sorted(f)):
            carrier: set[int] = set()
            states = []
            for block in partition:
                carrier.update(block)
                states += [(c.vertices[v].color, frozenset(carrier)) for v in block]
            facets.append(Simplex(reg.get(color, view) for color, view in states))
    return ChromaticComplex(reg.vertices, facets)


def _read(vertices, below):
    """Each vertex as a vid-free state, given those of the complex below.

    A vid of the complex below keeps its state; any other vertex is read
    from its label (color, viewed vids), as criterion 1 reads Ch's vertices.
    """
    return {
        v: below[v] if v in below else (x.color, frozenset(below[u] for u in x.label[1]))
        for v, x in vertices.items()
    }


def _base_states(c):
    return {v: (x.color, v) for v, x in c.vertices.items()}


def _facet_states(x, below):
    states = _read(x.vertices, below)
    return {frozenset(states[v] for v in f) for f in x.facets}


def _mixed():
    """1-vertex, edge and triangle facets; colors not in vid order."""
    colors = [2, 0, 1, 1, 0, 2, 1, 0]
    verts = {v: Vertex(v, col, f"m{v}") for v, col in enumerate(colors)}
    facets = [{0, 1, 2}, {3, 4}, {5}, {2, 4}, {6}, {7, 0}]
    return ChromaticComplex(verts, map(Simplex, facets))


@st.composite
def complexes(draw):
    """Chromatic complexes on at most 8 vertices and 4 colors, any facet sizes."""
    colors = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    raw = draw(
        st.lists(
            st.sets(st.integers(0, len(colors) - 1), min_size=1, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    # one vertex per color makes each drawn set rainbow
    simplices = {frozenset({colors[v]: v for v in sorted(s)}.values()) for s in raw}
    facets = [f for f in simplices if not any(f < g for g in simplices)]
    verts = {v: Vertex(v, color) for v, color in enumerate(colors)}
    return ChromaticComplex(verts, facets)


def _bytes(x):
    return export_complex(x, "json")


_SINGLE = ChromaticComplex({4: Vertex(4, 1, "solo")}, [Simplex({4})])


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(complexes())
    @example(_mixed())
    @example(_SINGLE)
    @example(gen_simplex(3))
    def test_one_round(self, c):
        for pattern in PATTERNS:
            got = one_round(c, pattern, StateRegistry(c))
            want = _reference_one_round(c, pattern, StateRegistry(c))
            assert got == want
            assert _bytes(got) == _bytes(want)

    @settings(max_examples=60, deadline=None)
    @given(complexes())
    @example(_mixed())
    @example(_SINGLE)
    @example(gen_simplex(3))
    def test_subdivide(self, c):
        # once and twice, compared by (color, view) states, not by vids
        got, want = c, c
        got_states = want_states = _base_states(c)
        for _ in range(2):
            got, want = iterate_subdivide(got, 1), _reference_subdivide(want)
            assert _facet_states(got, got_states) == _facet_states(want, want_states)
            got_states = _read(got.vertices, got_states)
            want_states = _read(want.vertices, want_states)
            assert set(got_states.values()) == set(want_states.values())

    @settings(max_examples=40, deadline=None)
    @given(complexes(), st.integers(0, 10**6))
    @example(_mixed(), 0)
    def test_shared_registry(self, c, seed):
        # the check_intersection_preserving path: A, B and A ∩ B built in turn
        # over one registry on c
        rng = random.Random(seed)
        a = subcomplex_sample(c, rng)
        b = subcomplex_sample(c, rng)
        subs = (a, b, a.intersect(b))
        for pattern in PATTERNS:
            reg, ref = StateRegistry(c), StateRegistry(c)
            for s in subs:
                got = one_round(s, pattern, reg)
                want = _reference_one_round(s, pattern, ref)
                assert got == want
                assert _bytes(got) == _bytes(want)
            assert reg.vertices == ref.vertices
        reg, ref = StateRegistry(c), StateRegistry(c)
        base = _base_states(c)
        for s in subs:
            got, want = one_round(s, IIS, reg), _reference_subdivide(s, ref)
            assert _facet_states(got, base) == _facet_states(want, base)
        assert set(_read(reg.vertices, base).values()) == set(_read(ref.vertices, base).values())


class TestSubdivisionIsIis:
    """Ch^r is the r-round iis complex itself: same vids, labels and bytes."""

    @staticmethod
    def _check(c, r):
        ch, xi = iterate_subdivide(c, r), protocol_complex(c, IIS, r)
        assert ch == xi
        assert _bytes(ch) == _bytes(xi)

    @settings(max_examples=40, deadline=None)
    @given(complexes(), st.sampled_from([1, 2]))
    @example(_mixed(), 2)
    @example(_SINGLE, 1)
    def test_random_complexes(self, c, r):
        self._check(c, r)

    @pytest.mark.parametrize(
        "c, r_max",
        [(gen_simplex(2), 3), (gen_simplex(3), 2), (gen_glued(3), 2), (gen_random(3, 3, 6), 2)],
        ids=["D2", "D3", "glued3", "random3"],
    )
    def test_fixed_inputs(self, c, r_max):
        for r in range(1, r_max + 1):
            self._check(c, r)


class TestCompiled:
    @pytest.mark.parametrize("n, states", [(1, 1), (2, 4), (3, 12), (4, 32)])
    def test_distinct_states(self, n, states):
        # every (position, self-inclusive view) pair occurs once
        for compiled in (_compiled(IIS, n), _compiled(IAS, n), _compiled(IC, n)):
            assert len(compiled[0]) == len(set(compiled[0])) == states

    def test_one_request_per_distinct_state(self):
        class Counting(StateRegistry):
            calls = 0

            def get(self, color, payload):
                Counting.calls += 1
                return super().get(color, payload)

        c = gen_glued(2)
        one_round(c, IIS, Counting(c))
        assert Counting.calls == 2 * 12
        Counting.calls = 0
        one_round(gen_simplex(3), IIS, Counting(gen_simplex(3)))
        assert Counting.calls == 32


def _pinned_exports():
    d2, d3 = gen_simplex(2), gen_simplex(3)
    inputs = [d3, gen_glued(3), _mixed(), gen_random(4, 3, 6)]
    out = []
    for c in inputs:
        out.append(iterate_subdivide(c, 2))
        for pattern in PATTERNS:
            rounds = 1 if pattern == IC and c is d3 else 2
            out.append(protocol_complex(c, pattern, rounds))
    for c in (gen_glued(3), iterate_subdivide(d2, 1)):
        for b in (1, 2):
            seq = split_to_budget(greedy_star(c)[0], c, b)
            out.append(bounded_protocol_complex(c, seq))
    digest = hashlib.sha256()
    for x in out:
        digest.update(_bytes(x))
        digest.update(export_complex(x, "csv-fvector"))
    return digest.hexdigest()


def test_exports_pinned():
    # computed with the per-family builders (one registry.get per family
    # and position) and the simulator fold over every round; Ch^r is
    # numbered as the r-round iis complex
    assert _pinned_exports() == (
        "66b800bcac9efad81f781e024b916fd98372796cf030c678c61af04ac14949ce"
    )
