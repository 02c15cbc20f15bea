"""
Reference tests for the round builders.

`protocols.one_round` and `subdivision.chromatic_subdivide` emit each
facet's states from a compiled template (`StateRegistry.emit`).  The
references below are the per-family builders they replaced: one
`registry.get` per (family, position).

Core claims:
    - one_round (ic, ias, iis) and chromatic_subdivide are == to the
      references and export equal bytes, on hypothesis complexes with
      1-vertex, edge, triangle and tetrahedron facets
    - The same holds with one registry shared across subcomplexes (the
      check_intersection_preserving path), registry state included
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
    chromatic_subdivide,
    export_complex,
    gen_glued,
    gen_random,
    gen_simplex,
    greedy_star,
    iterate_subdivide,
    one_round,
    protocol_complex,
    split_to_budget,
)
from itermem.complexes import Simplex
from itermem.protocols import _compiled, _families, subcomplex_sample
from itermem.subdivision import _compiled as _compiled_partitions
from itermem.subdivision import partition_views


def _reference_one_round(c, pattern, registry):
    facets = []
    for f in sorted(c.facets, key=sorted):
        for fam in _families(c, f, pattern):
            facets.append(Simplex(registry.get(col, view) for col, view in fam))
    return ChromaticComplex(registry.vertices, facets)


def _reference_subdivide(c, registry=None):
    reg = registry if registry is not None else StateRegistry(c)
    facets = [
        Simplex(reg.get(c.vertices[v].color, carrier) for v, carrier in views.items())
        for f in sorted(c.facets, key=sorted)
        for views in partition_views(sorted(f))
    ]
    return ChromaticComplex(reg.vertices, facets)


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
        got = chromatic_subdivide(c)
        want = _reference_subdivide(c)
        assert got == want
        assert _bytes(got) == _bytes(want)
        assert _bytes(chromatic_subdivide(got)) == _bytes(_reference_subdivide(want))

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
        for s in subs:
            assert chromatic_subdivide(s, reg) == _reference_subdivide(s, ref)
        assert reg.vertices == ref.vertices


class TestCompiled:
    @pytest.mark.parametrize("n, states", [(1, 1), (2, 4), (3, 12), (4, 32)])
    def test_distinct_states(self, n, states):
        # every (position, self-inclusive view) pair occurs once
        for compiled in (_compiled(IIS, n), _compiled(IAS, n), _compiled(IC, n),
                         _compiled_partitions(n)):
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
        chromatic_subdivide(gen_simplex(3), Counting(gen_simplex(3)))
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
    for c in (gen_glued(3), chromatic_subdivide(d2)):
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
    # and position) and the simulator fold over every round
    assert _pinned_exports() == (
        "4b0c699cd3452bb8f00802479e88d69781e19822e3a59b0402cbffd1c8fe009b"
    )
