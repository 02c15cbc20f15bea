"""
Unit tests for encoding functions and distinguishability.

Core claims:
    - Encoding drops bottoms and validates codes
    - A vertex is distinguishable iff no same-color same-code vertex sits
      within two hops (bottom equals bottom); the library's rival-cache
      predicate matches the pairwise two-hop scan kept here as reference
    - The two-triangle complex with both apexes coded 1 is the canonical
      failure; distinct apex codes repair it
    - Encoding rejects a vid that is not an int, bools included
    - The one decode rule (`_ambiguous`) yields, once each as (p, v, x)
      with v < x, exactly the coded readers p with two coded neighbors v, x
      of one color and one code, by the per-reader scan; each (v, x) is a
      pair of rivals coded alike, so a round whose coded vertices are all
      distinguishable yields nothing.  On the glued pair, apexes coded
      alike yield a triple only through a coded common neighbor.  It says
      nothing of uncoded vertices: with only p1 of the glued pair coded it
      yields nothing, yet apex a1, uncoded like its rival a2, is not
      distinguishable
    - Degree lower bound: frozen values on the triangle, glued pair, and
      one subdivision round; equal to the exact rational ceiling at
      b = 1, 2, 3, 1074, 1075, 5000 on Δ², ChΔ³ and the glued pair;
      bad parameters raise
    - min(2^b - 1, need), as `_code_count` computes it without 2^b
    - The width check names the first (round, ascending vid) whose code is
      outside 1..2^b - 1, and only a sequence with such a code has one
"""

import math
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from itermem import (
    ChromaticComplex,
    Encoding,
    InvalidParameters,
    VertexNotInComplex,
    gen_glued,
    gen_random,
    gen_simplex,
    is_vertex_distinguishable,
    iterate_subdivide,
    lower_bound_rounds,
)
from itermem.encoding import _ambiguous, _code_count, _width_witness

A1, P1, P2, A2 = 0, 1, 2, 3


def _glued():
    return gen_glued(2)


def reference_distinguishable(c, v, enc):
    """The pairwise two-hop scan: the independent reference predicate."""
    adj = c.adjacency()
    code = enc.value(v)
    color = c.vertices[v].color
    for u in adj[v]:
        for x in adj[u]:
            if x != v and c.vertices[x].color == color and enc.value(x) == code:
                return False
    return True


random_complexes = st.builds(
    gen_random,
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.integers(1, 8),
)


@st.composite
def encodings(draw, c):
    """An encoding of c with bottoms and few codes, so conflicts are common."""
    code = st.none() | st.integers(0, 2)
    return Encoding({v: draw(code) for v in sorted(c.vertices)})


class TestEncoding:
    def test_bottom_dropped(self):
        e = Encoding({0: 1, 1: None, 2: 2})
        assert e.value(0) == 1
        assert e.value(1) is None
        assert e.value(99) is None
        assert e.coded_vids() == frozenset({0, 2})

    def test_hash_repr_and_foreign_equality(self):
        a, b = Encoding({2: 2, 0: 1}), Encoding({0: 1, 1: None, 2: 2})
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "Encoding({0:1, 2:2})"
        assert (a == {0: 1, 2: 2}) is False

    def test_code_validation(self):
        with pytest.raises(InvalidParameters):
            Encoding({0: -1})
        with pytest.raises(InvalidParameters):
            Encoding({0: "x"})
        with pytest.raises(InvalidParameters):
            Encoding({0: True})  # would be written back as `true`

    @pytest.mark.parametrize("vid", ["1", True, False, 1.0, None, (1,)])
    def test_vid_validation(self, vid):
        # a string vid was dropped silently, and True aliased vid 1
        with pytest.raises(InvalidParameters, match=re.escape(f"vid {vid!r} ")):
            Encoding({vid: 2})
        with pytest.raises(InvalidParameters):
            Encoding({5: 1, vid: None})  # checked even where the code is bottom

    def test_equality(self):
        assert Encoding({0: 1, 1: None}) == Encoding({0: 1})
        assert Encoding({0: 1}) != Encoding({0: 2})


class TestVertexDistinguishability:
    def test_conflict_through_common_neighbor(self):
        c = _glued()
        shared = Encoding({A1: 1, A2: 1})
        # a1 and a2 share color 0 and the common neighbor p1
        assert not is_vertex_distinguishable(c, A1, shared)
        assert not is_vertex_distinguishable(c, A2, shared)

    def test_repair_with_distinct_codes(self):
        c = _glued()
        fixed = Encoding({A1: 1, A2: 2, P1: 1, P2: 1})
        assert all(is_vertex_distinguishable(c, v, fixed) for v in c.vertices)

    def test_bottom_pair_conflicts(self):
        # both apexes unwritten: readers cannot tell them apart either
        c = _glued()
        e = Encoding({P1: 1, P2: 2})
        assert not is_vertex_distinguishable(c, A1, e)

    def test_same_code_far_apart_is_fine(self):
        c = _glued()
        e = Encoding({P1: 1, P2: 1, A1: 1, A2: 2})
        # p1 and p2 differ in color; distance-2 same-color pair is a1/a2 only
        assert is_vertex_distinguishable(c, P1, e)
        assert is_vertex_distinguishable(c, P2, e)

    def test_unknown_vertex(self):
        with pytest.raises(VertexNotInComplex):
            is_vertex_distinguishable(_glued(), 42, Encoding({}))

    @given(st.data(), random_complexes)
    def test_matches_pairwise_reference(self, data, c):
        enc = data.draw(encodings(c))
        for v in c.vertices:
            assert is_vertex_distinguishable(c, v, enc) == (
                reference_distinguishable(c, v, enc)
            )

    def test_subcomplex_distinguishable(self):
        c = _glued()
        alpha = c.subcomplex([[A1, P1, P2]])
        e = Encoding({A1: 1, P1: 1, P2: 1})
        # a2 is bottom, a1 coded: the pair is distinguishable, alpha passes
        assert all(is_vertex_distinguishable(c, v, e) for v in alpha.vertices)
        shared = Encoding({A1: 1, A2: 1, P1: 1, P2: 1})
        assert not all(is_vertex_distinguishable(c, v, shared) for v in alpha.vertices)


def reference_ambiguous(c, enc):
    """Every (p, v, x), v < x, of a coded reader p and two coded neighbors
    of p with one color and one code, by a per-reader scan (no rival cache)."""
    adj = c.adjacency()
    out = set()
    for p in adj:
        if enc.value(p) is None:
            continue
        for v, x in combinations(sorted(adj[p]), 2):
            if (
                c.vertices[v].color == c.vertices[x].color
                and enc.value(v) is not None
                and enc.value(v) == enc.value(x)
            ):
                out.add((p, v, x))
    return out


class TestClashes:
    def test_glued_apexes(self):
        c = _glued()
        # the apexes' common neighbors p1 and p2 are uncoded: nobody reads both
        assert list(_ambiguous(c, Encoding({A1: 1, A2: 1}))) == []
        assert list(_ambiguous(c, Encoding({A1: 1, A2: 1, P1: 2}))) == [(P1, A1, A2)]
        assert list(_ambiguous(c, Encoding({v: 1 for v in c.vertices}))) == [
            (P1, A1, A2),
            (P2, A1, A2),
        ]
        assert list(_ambiguous(c, Encoding({A1: 1, A2: 2, P1: 1, P2: 1}))) == []
        # vids outside c are ignored
        assert list(_ambiguous(c, Encoding({A1: 1, 99: 1, P1: 1}))) == []

    def test_uncoded_vertices_left_to_the_bottom_rule(self):
        # bottom equals bottom: a1 and its rival a2 are both uncoded
        c = _glued()
        e = Encoding({P1: 1})
        assert list(_ambiguous(c, e)) == []
        assert not is_vertex_distinguishable(c, A1, e)
        assert is_vertex_distinguishable(c, P1, e)

    @given(st.data(), random_complexes)
    def test_yields_the_same_code_rival_pairs(self, data, c):
        enc = data.draw(encodings(c))
        triples = list(_ambiguous(c, enc))
        assert all(v < x for _, v, x in triples)
        assert len(set(triples)) == len(triples)
        assert set(triples) == reference_ambiguous(c, enc)
        rivals = c.rivals()
        assert all(x in rivals[v] and enc.value(v) == enc.value(x) for _, v, x in triples)
        if all(is_vertex_distinguishable(c, v, enc) for v in enc.coded_vids()):
            assert not triples


class TestLowerBound:
    def test_frozen_values(self):
        assert lower_bound_rounds(gen_simplex(2), 1) == 1
        assert lower_bound_rounds(_glued(), 1) == 1
        ch = iterate_subdivide(gen_simplex(2), 1)
        assert lower_bound_rounds(ch, 1) == 2  # maxdeg 6, 3 colors, budget 1
        assert lower_bound_rounds(ch, 2) == 1

    @pytest.mark.parametrize("b", [1, 2, 3, 1074, 1075, 5000])
    def test_exact_at_any_width(self, b):
        # in floats the quotient underflows to 0.0 from b = 1075 on
        for c in (gen_simplex(2), iterate_subdivide(gen_simplex(3), 1), _glued()):
            n = len(c.colors())
            want = math.ceil(Fraction(c.max_degree(), n * (2**b - 1)))
            assert lower_bound_rounds(c, b) == want

    def test_code_count(self):
        for b in range(1, 6):
            for need in range(1, 40):
                assert _code_count(b, need) == min(2**b - 1, need)

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameters):
            lower_bound_rounds(gen_simplex(2), 0)
        with pytest.raises(InvalidParameters, match="need a nonempty complex"):
            lower_bound_rounds(ChromaticComplex({}, []), 1)


_rounds = st.lists(st.dictionaries(st.integers(0, 9), st.integers(0, 20), max_size=6), max_size=4)


@given(rounds=_rounds, b=st.integers(1, 5))
def test_width_witness_is_the_first_code_outside_the_register(rounds, b):
    outside = [
        {"round": r, "vid": v, "code": k}
        for r, codes in enumerate(rounds)
        for v, k in sorted(codes.items())
        if not 1 <= k <= 2**b - 1
    ]
    got = _width_witness([Encoding(codes) for codes in rounds], b)
    assert got == (outside[0] if outside else None)


def test_width_witness_at_huge_width():
    # no 2^b is built: any positive code fits 5,000 bits, and 0 never fits
    assert _width_witness([Encoding({0: 3, 1: 2**4000})], 5000) is None
    assert _width_witness([Encoding({0: 3}), Encoding({2: 0})], 5000) == {
        "round": 1, "vid": 2, "code": 0}
