"""
Unit tests for encoding functions and distinguishability.

Core claims:
    - Encoding drops bottoms, validates codes, exposes image/groups
    - A vertex is distinguishable iff no same-color same-code vertex sits
      within two hops (bottom equals bottom); the library's rival-cache
      predicate matches the pairwise two-hop scan kept here as reference
    - The two-triangle complex with both apexes coded 1 is the canonical
      failure; distinct apex codes repair it
    - distinguishable_subcomplex unions per-function distinguishable faces,
      and equals the complex built face by face from that definition on
      random complexes and random encodings with bottoms
    - Sequence union can cover what no single function covers
    - Degree lower bound: frozen values on the triangle, glued pair, and
      one subdivision round; bad parameters raise
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from itermem import (
    BOTTOM,
    Encoding,
    InvalidParameters,
    VertexNotInComplex,
    chromatic_subdivide,
    distinguishable_subcomplex,
    gen_glued,
    gen_random,
    gen_simplex,
    is_subcomplex_distinguishable,
    is_vertex_distinguishable,
    lower_bound_rounds,
)

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
        e = Encoding({0: 1, 1: BOTTOM, 2: 2})
        assert e.value(0) == 1
        assert e.value(1) is None
        assert e.value(99) is None
        assert e.coded_vids() == frozenset({0, 2})
        assert e.image() == (1, 2)
        assert e.image_size() == 2

    def test_code_validation(self):
        with pytest.raises(InvalidParameters):
            Encoding({0: -1})
        with pytest.raises(InvalidParameters):
            Encoding({0: "x"})

    def test_equality(self):
        assert Encoding({0: 1, 1: None}) == Encoding({0: 1})
        assert Encoding({0: 1}) != Encoding({0: 2})

    def test_groups_metadata(self):
        e = Encoding({0: 1, 1: 2}, groups=((0, 1),))
        assert e.groups == ((0, 1),)


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
        assert is_subcomplex_distinguishable(c, alpha, e)
        shared = Encoding({A1: 1, A2: 1, P1: 1, P2: 1})
        assert not is_subcomplex_distinguishable(c, alpha, shared)


class TestDistinguishableSubcomplex:
    def test_single_constant_function_on_simplex(self):
        c = gen_simplex(2)
        d = distinguishable_subcomplex(c, [Encoding({v: 1 for v in c.vertices})])
        assert d == c

    def test_shared_code_loses_both_triangles(self):
        c = _glued()
        shared = Encoding({A1: 1, A2: 1, P1: 1, P2: 1})
        d = distinguishable_subcomplex(c, [shared])
        # neither triangle survives: apexes are ambiguous from p1/p2
        assert frozenset({A1, P1, P2}) not in d.facets
        assert frozenset({A2, P1, P2}) not in d.facets

    def test_one_coded_apex_distinguishes_both(self):
        # a2 at bottom differs from a1's code, so one function covers all
        c = _glued()
        first = Encoding({A1: 1, P1: 1, P2: 1})
        assert distinguishable_subcomplex(c, [first]) == c

    def test_sequence_union_covers(self):
        # three apexes: any all-1 function leaves two bottoms in conflict,
        # so single functions cover one triangle and unions accumulate
        c = gen_glued(3)
        p1 = 1
        p2 = 2
        apexes = [v for v in c.vertices if c.vertices[v].color == 0]
        seq = [Encoding({a: 1, p1: 1, p2: 1}) for a in sorted(apexes)]
        covered = [
            len(distinguishable_subcomplex(c, seq[: k + 1]).facets)
            for k in range(3)
        ]
        assert covered == [1, 2, 3]
        assert distinguishable_subcomplex(c, seq) == c

    def test_empty_sequence(self):
        c = gen_simplex(2)
        d = distinguishable_subcomplex(c, [])
        assert not d.facets

    @given(st.data(), random_complexes)
    def test_matches_definition(self, data, c):
        # the faces some function makes distinguishable: all their vertices
        # pass the pairwise reference under that one function
        seq = data.draw(st.lists(encodings(c), max_size=3))
        faces = [
            s
            for s in c.faces()
            if any(all(reference_distinguishable(c, v, e) for v in s) for e in seq)
        ]
        assert distinguishable_subcomplex(c, seq) == c.subcomplex(faces)


class TestLowerBound:
    def test_frozen_values(self):
        assert lower_bound_rounds(gen_simplex(2), 1) == 1
        assert lower_bound_rounds(_glued(), 1) == 1
        ch = chromatic_subdivide(gen_simplex(2))
        assert lower_bound_rounds(ch, 1) == 2  # maxdeg 6, 3 colors, budget 1
        assert lower_bound_rounds(ch, 2) == 1

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameters):
            lower_bound_rounds(gen_simplex(2), 0)
