"""
Unit tests for the chromatic complex core.

Core claims:
    - Facet-generated closure: faces, f-vector, Euler characteristic; the
      f-vector counts faces() by size, also on complexes that are not pure
    - Validation rejects duplicate colors, contained facets, dangling vids
    - _maximal agrees with the pairwise antichain definition, and the
      constructor rejects exactly the families it would reduce
    - Star and link are correct on the two-triangle complex
    - |faces(closed star)| = 2 |faces(link)| + 1 (cone duality)
    - intersect works on a shared vid space and rejects conflicting spaces
    - build_complex identifies vertices by (color, label)
    - Degree, adjacency, containment, equality behave on small fixtures
    - Cached rivals are the same-color vertices two hops away; a vertex
      without any maps to an empty tuple
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from itermem import (
    ChromaticComplex,
    DanglingVertexReference,
    DuplicateColorInFacet,
    FacetContainment,
    IncompatibleVertexSpaces,
    NotAFacet,
    NotASubcomplex,
    Simplex,
    SimplexNotInComplex,
    Vertex,
    VertexNotInComplex,
    assert_facet,
    assert_subcomplex,
    build_complex,
    gen_glued,
    gen_path,
    gen_simplex,
)
from itermem.complexes import _maximal

# vids in gen_glued(2): a1=0, p1=1, p2=2, a2=3
A1, P1, P2, A2 = 0, 1, 2, 3


def _triangle():
    return gen_simplex(2)


def _glued():
    return gen_glued(2)


class TestConstruction:
    def test_triangle_counts(self):
        c = _triangle()
        assert len(c.vertices) == 3
        assert len(c.facets) == 1
        assert c.dimension == 2
        assert c.f_vector() == (3, 3, 1)
        assert len(c.faces()) == 7

    def test_edge_f_vector(self):
        assert gen_simplex(1).f_vector() == (2, 1)

    def test_empty_complex(self):
        c = ChromaticComplex({}, [])
        assert c.f_vector() == ()
        assert c.dimension == -1
        assert c.faces() == frozenset()

    def test_duplicate_color_rejected(self):
        vs = {0: Vertex(0, 0), 1: Vertex(1, 0)}
        with pytest.raises(DuplicateColorInFacet):
            ChromaticComplex(vs, [Simplex({0, 1})])

    def test_contained_facet_rejected(self):
        vs = {0: Vertex(0, 0), 1: Vertex(1, 1), 2: Vertex(2, 2)}
        with pytest.raises(FacetContainment):
            ChromaticComplex(vs, [Simplex({0, 1, 2}), Simplex({0, 1})])

    @given(
        st.lists(st.frozensets(st.integers(0, 7), max_size=4), max_size=12)
    )
    def test_maximal_matches_pairwise_definition(self, fam):
        # the pairwise definition of an antichain, as the reference
        reference = {s for s in fam if s and not any(s < t for t in fam)}
        assert _maximal(fam) == reference
        vs = {v: Vertex(v, v) for v in range(8)}
        if reference == {s for s in fam if s}:
            assert ChromaticComplex(vs, fam).facets == reference
        else:
            with pytest.raises(FacetContainment):
                ChromaticComplex(vs, fam)

    @given(
        st.lists(st.frozensets(st.integers(0, 7), max_size=5), max_size=10)
    )
    def test_f_vector_counts_faces(self, fam):
        c = ChromaticComplex({v: Vertex(v, v) for v in range(8)}, _maximal(fam))
        sizes = [len(s) for s in c.faces()]
        assert c.f_vector() == tuple(sizes.count(k) for k in range(1, c.dimension + 2))

    def test_dangling_vid_rejected(self):
        with pytest.raises(DanglingVertexReference):
            ChromaticComplex({0: Vertex(0, 0)}, [Simplex({0, 7})])

    def test_unreferenced_vertices_trimmed(self):
        vs = {0: Vertex(0, 0), 1: Vertex(1, 1), 9: Vertex(9, 2)}
        c = ChromaticComplex(vs, [Simplex({0, 1})])
        assert set(c.vertices) == {0, 1}

    def test_build_complex_identifies_by_color_label(self):
        c = build_complex([[(0, "x"), (1, "y")], [(0, "x"), (1, "z")]])
        assert len(c.vertices) == 3  # (0,"x") shared
        assert len(c.facets) == 2


class TestQueries:
    def test_glued_shape(self):
        c = _glued()
        assert len(c.vertices) == 4
        assert len(c.facets) == 2
        assert len(c.faces()) == 11
        assert c.f_vector() == (4, 5, 2)

    def test_degrees(self):
        c = _glued()
        assert c.degree(P1) == 3
        assert c.degree(A1) == 2
        assert c.max_degree() == 3
        with pytest.raises(VertexNotInComplex):
            c.degree(99)

    def test_adjacency_symmetric(self):
        c = gen_path(4)
        adj = c.adjacency()
        for v, nbrs in adj.items():
            assert all(v in adj[w] for w in nbrs)

    def test_rivals(self):
        c = _glued()
        rivals = c.rivals()
        assert rivals == {A1: (A2,), A2: (A1,), P1: (), P2: ()}
        assert c.rivals() is rivals  # cached with the complex

    def test_rivals_match_two_hop_definition(self):
        c = gen_path(6)
        adj = c.adjacency()
        for v, rivals in c.rivals().items():
            assert set(rivals) == {
                x
                for x in c.vertices
                if x != v
                and c.vertices[x].color == c.vertices[v].color
                and any(x in adj[u] for u in adj[v])
            }

    def test_has_face(self):
        c = _glued()
        assert c.has_face({A1, P1})
        assert not c.has_face({A1, A2})

    def test_euler_of_disk(self):
        assert _glued().euler_characteristic() == 1

    def test_colors(self):
        assert _glued().colors() == frozenset({0, 1, 2})
        assert _glued().n_colors == 3


class TestStarLink:
    def test_star_of_shared_edge(self):
        c = _glued()
        st = c.star({P1, P2})
        assert st.facets == c.facets  # both triangles contain the edge

    def test_star_of_apex(self):
        c = _glued()
        st = c.star({A1})
        assert st.facets == frozenset({Simplex({A1, P1, P2})})

    def test_star_missing_simplex(self):
        with pytest.raises(SimplexNotInComplex):
            _glued().star({A1, A2})

    def test_link_of_shared_vertex_is_path(self):
        lk = _glued().link(P1)
        assert set(lk.vertices) == {A1, P2, A2}
        assert lk.facets == frozenset({Simplex({A1, P2}), Simplex({A2, P2})})

    def test_link_of_apex_is_edge(self):
        lk = _glued().link(A1)
        assert lk.facets == frozenset({Simplex({P1, P2})})

    def test_cone_duality(self):
        # closed star = vertex * link, so faces split as: link faces,
        # link faces joined with the vertex, and the vertex itself
        c = _glued()
        for v in c.vertices:
            st, lk = c.star({v}), c.link(v)
            assert len(st.faces()) == 2 * len(lk.faces()) + 1


class TestSubcomplexes:
    def test_subcomplex_and_containment(self):
        c = _glued()
        sub = c.subcomplex([[A1, P1, P2]])
        assert sub.is_subcomplex_of(c)
        assert_subcomplex(sub, c)
        assert not c.is_subcomplex_of(sub)
        with pytest.raises(NotASubcomplex):
            assert_subcomplex(c, sub)

    def test_subcomplex_ignores_empty_face(self):
        sub = _glued().subcomplex([[], [A1, P1]])
        assert sub.facets == frozenset({Simplex({A1, P1})})

    def test_subcomplex_foreign_face_rejected(self):
        with pytest.raises(SimplexNotInComplex):
            _glued().subcomplex([[A1, A2]])

    def test_intersect_glued_triangles(self):
        c = _glued()
        a = c.subcomplex([[A1, P1, P2]])
        b = c.subcomplex([[A2, P1, P2]])
        inter = a.intersect(b)
        assert inter.facets == frozenset({Simplex({P1, P2})})

    def test_intersect_conflicting_spaces(self):
        x = build_complex([[(0, "x"), (1, "y")]])
        y = build_complex([[(2, "z"), (1, "w")]])  # vid 0 has color 2 here
        with pytest.raises(IncompatibleVertexSpaces):
            x.intersect(y)

    def test_assert_facet(self):
        c = _glued()
        assert assert_facet(c, {A1, P1, P2}) == Simplex({A1, P1, P2})
        with pytest.raises(NotAFacet):
            assert_facet(c, {P1, P2})  # a face but not maximal
        with pytest.raises(SimplexNotInComplex):
            assert_facet(c, {A1, A2})

    def test_equality_and_hash(self):
        a, b = _glued(), _glued()
        assert a == b
        assert hash(a) == hash(b)
        assert a != _triangle()
