"""
Unit tests for the standard chromatic subdivision.

Core claims:
    - ordered_set_partitions counts match 1, 1, 3, 13, 75, 541
    - One subdivision of the triangle has f-vector (12, 24, 13), Euler 1
    - One subdivision of an edge is a 4-vertex path
    - Corner vertices keep their vid and label across subdivision rounds
    - Corner degree 4, center degree 6, edge-interior degree 3 (triangle)
    - Iterated subdivision: frozen facet/vertex counts and max degrees
    - Facets of adjacent base facets glue along shared subdivided faces
    - degree_growth_table reports max-degree ratio 3 for the triangle
    - The facet budget raises ResourceLimit before enumerating
"""

import pytest

from itermem import (
    IIS,
    InvalidParameters,
    ResourceLimit,
    StateRegistry,
    degree_growth_table,
    gen_glued,
    gen_simplex,
    iterate_subdivide,
    one_round,
    ordered_bell,
    ordered_set_partitions,
)

# frozen: Fubini numbers (count of ordered set partitions)
FUBINI = [1, 1, 3, 13, 75, 541]


class TestOrderedPartitions:
    def test_counts_match_recurrence(self):
        for n, want in enumerate(FUBINI):
            assert len(list(ordered_set_partitions(list(range(n))))) == want
            assert ordered_bell(n) == want

    def test_partitions_are_partitions(self):
        items = ["a", "b", "c"]
        for blocks in ordered_set_partitions(items):
            flat = [x for blk in blocks for x in blk]
            assert sorted(flat) == sorted(items)
            assert all(blk for blk in blocks)

    def test_distinct(self):
        seen = {tuple(tuple(sorted(b)) for b in p)
                for p in ordered_set_partitions([1, 2, 3])}
        assert len(seen) == 13


class TestSingleSubdivision:
    def test_triangle_f_vector(self):
        ch = iterate_subdivide(gen_simplex(2), 1)
        assert ch.f_vector() == (12, 24, 13)
        assert ch.euler_characteristic() == 1

    def test_edge_is_path(self):
        ch = iterate_subdivide(gen_simplex(1), 1)
        assert ch.f_vector() == (4, 3)

    def test_corners_preserved(self):
        c = gen_simplex(2)
        ch = iterate_subdivide(c, 1)
        for v in c.vertices:
            assert ch.vertices[v].color == c.vertices[v].color
            assert ch.vertices[v].label == c.vertices[v].label

    def test_triangle_degrees(self):
        c = gen_simplex(2)
        ch = iterate_subdivide(c, 1)
        corners = set(c.vertices)
        # center vertices carry the full triangle as carrier
        centers = [v for v, vx in ch.vertices.items()
                   if v not in corners and isinstance(vx.label, tuple)
                   and len(vx.label[1]) == 3]
        interior = [v for v in ch.vertices
                    if v not in corners and v not in centers]
        assert {ch.degree(v) for v in corners} == {4}
        assert {ch.degree(v) for v in centers} == {6}
        assert {ch.degree(v) for v in interior} == {3}

    def test_colors_preserved(self):
        c = gen_glued(2)
        ch = iterate_subdivide(c, 1)
        assert ch.colors() == c.colors()

    def test_gluing_along_shared_edge(self):
        # the shared edge subdivides once, identically for both triangles
        c = gen_glued(2)
        ch = iterate_subdivide(c, 1)
        assert len(ch.facets) == 2 * 13
        # Euler characteristic of a disk survives subdivision
        assert ch.euler_characteristic() == 1


class TestIterated:
    def test_frozen_counts_triangle(self):
        c = gen_simplex(2)
        ch2 = iterate_subdivide(c, 2)
        assert ch2.f_vector() == (99, 267, 169)
        ch3 = iterate_subdivide(c, 3)
        assert len(ch3.facets) == 13**3
        assert len(ch3.vertices) == 1140

    def test_frozen_counts_edge(self):
        ch2 = iterate_subdivide(gen_simplex(1), 2)
        assert ch2.f_vector() == (10, 9)

    def test_max_degree_sequence(self):
        c = gen_simplex(2)
        assert [iterate_subdivide(c, r).max_degree() for r in (1, 2, 3)] == [
            6,
            18,
            54,
        ]

    def test_corner_degree_growth(self):
        c = gen_simplex(2)
        assert iterate_subdivide(c, 2).degree(0) == 10

    def test_one_round_matches_single(self):
        c = gen_glued(2)
        assert iterate_subdivide(c, 1) == one_round(c, IIS, StateRegistry(c))

    def test_rounds_must_be_positive(self):
        with pytest.raises(InvalidParameters):
            iterate_subdivide(gen_glued(2), 0)

    def test_budget_enforced(self):
        with pytest.raises(ResourceLimit):
            iterate_subdivide(gen_simplex(2), 3, max_facets=1000)


class TestIntersectionPreserving:
    def test_on_glued_subcomplexes(self):
        c = gen_glued(2)
        a = c.subcomplex([[0, 1, 2]])
        b = c.subcomplex([[3, 1, 2]])
        reg = StateRegistry(c)
        ch_a = one_round(a, IIS, reg)
        ch_b = one_round(b, IIS, reg)
        ch_ab = one_round(a.intersect(b), IIS, reg)
        assert ch_a.intersect(ch_b) == ch_ab


class TestGrowthTable:
    def test_triangle_ratios(self):
        rows = degree_growth_table(2, 3)
        assert [r.r for r in rows] == [1, 2, 3]
        assert [r.max_degree for r in rows] == [6, 18, 54]
        assert rows[1].ratio == pytest.approx(3.0)
        assert rows[2].ratio == pytest.approx(3.0)

    def test_path_graph_degree_stays_two(self):
        rows = degree_growth_table(1, 4)
        assert [r.max_degree for r in rows] == [2, 2, 2, 2]

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameters):
            degree_growth_table(0, 3)
        with pytest.raises(InvalidParameters):
            degree_growth_table(2, 1)
