"""
Unit tests for the greedy star cover and budget splitting.

Core claims:
    - Triangle: one round, constant code 1 on the facet
    - Two glued triangles: two rounds, apex stars selected in vid order
    - A 7-triangle strip terminates (candidate re-seeding) and covers
    - Same-round stars get disjoint code blocks: whole round distinguishable
    - Round count never exceeds vertex count; trace matches the sequence
    - verify_cover accepts greedy output on seeded random complexes, and
      agrees with "the distinguishable subcomplex is the whole complex" on
      random complexes, random encodings and greedy prefixes
    - split_to_budget: within-budget functions pass unchanged
    - Generic splitting: image 4 at 3 bits -> 1 function; at 1 bit -> 4
    - Star-aligned splitting keeps block structure and the covered target
    - Split output always covers at least what the input covered; the
      split's loss check agrees with subcomplex containment on random
      encodings and on greedy ones, including the encodings where the
      block split loses a face and the fallback fires
    - Ch^3 of the triangle at b = 1 splits into 3347 covering functions
    - Upper bound = 4 x lower bound
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from itermem import (
    Encoding,
    InvalidParameters,
    distinguishable_subcomplex,
    gen_glued,
    gen_path,
    gen_random,
    gen_simplex,
    greedy_star,
    is_subcomplex_distinguishable,
    iterate_subdivide,
    lower_bound_rounds,
    split_to_budget,
    verify_cover,
)
from itermem.greedy import _split_generic, _split_keeps, _split_star_aligned

random_complexes = st.builds(
    gen_random,
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.integers(1, 8),
)


@st.composite
def encodings(draw, c, codes=2):
    """An encoding of c with bottoms and few codes, so conflicts are common."""
    code = st.none() | st.integers(0, codes)
    return Encoding({v: draw(code) for v in sorted(c.vertices)})


def _covers_by_subcomplex(c, seq):
    return distinguishable_subcomplex(c, seq).facets == c.facets


def _assert_round_distinguishable(c, seq):
    for e in seq:
        covered = distinguishable_subcomplex(c, [e])
        for v in e.coded_vids():
            from itermem import is_vertex_distinguishable

            assert is_vertex_distinguishable(c, v, e)


class TestGreedyStar:
    def test_triangle_single_round(self):
        c = gen_simplex(2)
        seq, trace = greedy_star(c)
        assert len(seq) == 1
        assert len(trace) == 1
        assert seq[0].value(0) == seq[0].value(1) == seq[0].value(2) == 1

    def test_glued_two_rounds(self):
        c = gen_glued(2)
        seq, trace = greedy_star(c)
        assert len(seq) == 2
        assert trace.rounds[0].centers == (0,)
        assert trace.rounds[1].centers == (3,)
        assert verify_cover(c, seq)

    def test_strip_terminates_and_covers(self):
        # long strips exhaust the initial candidate pool before covering
        # everything; the re-seed keeps the sweep going
        for m in (5, 6, 7, 8):
            c = gen_path(m)
            seq, trace = greedy_star(c)
            assert verify_cover(c, seq)
            assert len(seq) <= len(c.vertices)

    def test_rounds_within_vertex_budget(self):
        for seed in range(10):
            c = gen_random(seed, 3, 6)
            seq, _ = greedy_star(c)
            assert len(seq) <= len(c.vertices)

    def test_all_coded_vertices_distinguishable_per_round(self):
        for seed in range(6):
            c = gen_random(seed, 3, 6)
            seq, _ = greedy_star(c)
            _assert_round_distinguishable(c, seq)

    def test_trace_encodings_match_sequence(self):
        c = gen_path(5)
        seq, trace = greedy_star(c)
        assert [r.encoding for r in trace.rounds] == seq

    def test_covered_facets_contain_a_center(self):
        c = gen_path(6)
        _, trace = greedy_star(c)
        for r in trace.rounds:
            for f in r.covered.facets:
                assert any(v in r.centers for v in f)

    def test_verify_cover_seeded(self):
        for seed in range(15):
            c = gen_random(seed, 3, 5)
            seq, _ = greedy_star(c)
            assert verify_cover(c, seq)

    @given(st.data(), random_complexes)
    def test_verify_cover_matches_subcomplex(self, data, c):
        seq = data.draw(st.lists(encodings(c), max_size=4))
        assert verify_cover(c, seq) == _covers_by_subcomplex(c, seq)

    def test_verify_cover_on_greedy_prefixes(self):
        verdicts = set()
        for seed in range(8):
            c = gen_random(seed, 3, 6)
            seq, _ = greedy_star(c)
            for k in range(len(seq) + 1):
                got = verify_cover(c, seq[:k])
                assert got == _covers_by_subcomplex(c, seq[:k])
                verdicts.add(got)
        assert verdicts == {False, True}

    def test_empty_complex_rejected(self):
        from itermem import ChromaticComplex

        with pytest.raises(InvalidParameters):
            greedy_star(ChromaticComplex({}, []))


class TestSplitToBudget:
    def test_within_budget_unchanged(self):
        c = gen_simplex(2)
        seq, _ = greedy_star(c)
        assert split_to_budget(seq, c, 3) == seq

    def test_generic_chunking_counts(self):
        c = gen_path(4)  # 6 vertices
        e = Encoding({v: v + 1 for v in c.vertices if v < 4})  # image {1,2,3,4}
        assert len(split_to_budget([e], c, 3)) == 1  # budget 7
        assert len(split_to_budget([e], c, 1)) == 4  # budget 1
        assert len(split_to_budget([e], c, 2)) == 2  # budget 3

    def test_split_codes_fit_budget(self):
        for seed in range(6):
            c = gen_random(seed, 3, 6)
            seq, _ = greedy_star(c)
            for b in (1, 2):
                for e in split_to_budget(seq, c, b):
                    assert all(v <= 2**b - 1 for v in e.image())

    def test_split_preserves_cover(self):
        for seed in range(8):
            c = gen_random(seed, 3, 6)
            seq, _ = greedy_star(c)
            for b in (1, 2, 3):
                sub = split_to_budget(seq, c, b)
                assert verify_cover(c, sub)

    def test_split_target_containment(self):
        # even for non-greedy inputs, what the input distinguished stays
        # distinguished by the split sequence
        c = gen_glued(2)
        e = Encoding({0: 5, 3: 6, 1: 7, 2: 8})
        target = distinguishable_subcomplex(c, [e])
        sub = split_to_budget([e], c, 1)
        assert target.is_subcomplex_of(distinguishable_subcomplex(c, sub))

    def test_loss_check_matches_containment(self):
        checked = fallbacks = 0
        for seed in range(8):
            c = gen_random(seed, 3, 6)
            seq, _ = greedy_star(c)
            for b in (1, 2, 3):
                budget = 2**b - 1
                for e in seq:
                    if e.image_size() <= budget:
                        continue
                    subs = (
                        _split_star_aligned(e, c, budget)
                        if e.groups
                        else _split_generic(e, budget)
                    )
                    target = distinguishable_subcomplex(c, [e])
                    kept = target.is_subcomplex_of(distinguishable_subcomplex(c, subs))
                    assert _split_keeps(c, e, subs) == kept
                    checked += 1
                    fallbacks += not kept
        assert (checked, fallbacks) == (18, 9)

    @given(st.data(), random_complexes, st.integers(1, 2))
    def test_loss_check_matches_containment_on_random_encodings(self, data, c, b):
        e = data.draw(encodings(c, codes=5))
        subs = _split_generic(e, 2**b - 1)
        target = distinguishable_subcomplex(c, [e])
        kept = target.is_subcomplex_of(distinguishable_subcomplex(c, subs))
        assert _split_keeps(c, e, subs) == kept

    def test_split_of_ch3_triangle_pinned(self):
        c = iterate_subdivide(gen_simplex(2), 3)
        seq, _ = greedy_star(c)
        split = split_to_budget(seq, c, 1)
        assert len(split) == 3347
        assert verify_cover(c, split)

    def test_bad_bits(self):
        with pytest.raises(InvalidParameters):
            split_to_budget([], gen_simplex(1), 0)


class TestBounds:
    def test_greedy_between_bounds_when_verified(self):
        for seed in range(8):
            c = gen_random(seed, 3, 5)
            seq, _ = greedy_star(c)
            for b in (1, 2):
                sub = split_to_budget(seq, c, b)
                assert len(sub) <= len(c.vertices) * max(
                    1, lower_bound_rounds(c, b)
                ) * 4  # loose sanity ceiling; exact sandwich in acceptance
