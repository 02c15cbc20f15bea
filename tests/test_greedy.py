"""
Unit tests for the greedy star cover, first-fit packing and cover checks.

Core claims:
    - Triangle: one round, constant code 1 on the facet
    - Two glued triangles: two rounds, apex stars selected in vid order
    - A 7-triangle strip terminates (candidate re-seeding) and covers
    - Same-round stars get disjoint code blocks: whole round distinguishable
    - Round count never exceeds vertex count; each trace round's assignment
      is that round's encoding, and its covered facets are the facets that
      hold one of its centers
    - The frontier guard selects what the per-vertex guard selects: equal
      codes, centers and covered facet sets on random 2-4-color complexes
      and their subdivisions, and equal trace documents; Ch^2 of the
      3-simplex takes 96 outer rounds
    - verify_cover accepts greedy output on seeded random complexes, and
      agrees with "no coded reader sees two coded neighbors with one color
      and code, and the subcomplexes the rounds code whole cover the
      complex" on random complexes, random encodings and greedy prefixes;
      a verified sequence simulates to full-information collect, and the
      glued pair coded by greedy's first round alone is rejected (its
      uncoded apex discards what it reads), as is any sequence with a
      round in which a coded reader cannot decode
    - split_to_budget packs a covering sequence: codes stay within 2^b - 1,
      every coded vertex is distinguishable in its round, the packing
      covers, and it is the same whichever cover is given (greedy's, one
      round per facet, greedy's reversed and repeated, the exact minimum,
      drawn ones); a sequence that does not cover, or has an unsound round,
      raises InvalidParameters
    - Ch^3 of the triangle packs into 148 / 19 / 5 rounds at b = 1 / 2 / 3;
      b = 10^8 packs as b = 64 does
    - Packed round counts never fall below the degree lower bound
    - The coding map: bit r of a vid's mask is set iff round r codes it,
      and the faces whose masks AND to 0 are those no round codes whole,
      past 64 rounds, with empty and repeated rounds and vids outside c;
      Ch^2 of the 3-simplex packs into 1,223 rounds at b = 1, which cover
      it until one vertex leaves the only round coding a facet whole
    - greedy_star, split_to_budget and exact_min_sequence return what the
      checking Encoding constructor would build from the same codes
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itermem import (
    IC,
    AmbiguousDecode,
    Encoding,
    InvalidParameters,
    bounded_protocol_complex,
    gen_glued,
    gen_path,
    gen_random,
    gen_simplex,
    greedy_star,
    is_isomorphic,
    is_vertex_distinguishable,
    iterate_subdivide,
    lower_bound_rounds,
    protocol_complex,
    split_to_budget,
    verify_cover,
)
from itermem.encoding import _unkept, rounds_coding
from itermem.io import encoding_from_dict, encoding_to_dict, trace_to_dict
from itermem.setcover import exact_min_sequence
from test_simulator import _reference_decode_scan

random_complexes = st.builds(
    gen_random,
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.integers(1, 8),
)

# bounded simulation runs on any number of colors; three keep these draws fast
simulable_complexes = st.builds(
    gen_random, st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 5)
)


@st.composite
def encodings(draw, c, codes=2):
    """An encoding of c with bottoms and few codes, so conflicts are common."""
    code = st.none() | st.integers(0, codes)
    return Encoding({v: draw(code) for v in sorted(c.vertices)})


@st.composite
def dense_encodings(draw, c):
    """An encoding that codes all but at most two vertices of c, with wide
    codes, so that drawn sequences often cover."""
    vids = sorted(c.vertices)
    dropped = draw(st.sets(st.sampled_from(vids), max_size=2))
    return Encoding({v: draw(st.integers(0, 40)) for v in vids if v not in dropped})


@st.composite
def round_sequences(draw, c):
    """Up to 90 rounds drawn with repeats from a few encodings, which may be
    empty and may code vids outside c, after up to 70 empty rounds: past
    64 of them, every face is coded whole only above bit 63."""
    vids = st.integers(0, max(c.vertices, default=0) + 3)
    pool = draw(st.lists(st.dictionaries(vids, st.integers(0, 3)), min_size=1, max_size=6))
    size = draw(st.integers(0, 90))
    picks = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    return [Encoding(codes) for codes in [{}] * draw(st.integers(0, 70)) + picks]


def _sound_rounds(c, seq):
    """The coded vertex sets of the rounds that code only distinguishable vertices."""
    return [
        e.coded_vids()
        for e in seq
        if all(is_vertex_distinguishable(c, v, e) for v in e.coded_vids())
    ]


def _kept_faces(c, seq):
    """The faces some sound round codes whole: the facets cut to each round."""
    return {f & s for s in _sound_rounds(c, seq) for f in c.facets} - {frozenset()}


def _covers_by_subcomplex(c, seq):
    """No round has a coded reader that sees two coded neighbors with one
    color and code, and the subcomplexes the rounds code whole cover c."""
    coded = [c.subcomplex(f & e.coded_vids() for f in c.facets) for e in seq]
    return not _reference_decode_scan(c, seq) and all(
        any(f in sub.facets for sub in coded) for f in c.facets
    )


def _reference_star_cover(c):
    """The sweep with the per-vertex guard: (codes, centers, covered) per round.

    A candidate star is taken when every one of its vertices lies outside
    this round's cover and has no neighbor in it.
    """
    adj = c.adjacency()
    open_facets = set(c.facets)
    pool = set(c.vertices)
    rounds = []
    while open_facets:
        if not pool:
            pool = {v for f in open_facets for v in f}
        cover = set()
        selected = []
        for v in sorted(pool):
            star = {v, *adj[v]}
            if all(w not in cover and cover.isdisjoint(adj[w]) for w in star):
                selected.append(v)
                cover |= star
        codes = {}
        base = 1
        for v in selected:
            per_color = Counter()
            for x in sorted((v, *adj[v])):
                codes[x] = base + per_color[c.vertices[x].color]
                per_color[c.vertices[x].color] += 1
            base += max(per_color.values())
        covered = {f for f in c.facets if any(v in f for v in selected)}
        rounds.append((codes, tuple(selected), covered))
        open_facets -= covered
        pool -= cover
    return rounds


def _assert_round_distinguishable(c, seq):
    for e in seq:
        for v in e.coded_vids():
            assert is_vertex_distinguishable(c, v, e)


def _assert_keeps(c, seq, out):
    """out keeps every face seq keeps, in rounds that are all sound."""
    kept = _sound_rounds(c, out)
    assert len(kept) == len(out)
    for face in _kept_faces(c, seq):
        assert any(face <= s for s in kept), sorted(face)


class TestGreedyStar:
    def test_triangle_single_round(self):
        c = gen_simplex(2)
        seq, trace = greedy_star(c)
        assert len(seq) == 1
        assert len(trace) == 1
        assert seq[0].value(0) == seq[0].value(1) == seq[0].value(2) == 1

    def test_glued_two_rounds(self):
        c = gen_glued(2)
        seq, centers = greedy_star(c)
        assert len(seq) == 2
        assert centers == [(0,), (3,)]
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
        # each trace round's assignment is that round's encoding
        c = gen_path(5)
        seq, centers = greedy_star(c)
        doc = trace_to_dict(c, seq, centers)
        assert [encoding_from_dict(r) for r in doc["rounds"]] == seq

    def test_covered_facets_contain_a_center(self):
        c = gen_path(6)
        for r in trace_to_dict(c, *greedy_star(c))["rounds"]:
            for f in r["covered_facets"]:
                assert any(v in r["centers"] for v in f)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 4), st.integers(1, 8), st.booleans())
    def test_matches_per_vertex_guard(self, seed, n, facets, subdivide):
        c = gen_random(seed, n, facets)
        if subdivide:
            c = iterate_subdivide(c, 1)
        seq, centers = greedy_star(c)
        want = _reference_star_cover(c)
        assert [dict(e.items()) for e in seq] == [codes for codes, _, _ in want]
        assert centers == [selected for _, selected, _ in want]
        # the trace derives each round's covered facets from c and its
        # centers; the reference sweep collects them as it selects
        assert trace_to_dict(c, seq, centers) == {
            "rounds": [
                {
                    "centers": sorted(selected),
                    "covered_facets": sorted(sorted(f) for f in covered),
                    "assignment": encoding_to_dict(Encoding(codes))["assignment"],
                }
                for codes, selected, covered in want
            ]
        }

    def test_ch2_of_3_simplex_rounds_pinned(self):
        # a tie-break pin: greedy takes centres in vid order, and Ch^r is
        # numbered as the r-round iis complex
        assert len(greedy_star(iterate_subdivide(gen_simplex(3), 2))[0]) == 96

    def test_trace_covers_every_facet(self):
        c = gen_path(6)
        doc = trace_to_dict(c, *greedy_star(c))
        assert {frozenset(f) for r in doc["rounds"] for f in r["covered_facets"]} == c.facets

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

    def test_uncoded_vertex_does_not_count(self):
        # greedy's first round on the glued pair codes the star of vid 0,
        # which leaves the apex 3 uncoded; its only rival, vid 0, is coded,
        # so 3 is distinguishable, yet a process at 3 discards what it reads
        c = gen_glued(2)
        first = greedy_star(c)[0][:1]
        assert first[0].value(3) is None
        assert is_vertex_distinguishable(c, 3, first[0])
        assert not verify_cover(c, first)
        sim = bounded_protocol_complex(c, first)
        assert not is_isomorphic(sim, protocol_complex(c, IC, 1))[0]

    def test_unsound_round_fails(self):
        # both facets coded whole, but the apexes share a code and a
        # neighbor: readers at the shared edge cannot decode them
        c = gen_glued(2)
        broken = [Encoding({v: 1 for v in c.vertices})]
        assert not verify_cover(c, broken)
        with pytest.raises(AmbiguousDecode):
            bounded_protocol_complex(c, broken)
        assert verify_cover(c, broken + greedy_star(c)[0]) is False

    @settings(max_examples=60, deadline=None)
    @given(st.data(), simulable_complexes)
    def test_verified_sequences_simulate_to_collect(self, data, c):
        seq = data.draw(st.lists(encodings(c, codes=3), min_size=1, max_size=4))
        if verify_cover(c, seq):
            sim = bounded_protocol_complex(c, seq)
            assert is_isomorphic(sim, protocol_complex(c, IC, 1))[0]

    def test_empty_complex_rejected(self):
        from itermem import ChromaticComplex

        with pytest.raises(InvalidParameters):
            greedy_star(ChromaticComplex({}, []))


class TestSplitToBudget:
    def test_within_budget_unchanged(self):
        c = gen_simplex(2)
        seq, _ = greedy_star(c)
        assert split_to_budget(seq, c, 3) == seq

    def test_split_codes_fit_budget(self):
        for seed in range(6):
            c = gen_random(seed, 3, 6)
            seq, _ = greedy_star(c)
            for b in (1, 2):
                for e in split_to_budget(seq, c, b):
                    assert all(1 <= k <= 2**b - 1 for _, k in e.items())

    def test_split_preserves_cover(self):
        for seed in range(8):
            c = gen_random(seed, 3, 6)
            seq, _ = greedy_star(c)
            for b in (1, 2, 3):
                sub = split_to_budget(seq, c, b)
                assert verify_cover(c, sub)

    def test_split_target_containment(self):
        # even for non-greedy inputs, what the input kept stays kept by the
        # packed sequence
        c = gen_glued(2)
        e = Encoding({0: 5, 3: 6, 1: 7, 2: 8})
        sub = split_to_budget([e], c, 1)
        _assert_keeps(c, [e], sub)
        assert verify_cover(c, sub)

    def test_non_covering_sequences_rejected(self):
        # a greedy prefix, no round at all, and one unsound round that codes
        # both facets whole: the apexes share a code and a neighbor
        c = gen_glued(2)
        unsound = Encoding({v: 1 for v in c.vertices})
        for seq in (greedy_star(c)[0][:1], [], [unsound]):
            assert not verify_cover(c, seq)
            for b in (1, 2, 3):
                with pytest.raises(InvalidParameters):
                    split_to_budget(seq, c, b)

    def test_covering_sequences_pack_alike(self):
        # the packing depends on c and b only, whichever cover is given
        for seed in range(16):
            c = gen_random(seed, 2 + seed % 3, 2)
            if seed % 2:
                c = iterate_subdivide(c, 1)
            greedy = greedy_star(c)[0]
            per_facet = [Encoding(dict.fromkeys(f, 1)) for f in sorted(c.facets, key=sorted)]
            covers = (greedy, per_facet, greedy[::-1] * 2, exact_min_sequence(c)[1])
            for b in (1, 2, 3):
                want = split_to_budget(greedy, c, b)
                for seq in covers:
                    assert verify_cover(c, seq)
                    assert split_to_budget(seq, c, b) == want

    @settings(max_examples=60, deadline=None)
    @given(st.data(), random_complexes, st.integers(1, 3))
    def test_any_cover_packs_as_greedy(self, data, c, b):
        # about two in five drawn sequences cover; the others are refused
        seq = data.draw(st.lists(dense_encodings(c), min_size=1, max_size=3))
        if verify_cover(c, seq):
            sub = split_to_budget(seq, c, b)
            assert sub == split_to_budget(greedy_star(c)[0], c, b)
            assert verify_cover(c, sub)
            assert all(1 <= k <= 2**b - 1 for e in sub for _, k in e.items())
        else:
            with pytest.raises(InvalidParameters):
                split_to_budget(seq, c, b)

    def test_wide_registers(self):
        # more codes than any vertex has rivals: one round per conflict class
        c = iterate_subdivide(gen_simplex(2), 2)
        seq, _ = greedy_star(c)
        assert split_to_budget(seq, c, 64) == split_to_budget(seq, c, 8)
        assert len(split_to_budget(seq, c, 64)) == 1

    def test_huge_register_width(self):
        # the code count is capped without building 2^b - 1
        c = iterate_subdivide(gen_simplex(2), 2)
        seq, _ = greedy_star(c)
        assert split_to_budget(seq, c, 10**8) == split_to_budget(seq, c, 64)

    def test_split_of_ch3_triangle_pinned(self):
        c = iterate_subdivide(gen_simplex(2), 3)
        seq, _ = greedy_star(c)
        # b = 2 is a tie-break pin, as above
        for b, rounds in ((1, 148), (2, 19), (3, 5)):
            split = split_to_budget(seq, c, b)
            assert len(split) == rounds
            assert verify_cover(c, split)

    def test_bad_bits(self):
        with pytest.raises(InvalidParameters):
            split_to_budget([], gen_simplex(1), 0)


class TestRoundsCoding:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data(), random_complexes)
    def test_unkept_matches_definition(self, data, c):
        seq = data.draw(round_sequences(c))
        coding = rounds_coding(seq)
        vids = {v for e in seq for v in e.coded_vids()}
        assert coding == {
            v: sum(1 << r for r, e in enumerate(seq) if v in e.coded_vids()) for v in vids
        }
        faces = (c.faces() | {frozenset(vids)}) - {frozenset()}
        assert _unkept(faces, coding) == {
            f for f in faces if not any(f <= e.coded_vids() for e in seq)
        }

    def test_ch2_of_3_simplex_split_at_one_bit(self):
        c = iterate_subdivide(gen_simplex(3), 2)
        split = split_to_budget(greedy_star(c)[0], c, 1)
        assert len(split) == 1223
        assert verify_cover(c, split)
        # a facet only the last round codes whole: its vertices' masks
        # share bit 1222 alone.  Without one of its vertices there, the
        # round stays sound but the facet is no longer coded whole
        last = split[-1].coded_vids()
        f = min(
            (f for f in c.facets if f <= last and not any(f <= e.coded_vids() for e in split[:-1])),
            key=sorted,
        )
        v = min(f)
        dropped = split[:-1] + [Encoding({u: k for u, k in split[-1].items() if u != v})]
        assert not verify_cover(c, dropped)


class TestOutputsAsChecked:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(random_complexes, st.integers(1, 3))
    def test_outputs_equal_checked_encodings(self, c, b):
        seq, _centers = greedy_star(c)
        split = split_to_budget(seq, c, b)
        for e in [*seq, *split, *exact_min_sequence(c)[1]]:
            assert e == Encoding(dict(e.items()))


class TestBounds:
    def test_greedy_between_bounds_when_verified(self):
        for seed in range(8):
            c = gen_random(seed, 3, 5)
            seq, _ = greedy_star(c)
            for b in (1, 2, 3):
                sub = split_to_budget(seq, c, b)
                assert len(sub) >= lower_bound_rounds(c, b)
                assert len(sub) <= len(c.vertices) * max(
                    1, lower_bound_rounds(c, b)
                ) * 4  # loose sanity ceiling; exact sandwich in acceptance
