"""
Unit tests for the set-cover reduction and exact minimum search.

Core claims:
    - Instance validation: empty subsets and stray elements are rejected
    - uncovered() reports unreachable elements
    - Brute-force optimum: frozen answers on hand instances, None when
      infeasible
    - Reduction shape: one facet of dimension |U| per element; no gluing
      for singleton or fully co-resident instances; universes above 3
      elements are rejected
    - Glued pairs cannot share a round; clique-cover equals cover optimum
    - Tie-break: pairwise co-residency without a common triple glues one
      pair, keeping the optimum at 2; explain_reduction names the
      tie-break only when it fired
    - exact_min_sequence: triangle 1, glued pair 2; output sequence
      verifies; codes are bottom/1
    - Past the old 12-facet cap it solves path11, IC(triangle), Ch(D3)
      exactly, each equal to the packed 1-bit length; on Ch^2(triangle)
      it raises ResourceLimit naming a certified lower bound
    - It equals the subset-enumeration reference search (kept here) on
      the |U| <= 3 sweep and on seeded random complexes of <= 12 facets
    - Full sweep |U| <= 3: reduction + exact search equals the optimum on
      every feasible instance, and there and on the tie-break instance no
      partition of the facets into fewer rounds, each part coded 1 whole,
      passes verify_cover: the exact search's rival rule and verify_cover's
      decode rule agree on reductions
    - Greedy length >= exact length on seeded complexes and on every
      reduced instance of the sweep, whose exact sequences verify
"""

import re
from itertools import chain, combinations, product

import pytest

from itermem import (
    IC,
    ChromaticComplex,
    Encoding,
    InvalidParameters,
    ResourceLimit,
    SetCoverInstance,
    exact_min_sequence,
    explain_reduction,
    gen_glued,
    gen_path,
    gen_random,
    gen_simplex,
    greedy_star,
    is_vertex_distinguishable,
    iterate_subdivide,
    lower_bound_rounds,
    protocol_complex,
    set_cover_optimum,
    set_cover_reduce,
    split_to_budget,
    verify_cover,
)


def _inst(universe, subsets):
    return SetCoverInstance(universe, subsets)


def _reference_min(c):
    """Minimum bottom/1 sequence length by subset enumeration (<= 12 facets).

    The search `exact_min_sequence` replaced: every facet subset whose
    vertex union, coded 1, leaves every vertex distinguishable (the rival
    rule), only the maximal ones, then a breadth-first minimum cover over
    facet masks.
    """
    facets = sorted(c.facets, key=sorted)
    m = len(facets)
    assert m <= 12, "the reference enumerates all 2^m facet subsets"
    feasible = []
    for mask in range(1, 1 << m):
        vids = frozenset().union(*(facets[i] for i in range(m) if mask & (1 << i)))
        enc = Encoding(dict.fromkeys(vids, 1))
        if all(is_vertex_distinguishable(c, v, enc) for v in vids):
            feasible.append(mask)
    feasible.sort(key=lambda t: -bin(t).count("1"))
    maximal = []
    for mask in feasible:
        if not any(mask | m2 == m2 for m2 in maximal):
            maximal.append(mask)
    full, frontier, length = (1 << m) - 1, {0}, 0
    while full not in frontier:
        frontier = {covered | mask for covered in frontier for mask in maximal}
        length += 1
    return length


def _assert_no_shorter_cover(c, length):
    """No partition of the facets into fewer than `length` rounds, each
    part coded 1 whole, passes verify_cover: on a reduction the rival rule
    of the exact search and verify_cover's decode rule agree."""
    facets = sorted(c.facets, key=sorted)
    for parts in product(range(length - 1), repeat=len(facets)):
        rounds = [[f for f, i in zip(facets, parts) if i == k] for k in set(parts)]
        seq = [Encoding(dict.fromkeys(chain(*r), 1)) for r in rounds]
        assert not verify_cover(c, seq), [list(map(sorted, r)) for r in rounds]


def _check_exact(c):
    """exact_min_sequence's length, after checking its sequence covers with 1s."""
    length, seq = exact_min_sequence(c)
    assert len(seq) == length
    assert verify_cover(c, seq)
    assert all({k for _, k in e.items()} == {1} for e in seq)
    return length


class TestInstance:
    def test_empty_subset_rejected(self):
        with pytest.raises(InvalidParameters):
            _inst({1, 2}, [set(), {1}])

    def test_stray_element_rejected(self):
        with pytest.raises(InvalidParameters):
            _inst({1}, [{1, 2}])

    def test_empty_universe_rejected(self):
        with pytest.raises(InvalidParameters):
            _inst(set(), [])

    def test_uncovered(self):
        assert _inst({1, 2, 3}, [{1}]).uncovered() == frozenset({2, 3})
        assert not _inst({1, 2}, [{1, 2}]).uncovered()


class TestOptimum:
    def test_frozen_answers(self):
        assert set_cover_optimum(_inst({1}, [{1}])) == 1
        assert set_cover_optimum(_inst({1, 2}, [{1}, {2}])) == 2
        assert set_cover_optimum(_inst({1, 2, 3}, [{1, 2}, {2, 3}, {3}])) == 2
        assert set_cover_optimum(_inst({1, 2, 3}, [{1, 2, 3}, {1}])) == 1

    def test_infeasible(self):
        assert set_cover_optimum(_inst({1, 2}, [{1}])) is None


class TestReduction:
    def test_singleton_instance(self):
        c = set_cover_reduce(_inst({1}, [{1}]))
        assert len(c.facets) == 1
        assert c.dimension == 1  # facet dimension = |U|

    def test_disjoint_pair_glues(self):
        c = set_cover_reduce(_inst({1, 2}, [{1}, {2}]))
        assert len(c.facets) == 2
        assert c.dimension == 2
        # the two facets share exactly one vertex
        a, b = sorted(c.facets, key=sorted)
        assert len(a & b) == 1

    def test_co_resident_pair_disjoint(self):
        c = set_cover_reduce(_inst({1, 2}, [{1, 2}]))
        a, b = sorted(c.facets, key=sorted)
        assert not (a & b)

    def test_fully_glued_triple(self):
        c = set_cover_reduce(_inst({1, 2, 3}, [{1}, {2}, {3}]))
        assert len(c.facets) == 3
        assert len(c.vertices) == 9  # 3 shared + 6 fillers

    def test_universe_cap(self):
        with pytest.raises(InvalidParameters):
            set_cover_reduce(_inst({1, 2, 3, 4}, [{1, 2, 3, 4}]))

    def test_explain_mentions_rule(self):
        text = explain_reduction(_inst({1, 2}, [{1}, {2}]))
        assert "glue" in text
        assert "(1, 2)" in text

    def test_explain_tie_break(self):
        text = explain_reduction(_inst({1, 2, 3}, [{1, 2}, {2, 3}, {1, 3}]))
        assert "tie-break" in text
        assert "glued pairs: [(1, 2)]" in text
        # (1, 2) shares no subset here, so it is glued by the rule itself
        text = explain_reduction(_inst({1, 2, 3}, [{1, 3}, {2, 3}]))
        assert "tie-break" not in text
        assert "glued pairs: [(1, 2)]" in text

    def test_explain_flags_infeasible(self):
        text = explain_reduction(_inst({1, 2}, [{1}]))
        assert "no set cover" in text


class TestExactMin:
    def test_triangle_one_round(self):
        length, seq = exact_min_sequence(gen_simplex(2))
        assert length == 1
        assert verify_cover(gen_simplex(2), seq)

    def test_empty_complex_refused(self):
        with pytest.raises(InvalidParameters, match="cannot cover an empty complex"):
            exact_min_sequence(ChromaticComplex({}, []))

    def test_glued_two_rounds(self):
        c = gen_glued(2)
        length, seq = exact_min_sequence(c)
        assert length == 2
        assert verify_cover(c, seq)

    def test_codes_are_binary(self):
        _, seq = exact_min_sequence(gen_glued(3))
        for e in seq:
            assert {k for _, k in e.items()} <= {1}

    def test_beyond_the_old_cap(self):
        # the subset search refused more than 12 vertices or 12 facets
        for c, expected in [
            (gen_path(11), 6),  # 13 vertices
            (protocol_complex(gen_simplex(2), IC, 1), 25),
            (iterate_subdivide(gen_simplex(3), 1), 75),
        ]:
            assert _check_exact(c) == expected
            assert len(split_to_budget(greedy_star(c)[0], c, 1)) == expected

    def test_resource_limit_certifies_bound(self):
        c = iterate_subdivide(gen_simplex(2), 2)
        with pytest.raises(ResourceLimit) as err:
            exact_min_sequence(c)
        bound = int(re.search(r"minimum ≥ (\d+)", str(err.value)).group(1))
        # at least the degree bound (6); at most the packed 1-bit length (51)
        packed = len(split_to_budget(greedy_star(c)[0], c, 1))
        assert lower_bound_rounds(c, 1) <= bound <= packed

    def test_matches_reference_on_random_complexes(self):
        compared = 0
        for seed in range(12):
            for n_colors in (2, 3, 4):
                for n_facets in (4, 8, 12):
                    c = gen_random(seed, n_colors, n_facets)
                    assert _check_exact(c) == _reference_min(c), (seed, n_colors, n_facets)
                    compared += 1
        assert compared == 108

    def test_greedy_never_beats_exact(self):
        # the exact search uses the bottom/1 family, so compare against
        # greedy output packed into the same one-value budget
        for seed in range(10):
            c = gen_random(seed, 3, 4)
            exact_len, _ = exact_min_sequence(c)
            seq, _ = greedy_star(c)
            greedy_len = len(split_to_budget(seq, c, 1))
            assert greedy_len >= exact_len


class TestReductionRecoversOptimum:
    def _sweep(self, u_size):
        universe = list(range(1, u_size + 1))
        pool = [
            frozenset(s)
            for k in range(1, u_size + 1)
            for s in combinations(universe, k)
        ]
        tested = 0
        for fam_size in range(1, len(pool) + 1):
            for fam in combinations(pool, fam_size):
                inst = _inst(universe, fam)
                opt = set_cover_optimum(inst)
                if opt is None:
                    continue  # no complex can witness "no cover exists"
                c = set_cover_reduce(inst)
                length = _check_exact(c)
                assert length == opt, (universe, sorted(map(sorted, fam)))
                assert length == _reference_min(c)
                _assert_no_shorter_cover(c, length)
                # the packed 1-bit sequence is one the exact search considers
                assert len(split_to_budget(greedy_star(c)[0], c, 1)) >= length
                tested += 1
        return tested

    def test_u1(self):
        assert self._sweep(1) == 1

    def test_u2(self):
        assert self._sweep(2) == 5

    def test_u3(self):
        assert self._sweep(3) == 109

    def test_tie_break_instance(self):
        # pairwise co-resident, no common triple: optimum 2, not 1
        inst = _inst({1, 2, 3}, [{1, 2}, {2, 3}, {1, 3}])
        assert set_cover_optimum(inst) == 2
        c = set_cover_reduce(inst)
        length, _ = exact_min_sequence(c)
        assert length == 2
        _assert_no_shorter_cover(c, length)
