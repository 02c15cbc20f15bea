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
      verifies; codes are bottom/1; resource caps enforced
    - Full sweep |U| <= 3: reduction + exact search equals the optimum on
      every feasible instance
    - Greedy length >= exact length on seeded complexes and on every
      reduced instance of the sweep, whose exact sequences verify
"""

from itertools import combinations

import pytest

from itermem import (
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
    set_cover_optimum,
    set_cover_reduce,
    split_to_budget,
    verify_cover,
)


def _inst(universe, subsets):
    return SetCoverInstance(universe, subsets)


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

    def test_glued_two_rounds(self):
        c = gen_glued(2)
        length, seq = exact_min_sequence(c)
        assert length == 2
        assert verify_cover(c, seq)

    def test_codes_are_binary(self):
        _, seq = exact_min_sequence(gen_glued(3))
        for e in seq:
            assert {k for _, k in e.items()} <= {1}

    def test_resource_caps(self):
        with pytest.raises(ResourceLimit):
            exact_min_sequence(gen_path(11))  # 13 vertices

    def test_greedy_never_beats_exact(self):
        # the exact search uses the bottom/1 family, so compare against
        # greedy output packed into the same one-value budget
        for seed in range(10):
            c = gen_random(seed, 3, 4)
            if len(c.vertices) > 12 or len(c.facets) > 12:
                continue
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
                length, seq = exact_min_sequence(c)
                assert length == opt, (universe, sorted(map(sorted, fam)))
                assert verify_cover(c, seq)
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
        length, _ = exact_min_sequence(set_cover_reduce(inst))
        assert length == 2
