"""
Acceptance suite: ten end-to-end criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.

Core claims:
    1.  One immediate-snapshot round on the 2-simplex is the chromatic
        subdivision, f-vector (12,24,13), exactly (==); the facets of the
        chromatic subdivision of the 2- and 3-simplex, each vertex read
        as a (color, view) state, are the 13 and 75 outcomes the schedule
        oracle finds by executing one IIS round; r IIS rounds are Ch^r
        (== and equal export bytes) at r = 3 on the 2-simplex and r = 2
        on the 3-simplex, and are isomorphic to a vid-shuffled copy of
        Ch^r, each decided in under 2 s, and at r = 4 on the 2-simplex
        (28,561 facets), decided in under 8 s
    2.  Strict facet-set hierarchy IIS < IAS < IC at three processes,
        with every level matching the schedule oracle
    3.  Closed-form view families equal the schedule oracle for every
        pattern at two and three processes, and for the snapshot patterns
        at four and five (gates the later criteria).
        The oracle walks register-level events for every pattern: IIS runs
        the IAS events (write, then snapshot) and keeps the immediate
        outcomes, where whoever saw q saw all q saw, so no pattern is
        checked against the construction of its own closed form
    4.  No-input-edges and intersection preservation hold on 50 seeded
        random inputs, all patterns
    5.  Headline: greedy cover + budget split + bounded simulation is
        isomorphic, and equal with the same export bytes, to the one-round
        full-information collect complex on 8 inputs x 3 register widths
    6.  The stock counterexample merges two views under the broken
        encoding and the repaired encoding restores isomorphism
    7.  Decoding a greedy cover reproduces the input complex, 50 seeds
    8.  Measured sequence lengths never fall below the degree lower bound
    9.  Reducing every set-cover instance with |U| <= 3 and solving the
        complex exactly recovers the brute-force set-cover optimum
    10. Subdivision degrees never exceed protocol degrees at original
        vertices (r in {1,2}), and max-degree growth ratios stay inside
        the soft [n!/4, 4n!] band (deviations reported, not failed)
"""

import time
from itertools import combinations

import pytest

from itermem import (
    IAS,
    IC,
    IIS,
    PATTERNS,
    SetCoverInstance,
    StateRegistry,
    bounded_protocol_complex,
    check_intersection_preserving,
    check_no_input_edges,
    exact_min_sequence,
    export_complex,
    gen_glued,
    gen_random,
    gen_simplex,
    greedy_star,
    is_isomorphic,
    iterate_subdivide,
    degree_growth_table,
    lower_bound_rounds,
    one_round,
    protocol_complex,
    round_views,
    schedule_oracle,
    set_cover_optimum,
    set_cover_reduce,
    split_to_budget,
    code_collision_counterexample,
    verify_cover,
)

from test_iso import _permuted

# criterion 3 is the gatekeeper: None = not yet run, False = failed
_ORACLE_OK: bool | None = None


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


def _require_oracle() -> None:
    if _ORACLE_OK is False:
        pytest.skip("blocked: closed forms disagree with the schedule oracle")


def _random_inputs(count: int = 50):
    """Seeded 3-color random complexes with at most 6 facets."""
    return [gen_random(seed, 3, 1 + seed % 6) for seed in range(count)]


def _headline_inputs():
    """The criterion-5 input set: edge, triangle, glued pair, 5 seeded."""
    return (
        [gen_simplex(1), gen_simplex(2), gen_glued(2)]
        + [gen_random(seed, 3, 4) for seed in range(5)]
    )


def test_criterion_01_subdivision_identity():
    t0 = time.perf_counter()
    xi = protocol_complex(gen_simplex(2), IIS, 1)
    ch = iterate_subdivide(gen_simplex(2), 1)
    fv = xi.f_vector()
    ok = xi == ch and fv == (12, 24, 13) == ch.f_vector() and len(xi.facets) == 13
    dt = time.perf_counter() - t0
    _verdict(1, ok, f"one IIS round == chromatic subdivision, f={fv} ({dt:.2f}s)")
    assert ok
    assert dt < 1.0


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_01_subdivision_equals_executions(n):
    t0 = time.perf_counter()
    base = gen_simplex(n)
    ch = iterate_subdivide(base, 1)

    def view(v):  # a base vid is its solo view; a new label is (color, vids)
        if v in base.vertices:
            return frozenset({v})
        return frozenset(ch.vertices[v].label[1])

    facets = frozenset(
        frozenset((ch.vertices[v].color, view(v)) for v in f) for f in ch.facets
    )
    executions = schedule_oracle(base, next(iter(base.facets)), IIS)
    ok = facets == executions and len(executions) == _ONE_ROUND_FACETS[n]
    dt = time.perf_counter() - t0
    _verdict(1, ok, f"Ch of the {n}-simplex == one IIS round's executions, "
                    f"{len(executions)} facets ({dt:.2f}s)")
    assert ok
    assert dt < 2.0


# seconds allowed for deciding each rung; Ch^4 of the 2-simplex takes 1-2 s
# on a 2-core box, so its bound leaves room for slower CI runners
_ITERATED_BOUND_S = {(2, 3): 2.0, (3, 2): 2.0, (2, 4): 8.0}
_ONE_ROUND_FACETS = {2: 13, 3: 75}


@pytest.mark.parametrize("n, r", list(_ITERATED_BOUND_S))
def test_criterion_01_iterated_identity(n, r):
    base = gen_simplex(n)
    ch, xi = iterate_subdivide(base, r), protocol_complex(base, IIS, r)
    same = ch == xi and export_complex(ch, "json") == export_complex(xi, "json")
    shuffled = _permuted(ch, r)
    t0 = time.perf_counter()
    iso, _ = is_isomorphic(xi, shuffled)
    dt = time.perf_counter() - t0
    ok = same and iso
    _verdict(1, ok, f"{r} IIS rounds == Ch^{r} of the {n}-simplex, ~= a shuffled "
                    f"copy, {len(ch.facets)} facets ({dt:.2f}s)")
    assert ok
    assert len(ch.facets) == _ONE_ROUND_FACETS[n] ** r
    assert dt < _ITERATED_BOUND_S[n, r]


def test_criterion_02_strict_hierarchy():
    t0 = time.perf_counter()
    c = gen_simplex(2)
    facet = next(iter(c.facets))
    # one shared registry puts all three complexes in a common vid space,
    # making the inclusions literal facet-set comparisons
    reg = StateRegistry(c)
    fsets = {p: one_round(c, p, reg).facets for p in PATTERNS}
    strict = fsets[IIS] < fsets[IAS] < fsets[IC]
    counts = tuple(len(fsets[p]) for p in (IIS, IAS, IC))
    oracle = all(
        round_views(c, facet, p) == schedule_oracle(c, facet, p) for p in PATTERNS
    )
    ok = strict and counts == (13, 19, 25) and oracle
    dt = time.perf_counter() - t0
    _verdict(2, ok, f"IIS < IAS < IC facet sets {counts}, oracle-validated ({dt:.2f}s)")
    assert ok
    assert dt < 10.0


def test_criterion_03_oracle_equivalence():
    global _ORACLE_OK
    t0 = time.perf_counter()
    mismatches = []
    cases = [(dim, p) for dim in (1, 2) for p in PATTERNS]
    cases += [(dim, p) for dim in (3, 4) for p in (IAS, IIS)]
    for dim, p in cases:
        c = gen_simplex(dim)
        facet = next(iter(c.facets))
        if round_views(c, facet, p) != schedule_oracle(c, facet, p):
            mismatches.append((dim + 1, p))
    ok = not mismatches
    _ORACLE_OK = ok
    dt = time.perf_counter() - t0
    detail = "closed forms == schedule oracle: all patterns, n in {2,3}; ias, iis, n in {4,5}"
    if mismatches:
        detail = f"mismatches at {mismatches}"
    _verdict(3, ok, f"{detail} ({dt:.2f}s)")
    assert ok, mismatches
    assert dt < 10.0


def test_criterion_04_structure_on_random_inputs():
    _require_oracle()
    t0 = time.perf_counter()
    bad = []
    for i, c in enumerate(_random_inputs()):
        for p in PATTERNS:
            if not check_no_input_edges(c, p):
                bad.append((i, p, "input edge survived"))
            if not check_intersection_preserving(c, p, trials=2, seed=i):
                bad.append((i, p, "intersection not preserved"))
    ok = not bad
    dt = time.perf_counter() - t0
    _verdict(4, ok, f"no-input-edges + intersection preservation, "
                    f"50 seeds x 3 patterns ({dt:.2f}s)")
    assert ok, bad
    assert dt < 60.0


def test_criterion_05_bounded_simulation_headline():
    _require_oracle()
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for i, c in enumerate(_headline_inputs()):
        fi = protocol_complex(c, IC, 1)
        seq, _ = greedy_star(c)
        for b in (1, 2, 3):
            subs = split_to_budget(seq, c, b)
            sim = bounded_protocol_complex(c, subs)
            iso, _ = is_isomorphic(sim, fi)
            same = sim == fi and (
                export_complex(sim, "json") == export_complex(fi, "json")
            )
            checked += 1
            if not (iso and same):
                bad.append((i, b, iso, same))
    ok = not bad
    dt = time.perf_counter() - t0
    _verdict(5, ok, f"bounded simulation == full-information collect, same "
                    f"export bytes, on {checked} input/width pairs ({dt:.2f}s)")
    assert ok, bad
    assert dt < 120.0


def test_criterion_06_counterexample():
    t0 = time.perf_counter()
    _, _, evidence = code_collision_counterexample()
    ok = (
        bool(evidence["merged_states"])
        and evidence["intersection_preserved"] is False
        and evidence["broken_isomorphic_to_full_information"] is False
        and evidence["repaired_isomorphic_to_full_information"] is True
    )
    dt = time.perf_counter() - t0
    _verdict(6, ok, f"{len(evidence['merged_states'])} merged states, repair "
                    f"restores isomorphism ({dt:.2f}s)")
    assert ok
    assert dt < 1.0


def test_criterion_07_cover_correctness():
    t0 = time.perf_counter()
    bad = [i for i, c in enumerate(_random_inputs())
           if not verify_cover(c, greedy_star(c)[0])]
    ok = not bad
    dt = time.perf_counter() - t0
    _verdict(7, ok, f"greedy cover decodes back to the input, 50 seeds ({dt:.2f}s)")
    assert ok, bad
    assert dt < 30.0


def test_criterion_08_bound_sandwich():
    t0 = time.perf_counter()
    lower_violations = []
    for i, c in enumerate(_headline_inputs()):
        seq, _ = greedy_star(c)
        for b in (1, 2, 3):
            measured = len(split_to_budget(seq, c, b))
            lo = lower_bound_rounds(c, b)
            if measured < lo:
                lower_violations.append((i, b, measured, lo))
    ok = not lower_violations
    dt = time.perf_counter() - t0
    _verdict(8, ok, f"lower <= measured length on 24 input/width pairs ({dt:.2f}s)")
    assert ok, lower_violations
    assert dt < 5.0


def test_criterion_09_reduction_recovers_optimum():
    t0 = time.perf_counter()
    tested = skipped = 0
    bad = []
    for u_size in (1, 2, 3):
        universe = list(range(1, u_size + 1))
        pool = [frozenset(s)
                for k in range(1, u_size + 1)
                for s in combinations(universe, k)]
        for fam_size in range(1, len(pool) + 1):
            for fam in combinations(pool, fam_size):
                inst = SetCoverInstance(frozenset(universe), frozenset(fam))
                opt = set_cover_optimum(inst)
                if opt is None:
                    skipped += 1  # no complex witnesses "no cover exists"
                    continue
                length, _ = exact_min_sequence(set_cover_reduce(inst))
                tested += 1
                if length != opt:
                    bad.append((universe, sorted(map(sorted, fam)), length, opt))
    ok = not bad and tested == 115
    dt = time.perf_counter() - t0
    _verdict(9, ok, f"reduction optimum == set-cover optimum on {tested} "
                    f"instances ({skipped} infeasible skipped) ({dt:.2f}s)")
    assert ok, bad
    assert dt < 60.0


def test_criterion_10_degree_domination_and_growth():
    _require_oracle()
    t0 = time.perf_counter()
    base = gen_simplex(2)
    bad = []
    for r in (1, 2):
        ch = iterate_subdivide(base, r)
        for p in PATTERNS:
            xi = protocol_complex(base, p, r)
            for v in base.vertices:  # input vids are kept by both constructions
                if ch.degree(v) > xi.degree(v):
                    bad.append((r, p, v, ch.degree(v), xi.degree(v)))
    band = (6 / 4, 4 * 6)  # n! for n = 3 processes
    deviations = [row for row in degree_growth_table(2, 3)
                  if not band[0] <= row.ratio <= band[1]]
    ok = not bad
    dt = time.perf_counter() - t0
    note = f", {len(deviations)} growth deviation(s)" if deviations else ""
    _verdict(10, ok, f"subdivision degree <= protocol degree at original "
                     f"vertices, r in {{1,2}}, all patterns{note} ({dt:.2f}s)")
    for row in deviations:
        print(f"    deviation: r={row.r} max degree {row.max_degree} "
              f"ratio {row.ratio:.2f} outside {band}")
    assert ok, bad
    assert dt < 60.0
