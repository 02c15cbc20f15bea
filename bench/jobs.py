"""Seeded inputs and the fixed job list of each workload.

A job goes from its generated input to a verdict and raises when the
verdict differs from the known answer in ``known``.  Jobs reach the
library only through ``ctx.tr.call(layer, fn, ...)`` so that a traced run
records one span per call into a module.  Pipelines are composed step by
step (greedy_star -> split_to_budget -> bounded_protocol_complex rather than
iterate_pipeline) so every layer gets its own span.

The structure of every input (which rungs, which random bases, which
set-cover instances, which bit budgets, which samples) is drawn from a
fixed stream, ``POOL_SEED``, so every seed runs the same shapes at the
same cost.  The seed gives each base its own vertex ids (see
``_spread_vids``), shuffles the partner of each brute-force iso pair, and
renames and reorders the set-cover elements and subsets.  Random bases of
one size differ in cost by up to 2x, so letting the seed pick them moved a
run's latency quantiles by 10-25% from seed to seed.
"""

from __future__ import annotations

import contextlib
import functools
import io as _io
import operator
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import itermem as im
from itermem import cli

import known
from known import expect, expected_facets
from spans import Tracer


@dataclass
class Ctx:
    tr: Tracer
    tmp: Path  # scratch directory for the CLI tour's files


@dataclass(frozen=True)
class Base:
    """An input complex with the known answers the jobs check against it."""

    name: str
    c: im.ChromaticComplex
    n_colors: int
    chi: int  # Euler characteristic, from known.euler_characteristic


@dataclass(frozen=True)
class Job:
    jid: str
    fn: Callable
    args: tuple = ()

    def run(self, ctx: Ctx) -> None:
        self.fn(ctx, self.jid, *self.args)


@dataclass
class Workload:
    jobs: list[Job]
    # known defects as (job, expected failure kind); run in the traced run only
    defects: list[tuple[Job, str]] = field(default_factory=list)


def _base(name: str, c: im.ChromaticComplex) -> Base:
    return Base(name, c, len(c.colors()), known.euler_characteristic(c.facets))


# Source of the inputs' structure; the seed only renames.
POOL_SEED = 250913157


def _random_complex(tr: Tracer, rng: random.Random, n_colors: int, n_facets: int):
    # gen_random may merge facets; redraw until the facet count is exact so
    # job sizes do not depend on the seed
    while True:
        c = tr.call("generators", im.gen_random, rng.randrange(2**31), n_colors, n_facets)
        if len(c.facets) == n_facets:
            return c


def _renamed(tr: Tracer, c, m: dict[int, int]):
    verts = {m[v]: im.Vertex(m[v], x.color, x.label) for v, x in c.vertices.items()}
    return tr.call("complexes", im.ChromaticComplex, verts, [frozenset(m[v] for v in f) for f in c.facets])


def _relabel(tr: Tracer, c, rng: random.Random):
    """The same complex with its vids shuffled: isomorphic by construction."""
    vids = sorted(c.vertices)
    new = vids[:]
    rng.shuffle(new)
    return _renamed(tr, c, dict(zip(vids, new)))


def _spread_vids(tr: Tracer, c, rng: random.Random):
    """The same complex on seeded vids that keep their order.

    The library breaks ties by vid order (greedy takes centres in sorted
    order), so a shuffle changes which cover it builds and moved single
    job costs by up to 2x.  With the order kept, vid values still change
    set iteration order and single jobs by up to 1.5x, but the quantiles
    of a job list stay within a few percent from seed to seed.
    """
    vids = sorted(c.vertices)
    new = sorted(rng.sample(range(4 * len(vids)), len(vids)))
    return _renamed(tr, c, dict(zip(vids, new)))


def make_bases(tr: Tracer, rng: random.Random, copies: int = 1) -> list[Base]:
    """The ladder's base family: D2, D3, glued, path, random on 3 and 4 colors.

    ``copies`` random bases are drawn from the pool per (colors, facets)
    size; ``rng`` renames every base's vids.
    """
    pool = random.Random(POOL_SEED)
    named = [
        ("D2", tr.call("generators", im.gen_simplex, 2)),
        ("D3", tr.call("generators", im.gen_simplex, 3)),
    ]
    named += [(f"glued{k}", tr.call("generators", im.gen_glued, k)) for k in (2, 3, 4)]
    named += [(f"path{m}", tr.call("generators", im.gen_path, m)) for m in (1, 2, 3)]
    for i in range(copies):
        named += [(f"rand3f{f}.{i}", _random_complex(tr, pool, 3, f)) for f in range(2, 7)]
        named += [(f"rand4f{f}.{i}", _random_complex(tr, pool, 4, f)) for f in range(1, 4)]
    return [_base(name, _spread_vids(tr, c, rng)) for name, c in named]


def _fixed_random_base(tr: Tracer, n_facets: int) -> Base:
    return _base(f"rand3f{n_facets}.fixed", tr.call("generators", im.gen_random, 0, 3, n_facets))


# -- shared steps -------------------------------------------------------------------


def _check_complex(ctx: Ctx, jid: str, b: Base, c, pattern: str, r: int, chi: bool) -> None:
    """Facet count F * k^r, and the base's Euler characteristic when asked."""
    want = expected_facets(pattern, b.n_colors, len(b.c.facets), r)
    expect(jid, "facets", want, len(c.facets))
    fv = ctx.tr.call("complexes", c.f_vector)
    ctx.tr.count("complexes.faces", sum(fv))
    if chi:
        got = sum((-1) ** i * k for i, k in enumerate(fv))
        expect(jid, "euler characteristic", b.chi, got)


def _round_trip(ctx: Ctx, jid: str, c) -> None:
    """JSON export -> import -> export keeps the facets and the bytes."""
    data = ctx.tr.call("io", im.export_complex, c, "json")
    back = ctx.tr.call("io", im.import_complex, data)
    again = ctx.tr.call("io", im.export_complex, back, "json")
    ctx.tr.count("io.bytes", len(data) + len(again))
    expect(jid, "imported facets equal", True, back.facets == c.facets)
    expect(jid, "re-exported bytes equal", True, data == again)


def _isomorphic(ctx: Ctx, a, b) -> bool:
    ctx.tr.count("iso.vertices_in", len(a.vertices) + len(b.vertices))
    ctx.tr.count("iso.attempts")
    ok, _ = ctx.tr.call("iso", im.is_isomorphic, a, b)
    ctx.tr.count("iso.decided")
    return ok


def _cover(ctx: Ctx, c, b: int):
    """greedy_star -> split_to_budget; returns (sequence, split sequence)."""
    seq, _trace = ctx.tr.call("greedy", im.greedy_star, c)
    split = ctx.tr.call("greedy", im.split_to_budget, seq, c, b)
    ctx.tr.count("greedy.rounds", len(seq))
    ctx.tr.count("greedy.split_rounds", len(split))
    return seq, split


def _cli(ctx: Ctx, jid: str, *argv: str) -> None:
    """Run one ``itermem`` command in-process and check its exit code."""
    sink = _io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = ctx.tr.call("cli", cli.main, list(argv))
    expect(jid, f"exit code of itermem {' '.join(argv[:2])}", known.EXIT_OK, code)


def _tour_dir(ctx: Ctx, jid: str) -> Path:
    d = ctx.tmp / jid.replace(":", "_")
    d.mkdir(parents=True, exist_ok=True)
    return d


def self_test(ctx: Ctx, jid: str) -> None:
    """A job whose known answer is deliberately wrong: must be flagged."""
    c = ctx.tr.call("subdivision", im.iterate_subdivide, im.gen_simplex(2), 1)
    expect(jid, "facets of Ch(D2), off by one on purpose", expected_facets("iis", 3, 1, 1) + 1, len(c.facets))


# -- construct: subdivide -> protocol -> verify ---------------------------------------


def _job_subdivide(ctx: Ctx, jid: str, b: Base, r: int) -> None:
    c = ctx.tr.call("subdivision", im.iterate_subdivide, b.c, r)
    ctx.tr.count("subdivision.facets_out", len(c.facets))
    _check_complex(ctx, jid, b, c, "iis", r, chi=True)
    _round_trip(ctx, jid, c)


def _job_protocol(ctx: Ctx, jid: str, b: Base, pattern: str, r: int) -> None:
    x = ctx.tr.call("protocols", im.protocol_complex, b.c, pattern, r)
    ctx.tr.count("protocols.facets_out", len(x.facets))
    _check_complex(ctx, jid, b, x, pattern, r, chi=pattern == "iis")


def _job_iso(ctx: Ctx, jid: str, b: Base, r: int) -> None:
    c = ctx.tr.call("subdivision", im.iterate_subdivide, b.c, r)
    x = ctx.tr.call("protocols", im.protocol_complex, b.c, "iis", r)
    ctx.tr.count("subdivision.facets_out", len(c.facets))
    ctx.tr.count("protocols.facets_out", len(x.facets))
    expect(jid, "Ch^r isomorphic to IIS^r", True, _isomorphic(ctx, c, x))


def _job_meet(ctx: Ctx, jid: str, b: Base, pattern: str, seed: int) -> None:
    ok = ctx.tr.call("protocols", im.check_intersection_preserving, b.c, pattern, 2, seed)
    expect(jid, "protocol of intersection = intersection of protocols", True, ok)
    v = min(b.c.vertices)
    star = ctx.tr.call("complexes", b.c.star, [v])
    want = frozenset(f for f in b.c.facets if v in f)
    expect(jid, "star facets", want, star.facets)


def _job_tour_construct(ctx: Ctx, jid: str, n: int, fvector: str) -> None:
    d = _tour_dir(ctx, jid)
    tri, ch, xi, fv = (str(d / f) for f in ("tri.json", "ch.json", "xi.json", "fv.csv"))
    _cli(ctx, jid, "gen", "simplex", "--n", str(n), "--out", tri)
    _cli(ctx, jid, "subdivide", "--in", tri, "--rounds", "1", "--out", ch)
    _cli(ctx, jid, "protocol", "--in", tri, "--pattern", "iis", "--rounds", "1", "--out", xi)
    _cli(ctx, jid, "verify", "--a", ch, "--b", xi)
    _cli(ctx, jid, "export", "--in", ch, "--format", "csv-fvector", "--out", fv)
    expect(jid, "exported f-vector", fvector, Path(fv).read_text())


def construct(tr: Tracer, rng: random.Random) -> Workload:
    """Builds large complexes and queries them; greedy/encoding/simulator idle."""
    jobs: list[Job] = []
    bases = make_bases(tr, rng)
    pool = random.Random(POOL_SEED)
    for b in bases:
        if b.name == "D2":
            rounds = (1, 2, 3)
        elif b.n_colors == 3 or b.name == "D3":
            rounds = (1, 2)
        else:
            rounds = (1,)
        for r in rounds:
            jobs.append(Job(f"ch:{b.name}:r{r}", _job_subdivide, (b, r)))
            jobs.append(Job(f"iis:{b.name}:r{r}", _job_protocol, (b, "iis", r)))
        for pattern in ("ias", "ic"):
            for r in (1, 2) if b.name == "D2" else (1,):
                jobs.append(Job(f"{pattern}:{b.name}:r{r}", _job_protocol, (b, pattern, r)))
        # Ch^r ~ IIS^r only on the small rungs: larger ones hit the iso defects
        for r in (1, 2) if b.name in ("D2", "path1") else (1,):
            jobs.append(Job(f"iso:{b.name}:r{r}", _job_iso, (b, r)))
        if b.n_colors == 3:
            for pattern in im.PATTERNS:
                seed = pool.randrange(2**31)
                jobs.append(Job(f"meet:{b.name}:{pattern}", _job_meet, (b, pattern, seed)))
    jobs.append(Job("tour:simplex-n2", _job_tour_construct, (2, known.TOUR_CH_D2_FVECTOR)))
    jobs.append(Job("tour:simplex-n3", _job_tour_construct, (3, known.TOUR_CH_D3_FVECTOR)))

    # Fixed inputs (not the seed) keep failed_share identical on every run.
    # Timeouts run > 60 s without the limit; the RecursionError comes < 3 s in.
    d2 = _base("D2", tr.call("generators", im.gen_simplex, 2))
    d3 = _base("D3", tr.call("generators", im.gen_simplex, 3))
    defects = [
        (Job("defect:iso:D2:r3", _job_iso, (d2, 3)), "timeout"),
        (Job("defect:iso:D3:r2", _job_iso, (d3, 2)), "RecursionError"),
    ]
    for f in (4, 6):
        b = _fixed_random_base(tr, f)
        defects.append((Job(f"defect:iso:{b.name}:r2", _job_iso, (b, 2)), "timeout"))
    return Workload(jobs, defects)


# -- compile: greedy-star -> split -> verify -------------------------------------------


def _job_compile(ctx: Ctx, jid: str, b: Base, r: int, c, bits: int) -> None:
    tr = ctx.tr
    seq, split = _cover(ctx, c, bits)
    expect(jid, "sequence covers", True, tr.call("greedy", im.verify_cover, c, seq))
    expect(jid, "split covers", True, tr.call("greedy", im.verify_cover, c, split))
    tr.count("encoding.vertices_checked", len(c.vertices) * (len(seq) + len(split)))
    lb = tr.call("encoding", im.lower_bound_rounds, c, bits)
    expect(jid, "lower bound <= split rounds", True, lb <= len(split))
    tr.count("greedy.over_lower_bound", len(split) / lb)
    tr.count("greedy.jobs")
    rep = tr.call("bounds", im.bounds_table, b.n_colors, r, bits, c=c, measured_rounds=len(split))
    expect(jid, "degree lower bound", lb, rep.degree_lower)
    expect(jid, "formula lower bound", known.formula_lower_bound(b.n_colors, r, bits), rep.lower_formula)


def compile_(tr: Tracer, rng: random.Random) -> Workload:
    """Encoding and greedy do the work on Ch^r inputs built in set-up.

    Ch^3 of D2 (split 2-5 s, verify 2-3 s per job) and Ch^2 of D3 (verify
    about 4 s) would take most of a pass and sit too near the job limit;
    verify_cover on Ch^3 D2 is timed as a ROADMAP baseline row instead.
    """
    jobs: list[Job] = []
    second_round = ("D2", "glued2", "path1", "path2")
    for b in make_bases(tr, rng, copies=3):
        for r in (1, 2) if b.name in second_round else (1,):
            c = tr.call("subdivision", im.iterate_subdivide, b.c, r)
            tr.count("subdivision.facets_out", len(c.facets))
            for bits in (1, 2, 3):
                jobs.append(Job(f"cover:{b.name}:r{r}:b{bits}", _job_compile, (b, r, c, bits)))
    return Workload(jobs)


# -- simulate: greedy-star -> split -> simulate -> verify against ic ---------------------


def _job_simulate(ctx: Ctx, jid: str, b: Base, r: int, bits: int) -> None:
    tr = ctx.tr
    cur = b.c
    for _ in range(r):
        _seq, split = _cover(ctx, cur, bits)
        tr.count("simulator.bounded_rounds", len(split))
        cur = tr.call("simulator", im.bounded_protocol_complex, cur, split)
        tr.count("simulator.facets_out", len(cur.facets))
    expect(jid, "facets", expected_facets("ic", b.n_colors, len(b.c.facets), r), len(cur.facets))
    ref = tr.call("protocols", im.protocol_complex, b.c, "ic", r)
    expect(jid, "bounded simulation isomorphic to ic", True, _isomorphic(ctx, cur, ref))


def _job_tour_simulate(ctx: Ctx, jid: str) -> None:
    d = _tour_dir(ctx, jid)
    glued, enc, trace = (str(d / f) for f in ("glued.json", "enc.json", "trace.json"))
    _cli(ctx, jid, "gen", "glued", "--k", "2", "--out", glued)
    _cli(ctx, jid, "greedy-star", "--in", glued, "--bits", "1", "--out", enc, "--trace", trace)
    _cli(ctx, jid, "simulate", "--in", glued, "--encodings", enc, "--verify-against", "ic")
    _cli(ctx, jid, "verify", "--in", glued, "--encodings", enc)


def simulate(tr: Tracer, rng: random.Random) -> Workload:
    """The simulator does the r = 2 work; r = 1 jobs are per-encoding set-up."""
    jobs: list[Job] = []
    bases = [b for b in make_bases(tr, rng, copies=0) if b.n_colors == 3]
    pool = random.Random(POOL_SEED)
    bases += [
        _base(f"rand3f{f}.{i}", _spread_vids(tr, _random_complex(tr, pool, 3, f), rng))
        for i in range(15)
        for f in (2, 3, 4)
    ]
    for b in bases:
        for bits in (1, 2, 3):
            jobs.append(Job(f"sim:{b.name}:r1:b{bits}", _job_simulate, (b, 1, bits)))
    by_name = {b.name: b for b in bases}
    for name, bits in (("D2", 1), ("D2", 3), ("path1", 3), ("glued2", 2)):
        jobs.append(Job(f"sim:{name}:r2:b{bits}", _job_simulate, (by_name[name], 2, bits)))
    jobs.append(Job("tour:glued-simulate", _job_tour_simulate))

    d3 = _base("D3", tr.call("generators", im.gen_simplex, 3))
    defects = [(Job("defect:sim:D3:r1:b2", _job_simulate, (d3, 1, 2)), "ResourceLimit")]
    return Workload(jobs, defects)


# -- oracle: exhaustive cross-checks on small inputs -----------------------------------


def _job_schedule(ctx: Ctx, jid: str, b: Base, facet, pattern: str) -> None:
    tr = ctx.tr
    views = tr.call("protocols", im.schedule_oracle, b.c, facet, pattern)
    tr.count("protocols.oracle_views", len(views))
    closed = tr.call("protocols", im.round_views, b.c, facet, pattern)
    expect(jid, "oracle views", known.ROUND_FACETS[(pattern, b.n_colors)], len(views))
    expect(jid, "oracle = closed form", True, views == closed)


def _job_raw(ctx: Ctx, jid: str, b: Base, facet, pattern: str, sample, seed: int) -> None:
    tr = ctx.tr
    views = tr.call("protocols", im.raw_interleaving_views, b.c, facet, pattern, sample, seed)
    tr.count("protocols.oracle_views", len(views))
    closed = tr.call("protocols", im.round_views, b.c, facet, pattern)
    if sample is None:
        expect(jid, "raw interleavings = closed form", True, views == closed)
    else:
        expect(jid, "sampled interleavings within closed form", True, bool(views) and views <= closed)


def _job_brute_iso(ctx: Ctx, jid: str, a, b, answer: bool) -> None:
    expect(jid, "is_isomorphic", answer, _isomorphic(ctx, a, b))
    ok, _ = ctx.tr.call("iso", im.brute_force_isomorphic, a, b)
    expect(jid, "brute_force_isomorphic", answer, ok)


def _job_setcover(ctx: Ctx, jid: str, universe, subsets) -> None:
    tr = ctx.tr
    inst = tr.call("setcover", im.SetCoverInstance, universe, subsets)
    c = tr.call("setcover", im.set_cover_reduce, inst)
    length, _seq = tr.call("setcover", im.exact_min_sequence, c)
    tr.count("setcover.instances")
    expect(jid, "minimum rounds = cover optimum", known.set_cover_optimum(universe, subsets), length)
    tr.count("setcover.exact_matches")


def _drop_facet(tr: Tracer, c):
    """One facet fewer: not isomorphic, since the facet count differs."""
    facets = sorted(c.facets, key=sorted)[1:]
    return tr.call("complexes", im.ChromaticComplex, c.vertices, facets)


def _small_complex(tr: Tracer, pool: random.Random, rng: random.Random):
    """A random 3-color complex with 2-3 facets and at most 8 vertices."""
    while True:
        c = _random_complex(tr, pool, 3, pool.choice((2, 3)))
        if len(c.vertices) <= 8:
            return _spread_vids(tr, c, rng)


def oracle(tr: Tracer, rng: random.Random) -> Workload:
    """Protocol oracles, brute-force iso and set cover; no big complexes."""
    jobs: list[Job] = []
    bases = make_bases(tr, rng)
    pool = random.Random(POOL_SEED)
    for b in bases:
        patterns = im.PATTERNS if b.n_colors == 3 else ("ias", "iis")
        for i, f in enumerate(sorted(b.c.facets, key=sorted)):
            for pattern in patterns:
                jobs.append(Job(f"sched:{b.name}.{i}:{pattern}", _job_schedule, (b, f, pattern)))
        facet = min(b.c.facets, key=sorted)
        jobs.append(Job(f"raw:{b.name}:ias", _job_raw, (b, facet, "ias", None, 0)))
        if b.n_colors == 3:
            seed = pool.randrange(2**31)
            jobs.append(Job(f"raw:{b.name}:ic-sampled", _job_raw, (b, facet, "ic", 64, seed)))
    for i in range(25):
        a = _small_complex(tr, pool, rng)
        jobs.append(Job(f"brute-iso:{i}:relabelled", _job_brute_iso, (a, _relabel(tr, a, rng), True)))
        jobs.append(Job(f"brute-iso:{i}:facet-dropped", _job_brute_iso, (a, _drop_facet(tr, a), False)))
    elements = (1, 2, 3)
    nonempty = list(range(1, 8))  # bitmasks of nonempty subsets
    for i in range(18):
        while True:
            masks = pool.sample(nonempty, pool.randint(1, 4))
            if functools.reduce(operator.or_, masks) == 7:
                break
        # the seed renames the elements and orders the subsets
        names = rng.sample(elements, len(elements))
        rng.shuffle(masks)
        subsets = [frozenset(e for k, e in enumerate(names) if m >> k & 1) for m in masks]
        jobs.append(Job(f"setcover:{i}", _job_setcover, (elements, subsets)))
    return Workload(jobs)


WORKLOADS = {
    "construct": construct,
    "compile": compile_,
    "simulate": simulate,
    "oracle": oracle,
}


# -- ROADMAP baseline rows --------------------------------------------------------------


def baselines() -> dict[str, Callable[[], bool]]:
    """The operations ROADMAP quotes times for, keyed by metric name.

    Each thunk runs one operation and says whether its output is right;
    inputs a row does not time are built here.
    """
    d2 = im.gen_simplex(2)
    d3 = im.gen_simplex(3)
    ch3 = im.iterate_subdivide(d2, 3)
    seq, _ = im.greedy_star(ch3)
    iis = known.ROUND_FACETS[("iis", 3)], known.ROUND_FACETS[("iis", 4)]
    return {
        "baseline.iterate_subdivide_D2_r3_s": lambda: len(im.iterate_subdivide(d2, 3).facets) == iis[0] ** 3,
        "baseline.iterate_subdivide_D3_r2_s": lambda: len(im.iterate_subdivide(d3, 2).facets) == iis[1] ** 2,
        "baseline.protocol_complex_D3_iis_r2_s": lambda: len(im.protocol_complex(d3, "iis", 2).facets) == iis[1] ** 2,
        "baseline.verify_cover_Ch3D2_s": lambda: im.verify_cover(ch3, seq),
        "baseline.iterate_pipeline_D2_r2_b1_s": lambda: len(im.iterate_pipeline(d2, 2, 1)[0].facets)
        == known.ROUND_FACETS[("ic", 3)] ** 2,
    }
