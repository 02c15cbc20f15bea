"""Claim-check benchmark for itermem.

    python3 bench/run.py --workload construct --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload is a fixed, seeded list of claim-check jobs, run in a closed
loop by one client: the next job starts when the previous one has reached
its verdict, and every verdict is checked against ``known``.  A run repeats
the whole list in passes, at least two, and starts no pass that would end
after ``--seconds``.  With ``--trace 0`` it prints:

  jobs_per_s   jobs run / time spent in them, over every pass
  job_p50_ms   median over the job list of each job's median latency
               across the passes
  job_p90_ms   90th percentile of the same (>= 100 jobs, so >= 10 beyond)
  peak_rss_mb  peak resident memory of the workload's own process
  setup_s      process start -> first job (interpreter start, import,
               input generation, warm-up), median of five fresh processes

The job times and set-up time are scaled to a reference host speed by a
yardstick timed between jobs and right after set-up (see "host speed"
below), hence the units jobs/ref_s and ref_ms; set-up keeps the unit s.
The raw wall-clock figures are printed beside them.  Every job
time of a run is written to ``.bench_out/latency-<workload>-seed<n>.json``.

``--trace 1`` is a separate run: one untraced and one traced pass, per-layer
spans and counts, the ROADMAP baseline rows and the known-defect jobs.  The
known defects run only here, so every measured run is free of failing jobs;
``failed_share`` counts them, with ``failures.<kind>`` per exception type,
and ``failed`` in the last line counts only failures nobody expected.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Jobs run in child processes started from this file with the standard
library only; ``itermem`` is imported from ``src`` of the checkout.
Nothing in this library waits on a queue or a lock, so time waiting is not
applicable and is not reported.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from known import WrongVerdict

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"

# Fixed per-job limit.  Measured jobs finish in under 3 s on a 2-core x86
# box; the known-defect timeouts run past 60 s without a limit.  tracemalloc
# slows jobs up to about 8x, so the traced pass gets its own limit.
JOB_LIMIT_S = 8.0
TRACED_JOB_LIMIT_S = 60.0
SETUP_SAMPLES = 5
FAILURE_KINDS = ("timeout", "RecursionError", "ResourceLimit", "wrong_verdict")
WORKLOAD_NAMES = ("construct", "compile", "simulate", "oracle")


# -- host speed -------------------------------------------------------------------------
#
# The host shares its cores with other tenants, and its speed drifts by up to
# +-30% over tens of seconds; process CPU time drifts with it, so neither clock
# alone gives figures that repeat from run to run.  A fixed pure-Python
# yardstick, timed between jobs, drifts the same way.  Each job time is scaled
# by the median of the yardstick times nearest it, to what it would be on a
# host that runs the yardstick in YARDSTICK_MS.  The yardstick does no
# itermem work, so a change to the library moves the scaled figures as it
# moves the raw ones; the raw wall-clock figures are reported beside them.

YARDSTICK_MS = 0.5  # about its median on a quiet 2-core x86 host
YARDSTICK_EVERY_S = 0.01  # job time between two yardstick runs
YARDSTICK_NEAR = 31  # yardstick runs whose median scales one job
# Set-up time is scaled by a burst of yardstick runs right after set-up; run
# back to back, with warm caches, the yardstick takes about YARDSTICK_BURST_MS.
YARDSTICK_BURST = 40
YARDSTICK_BURST_MS = 0.4


def _yardstick() -> int:
    """Work of the library's kind: frozensets of vids, a dict index, a sort."""
    faces = [frozenset((i, i + 1 + j % 3, i + 2 + j % 5)) for i in range(40) for j in range(5)]
    index: dict[int, set] = {}
    for f in faces:
        for v in f:
            index.setdefault(v, set()).add(f)
    return sum(len(s) for s in index.values()) + len(sorted(faces, key=sorted))


def _yardstick_burst() -> float:
    """Median yardstick time in ms over a short burst."""
    times = []
    for _ in range(YARDSTICK_BURST):
        t0 = time.perf_counter()
        _yardstick()
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


class Yardstick:
    """Yardstick times through a run, and the scale they give each job."""

    def __init__(self):
        self.at: list[float] = []  # midpoints, perf_counter seconds
        self.ms: list[float] = []
        self._last = 0.0

    def between_jobs(self) -> None:
        now = time.perf_counter()
        if now - self._last < YARDSTICK_EVERY_S:
            return
        _yardstick()
        end = time.perf_counter()
        self.at.append((now + end) / 2)
        self.ms.append((end - now) * 1000)
        self._last = end

    def scale(self, t: float) -> float:
        """Factor that takes a time measured around ``t`` to reference speed."""
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - YARDSTICK_NEAR // 2, len(self.at) - YARDSTICK_NEAR))
        return YARDSTICK_MS / statistics.median(self.ms[lo : lo + YARDSTICK_NEAR])


class JobTimeout(Exception):
    """A job ran past its time limit."""


def _on_alarm(signum, frame):
    raise JobTimeout("job exceeded its time limit")


# -- child process: set-up, then measure ------------------------------------------------


class Runner:
    """Runs jobs under the time limit and classifies each outcome."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []  # (job id, kind, detail)

    def run(self, job, limit: float = JOB_LIMIT_S) -> tuple[float, str | None, str]:
        """Run one job; return (seconds, failure kind or None, detail)."""
        self.attempted += 1
        kind, detail = None, ""
        signal.setitimer(signal.ITIMER_REAL, limit)
        t0 = time.perf_counter()
        try:
            with self.ctx.tr.job(job.jid):
                job.run(self.ctx)
        except JobTimeout:
            kind, detail = "timeout", f"no verdict within {limit} s"
        except WrongVerdict as exc:
            kind, detail = "wrong_verdict", str(exc)
        except RecursionError as exc:
            kind, detail = "RecursionError", str(exc)
        except Exception as exc:  # every other failure is recorded by type
            kind = type(exc).__name__
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - t0, kind, detail

    def run_pass(self, jobs, limit: float = JOB_LIMIT_S, yard: Yardstick | None = None):
        """Run every job once; return (wall seconds, per-job (start, seconds))."""
        gc.collect()
        lat = []
        t0 = time.perf_counter()
        for job in jobs:
            start = time.perf_counter()
            dt, kind, detail = self.run(job, limit)
            lat.append((start, dt))
            if kind is not None:
                self.fail(job.jid, kind, detail)
            if yard is not None:
                yard.between_jobs()
        return time.perf_counter() - t0, lat

    def fail(self, jid, kind, detail):
        self.failures.append((jid, kind, detail))
        print(f"FAILED {jid} [{kind}] {detail}", file=sys.stderr)


def _import_itermem():
    sys.path.insert(0, str(SRC))
    import itermem

    # a stray installed copy must not stand in for the checkout's source
    if Path(itermem.__file__).resolve().parent != SRC / "itermem":
        raise SystemExit(f"itermem imported from {itermem.__file__}, not {SRC}")


def child(args) -> int:
    _import_itermem()
    import random

    import jobs as J
    from spans import Tracer

    tracing = bool(args.trace)
    tr = Tracer(enabled=tracing)
    tmp = TMP / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        ctx = J.Ctx(tr, tmp)
        with tr.job("setup"):
            wl = J.WORKLOADS[args.workload](tr, random.Random(args.seed))
        runner = Runner(ctx)
        signal.signal(signal.SIGALRM, _on_alarm)
        warm = {}
        for job in wl.jobs:  # warm-up: the first job of each kind
            warm.setdefault(job.jid.split(":", 1)[0], job)
        tr.enabled = False
        runner.run_pass(list(warm.values()))
        if runner.failures:
            raise SystemExit("warm-up failed")
        _dt, kind, _detail = runner.run(J.Job("self-test", J.self_test))
        if kind != "wrong_verdict":
            raise SystemExit("self-test: a wrong known answer was not flagged")
        tr.enabled = tracing
        runner.attempted = 0
        # The job list holds every job's inputs at once, which no single
        # caller would; frozen, they stay out of the collector's scans, which
        # otherwise took a third of simulate's job time and varied with the
        # point where a collection fell.
        gc.collect()
        gc.freeze()
        print("READY", flush=True)
        print(_yardstick_burst(), flush=True)
        if args.role == "setup":
            return 0
        result = _traced(args, wl, runner, J) if tracing else _measured(args, wl, runner)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            TMP.rmdir()
    print(json.dumps(result), flush=True)
    return 0


def _measured(args, wl, runner) -> dict:
    walls, lat = [], []
    yard = Yardstick()
    t0 = time.perf_counter()
    # whole passes only, and none that would end past --seconds (two at least)
    while len(walls) < 2 or time.perf_counter() - t0 + statistics.median(walls) <= args.seconds:
        wall, samples = runner.run_pass(wl.jobs, yard=yard)
        walls.append(wall)
        lat.extend(samples)
    n = len(wl.jobs)
    raw_ms = [dt * 1000 for _start, dt in lat]
    ref_ms = [dt * 1000 * yard.scale(start + dt / 2) for start, dt in lat]
    # every sample, job by job, for reading a run's spread afterwards
    OUT.mkdir(exist_ok=True)
    lat_file = OUT / f"latency-{args.workload}-seed{args.seed}.json"
    lat_file.write_text(json.dumps({
        "passes_s": walls,
        "raw_ms": {job.jid: raw_ms[i::n] for i, job in enumerate(wl.jobs)},
        "ref_ms": {job.jid: ref_ms[i::n] for i, job in enumerate(wl.jobs)},
        "yardstick_ms": yard.ms,
    }))
    # one latency per job: quantiles of the pooled samples jumped between
    # neighbouring jobs and spread twice as far from run to run on construct
    per_job = [statistics.median(ref_ms[i::n]) for i in range(n)]
    raw_per_job = [statistics.median(raw_ms[i::n]) for i in range(n)]
    metrics = {
        "jobs_per_s": 1000 * len(ref_ms) / sum(ref_ms),
        "job_p50_ms": statistics.median(per_job),
        "job_p90_ms": statistics.quantiles(per_job, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "jobs": len(wl.jobs),
        "passes": len(walls),
        "samples": len(lat),
        "host speed (yardstick reference / median)": YARDSTICK_MS / statistics.median(yard.ms),
        "raw jobs_per_s (wall clock)": 1000 * len(raw_ms) / sum(raw_ms),
        "raw job_p50_ms (wall clock)": statistics.median(raw_per_job),
        "raw job_p90_ms (wall clock)": statistics.quantiles(raw_per_job, n=10)[-1],
        "latencies": str(lat_file.relative_to(ROOT)),
        "failures": [f"{jid} [{kind}] {detail[:200]}" for jid, kind, detail in runner.failures],
    }
    return _result(runner, len(runner.failures), metrics, info)


def _traced(args, wl, runner, J) -> dict:
    import tracemalloc

    tr = runner.ctx.tr
    metrics: dict[str, float] = {}
    tr.enabled = False
    for name, thunk in J.baselines().items():  # ROADMAP rows: median of three
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            right = thunk()
            times.append(time.perf_counter() - t0)
            if not right:
                runner.fail(name, "wrong_verdict", "output differs from the known answer")
        metrics[name] = statistics.median(times)
    wall, _ = runner.run_pass(wl.jobs)
    untraced_rate = len(wl.jobs) / wall
    untraced_failures = len(runner.failures)

    tracemalloc.start()
    tr.enabled = True
    wall, _ = runner.run_pass(wl.jobs, TRACED_JOB_LIMIT_S)
    traced_rate = len(wl.jobs) / wall
    tracemalloc.stop()
    failed = runner.failures[untraced_failures:]
    unexpected = len(runner.failures)
    # defect jobs keep their spans and counts but run at untraced speed, so
    # the regular limit applies to them
    for job, expected_kind in wl.defects:
        _dt, kind, detail = runner.run(job)
        if kind == expected_kind:
            failed.append((job.jid, kind, detail))
            print(f"KNOWN DEFECT {job.jid} [{kind}] {detail[:200]}", file=sys.stderr)
        elif kind is None:
            print(f"DEFECT GONE {job.jid}: expected {expected_kind}, got the right verdict",
                  file=sys.stderr)
        else:
            unexpected += 1
            runner.fail(job.jid, kind, f"expected {expected_kind}: {detail}")
            failed.append((job.jid, kind, detail))
    tr.enabled = False

    metrics.update(_layer_metrics(tr))
    metrics["trace.jobs_per_s_untraced"] = untraced_rate
    metrics["trace.jobs_per_s_traced"] = traced_rate
    metrics["trace.overhead_jobs_per_s"] = traced_rate - untraced_rate
    # the traced pass plus the defect jobs: every job attempted once
    kinds = [kind for _jid, kind, _detail in failed]
    metrics["failed_share"] = len(kinds) / (len(wl.jobs) + len(wl.defects))
    for kind in FAILURE_KINDS:
        metrics[f"failures.{kind}"] = kinds.count(kind)
    metrics["failures.other"] = sum(k not in FAILURE_KINDS for k in kinds)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps(tr.dump()))
    info = {
        "jobs": len(wl.jobs),
        "defect_jobs": len(wl.defects),
        "spans": str(spans_file.relative_to(ROOT)),
        "failures": [f"{jid} [{kind}] {detail[:200]}" for jid, kind, detail in failed],
    }
    return _result(runner, unexpected, metrics, info)


def _layer_metrics(tr) -> dict[str, float]:
    m: dict[str, float] = {}
    for layer, row in tr.layer_totals().items():
        for key, value in row.items():
            m[f"{layer}.{key}"] = value
    c = tr.counts
    per_s = lambda count, busy: count / busy if busy else 0.0  # noqa: E731
    m["complexes.faces"] = c["complexes.faces"]
    m["io.bytes"] = c["io.bytes"]
    m["subdivision.facets_out"] = c["subdivision.facets_out"]
    m["subdivision.facets_per_s"] = per_s(c["subdivision.facets_out"], m["subdivision.busy_s"])
    closed = tr.busy("protocols.protocol_complex")
    m["protocols.facets_out"] = c["protocols.facets_out"]
    m["protocols.facets_per_s"] = per_s(c["protocols.facets_out"], closed)
    m["protocols.oracle_s"] = tr.busy("protocols.schedule_oracle") + tr.busy("protocols.raw_interleaving_views")
    m["protocols.oracle_views"] = c["protocols.oracle_views"]
    m["iso.vertices_in"] = c["iso.vertices_in"]
    m["iso.decided_share"] = c["iso.decided"] / c["iso.attempts"] if c["iso.attempts"] else 0.0
    m["encoding.vertices_checked"] = c["encoding.vertices_checked"]
    m["greedy.star_s"] = tr.busy("greedy.greedy_star")
    m["greedy.split_s"] = tr.busy("greedy.split_to_budget")
    m["greedy.verify_s"] = tr.busy("greedy.verify_cover")
    m["greedy.rounds"] = c["greedy.rounds"]
    m["greedy.split_rounds"] = c["greedy.split_rounds"]
    m["greedy.rounds_over_lower_bound"] = (
        c["greedy.over_lower_bound"] / c["greedy.jobs"] if c["greedy.jobs"] else 0.0
    )
    m["simulator.bounded_rounds"] = c["simulator.bounded_rounds"]
    m["simulator.facets_out"] = c["simulator.facets_out"]
    m["simulator.facets_per_s"] = per_s(c["simulator.facets_out"], m["simulator.busy_s"])
    m["setcover.instances"] = c["setcover.instances"]
    m["setcover.exact_match_share"] = (
        c["setcover.exact_matches"] / c["setcover.instances"] if c["setcover.instances"] else 0.0
    )
    return m


def _result(runner, failed: int, metrics: dict, info: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


# -- parent process: fresh children, set-up samples, report ------------------------------


def _spawn(args, role: str) -> tuple[float, float, dict | None]:
    """Start a child; return (seconds to READY, the same at reference speed,
    its result or None)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # fixed hash seed: counts must repeat exactly across runs
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        yard_ms = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise SystemExit(f"{role} process for {args.workload} failed (exit {code})")
    lines = rest.strip().splitlines()
    scaled = ready * YARDSTICK_BURST_MS / float(yard_ms)
    return ready, scaled, (json.loads(lines[-1]) if role == "measure" else None)


def run_workload(args) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_spawn(args, "setup")[:2])
    *ready, result = _spawn(args, "measure")
    setups.append(ready)
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(scaled for _raw, scaled in setups)
        result["info"]["raw setup_s (wall clock)"] = statistics.median(raw for raw, _scaled in setups)
    return result


def _spec() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per kind of run, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _report(workload: str, args, result: dict, units: dict[str, str]) -> None:
    info = result["info"]
    mode = "traced" if args.trace else "untraced"
    print(f"== {workload} (seed {args.seed}, {mode}): closed loop, one client, one thread")
    for key, value in info.items():
        if isinstance(value, list):
            for item in value:
                print(f"  {key}: {item}")
        else:
            print(f"  {key}: {value}")
    for name, unit in units.items():
        note = f"  ({info['jobs']} jobs x {info['passes']} passes)" if name.startswith("job_p") else ""
        value = result["metrics"][name]
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:36s} {shown} {unit}{note}")
    if not args.trace:
        print("  time waiting: not applicable (nothing queues or locks in this library)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.role:
        return child(args)
    if not (SRC / "itermem" / "__init__.py").is_file():
        print(f"error: no itermem source under {SRC}", file=sys.stderr)
        return 2
    units = _spec()[args.trace]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        missing = set(units) - set(result["metrics"])
        if missing:
            print(f"error: {name} did not measure {sorted(missing)}", file=sys.stderr)
            return 2
        _report(name, args, result, units)
        results[name] = result
    prefix = len(names) > 1
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{w}.{k}" if prefix else k): {"value": r["metrics"][k], "unit": unit}
            for w, r in results.items()
            for k, unit in units.items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
