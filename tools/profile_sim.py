#!/usr/bin/env python
"""cProfile harness for the discrete-event sim core and the open-loop cell.

Drives :func:`churn_heavy` — the canonical cancellation-heavy workload
shared with ``benchmarks/test_traffic_openloop.py`` — under cProfile
and prints the top functions, so a change to
:mod:`repro.sim.engine` can be profiled in one command::

    PYTHONPATH=src python tools/profile_sim.py --events 1000000
    PYTHONPATH=src python tools/profile_sim.py --open-loop --jobs 5000 --seed 0

``--no-profile`` times the run without profiler overhead (the
events/sec ``BENCH_traffic.json`` records as ``info``).

``--open-loop`` runs the ``sim_openloop_5e3`` benchmark cell instead
(:func:`open_loop_run`: 4 ``least_loaded`` nodes on the accelerator
time model, admission window 10 s, 10% churn downtime, passive carbon
pricing, ``max_retries=64``) and prints µs per host event, the counts
:func:`open_loop_profile` reads off one profiled run (events fired,
shape-pricing calls, ``emit`` calls, :class:`~repro.sim.FleetEvent`
constructions, admission budgets, Python calls per offered job), and
the top functions grouped by layer.  ``BENCH_traffic.json`` records the same
counts.  It also prints, with or without the profile, how many objects
one run leaves in reference cycles (:func:`cyclic_objects_after_run`):
the sim runtime's object graph is acyclic, so a finished run is freed by
reference counting alone and the count is 0.  Point ``PYTHONPATH`` at
another checkout's ``src`` to get that tree's table from the same
harness.

The workload models what a 10⁶-event open-loop cluster run does to the
engine: a handful of periodic "server" chains that each reschedule
themselves (the arrival pump / finish events), a cancel-and-rearm
watchdog per chain (retry timers — almost every watchdog dies
unfired), a standing pool of far-future cancelled events (parked
long-horizon churn), and periodic ``len(sim)`` polls (the autoscaler
tick asking whether work remains).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import re
import sys
import time
from collections import defaultdict

#: periodic server chains (self-rescheduling event sources)
SERVERS = 8

#: far-future events scheduled then immediately cancelled at startup
CANCELLED_POOL = 5_000

#: fire one ``len(sim)`` poll every this many events
LEN_POLL_EVERY = 256

#: watchdog horizon: rearmed this far ahead on every server event
WATCHDOG_S = 10.0

#: the ``sim_openloop_5e3`` cell (benchmarks/e2e/e2ebench/wl_sim.py)
OPEN_LOOP_SCENARIO = "zipf-mixed"
OPEN_LOOP_RATE_RPS = 40.0
OPEN_LOOP_NODES = 4
OPEN_LOOP_WINDOW_S = 10.0
OPEN_LOOP_DOWNTIME = 0.1
OPEN_LOOP_MAX_RETRIES = 64

#: unprofiled open-loop runs timed (the fastest is reported)
OPEN_LOOP_REPEATS = 5

#: functions listed under each layer of the open-loop profile
TOP_PER_LAYER = 3

#: (file suffix, function) pairs counted as one shape-pricing call each
SHAPE_PRICING = (
    ("cluster/timemodel.py", "price"),
    ("plan/cost.py", "job_cost_s"),
)

_LAYER = re.compile(r"[\\/]repro[\\/](\w+)[\\/]")


def churn_heavy(sim, num_events: int) -> tuple:
    """Run the cancellation-heavy workload; returns ``(fired, now, probe)``.

    ``sim`` is a fresh :class:`~repro.sim.Simulator`; the never-cancelled
    server chains go through ``schedule_fast``.  The returned tuple is
    pure model time and therefore bit-deterministic: ``fired`` counts
    server events, ``now`` is the final clock, ``probe`` sums the
    ``len(sim)`` polls.
    """
    fired = [0]
    len_probe = [0]
    stash = [sim.schedule(1.0e9 + i, lambda: None) for i in range(CANCELLED_POOL)]
    for handle in stash:
        handle.cancel()

    def make_server(idx: int):
        period = 0.001 + idx * 0.0001
        watchdog = [None]

        def work():
            fired[0] += 1
            if watchdog[0] is not None:
                watchdog[0].cancel()
            if fired[0] >= num_events:
                return
            watchdog[0] = sim.schedule(sim.now + WATCHDOG_S, lambda: None)
            if fired[0] % LEN_POLL_EVERY == 0:
                len_probe[0] += len(sim)
            sim.schedule_fast(sim.now + period, work)

        return work

    for idx in range(SERVERS):
        sim.schedule_fast(0.001 * (idx + 1), make_server(idx))
    sim.run()
    return fired[0], sim.now, len_probe[0]


def open_loop_churn(jobs: int, seed: int) -> list:
    """The cell's churn trace (built once, outside the timed run)."""
    from repro.workloads import trace_for_downtime

    return trace_for_downtime(
        OPEN_LOOP_NODES,
        jobs / OPEN_LOOP_RATE_RPS,
        downtime_fraction=OPEN_LOOP_DOWNTIME,
        seed=seed,
    )


def open_loop_run(jobs: int, seed: int, churn: list):
    """One whole open-loop cell run on fresh objects; returns the engine."""
    from repro.carbon import CarbonConfig, CarbonIntensityTrace
    from repro.cluster import ClusterConfig, NodeConfig, ProvingCluster
    from repro.cluster.admission import AdmissionPolicy
    from repro.traffic import OpenLoopEngine, OpenLoopTraffic, make_admission

    traffic = OpenLoopTraffic(
        OPEN_LOOP_SCENARIO, seed=seed, max_jobs=jobs, rate_rps=OPEN_LOOP_RATE_RPS
    )
    config = ClusterConfig(
        num_nodes=OPEN_LOOP_NODES,
        policy="least_loaded",
        time_model="accelerator",
        node=NodeConfig(max_vars=traffic.max_vars()),
        max_retries=OPEN_LOOP_MAX_RETRIES,
        carbon=CarbonConfig(CarbonIntensityTrace(seed=seed), policy="none"),
    )
    with ProvingCluster(config) as cluster:
        policy = AdmissionPolicy(window_s=OPEN_LOOP_WINDOW_S)
        admission = make_admission(cluster, policy, traffic.tenants)
        engine = OpenLoopEngine(cluster, traffic, admission=admission)
        engine.run(traffic.jobs(), churn=churn)
    return engine


def cyclic_objects_after_run(jobs: int, seed: int, churn: list) -> int:
    """Objects one run of the cell leaves that only the cyclic garbage
    collector can free: collect, run with that collector off, drop the
    engine, collect, and return what the last collection found."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        open_loop_run(jobs, seed, churn)  # the engine is dropped at once
    finally:
        if enabled:
            gc.enable()
    return gc.collect()


def _layer_of(filename: str) -> str:
    """``repro`` subpackage of a profiled function, else builtin/stdlib."""
    if filename == "~":
        return "builtins"
    match = _LAYER.search(filename)
    return match.group(1) if match else "stdlib"


def open_loop_profile(jobs: int, seed: int) -> tuple[dict, pstats.Stats]:
    """Profile one warm run of the open-loop cell; returns its counts
    and the profile.

    The counts are exact for a given tree: events fired, shape-pricing
    calls, ``EventLog.emit`` calls, :class:`~repro.sim.FleetEvent`
    constructions, admission budgets, and the objects a run leaves in
    reference cycles (:func:`cyclic_objects_after_run`).  Python calls
    per offered job also counts stdlib functions, so it moves with the
    interpreter.
    """
    from repro.sim.events import FleetEvent

    churn = open_loop_churn(jobs, seed)
    open_loop_run(jobs, seed, churn)  # warm imports and memos
    profiler = cProfile.Profile()
    engine = profiler.runcall(open_loop_run, jobs, seed, churn)
    stats = pstats.Stats(profiler)
    record_line = FleetEvent.__init__.__code__.co_firstlineno

    def calls_of(suffix: str, name: str, line: int | None = None) -> int:
        return sum(
            entry[1]
            for (filename, at, func), entry in stats.stats.items()
            if func == name
            and line in (None, at)
            and filename.replace("\\", "/").endswith(suffix)
        )

    total = sum(entry[1] for entry in stats.stats.values())
    counts = {
        "events_fired": engine.sim.fired,
        "shape_pricing_calls": sum(calls_of(*where) for where in SHAPE_PRICING),
        "emit_calls": calls_of("sim/events.py", "emit"),
        "fleet_event_constructions": calls_of("sim/events.py", "__init__", record_line),
        "admission_budgets": calls_of("cluster/admission.py", "budget_s"),
        "cyclic_objects_after_run": cyclic_objects_after_run(jobs, seed, churn),
        "python_calls_per_offered_job": round(total / engine.offered, 2),
    }
    return counts, stats


def open_loop_report(stats: pstats.Stats) -> None:
    """Print the top functions of a profile grouped by layer."""
    layers: dict[str, list] = defaultdict(list)
    for (filename, line, func), entry in stats.stats.items():
        layers[_layer_of(filename)].append((entry[2], entry[1], f"  {func}:{line}"))
    grand = sum(entry[2] for entry in stats.stats.values()) or 1.0

    def row(name: str, calls: int, self_s: float) -> None:
        print(f"  {name:<44} {calls:>9,} {self_s:>8.3f} {self_s / grand:>7.1%}")

    print(f"\n  {'layer / function':<44} {'calls':>9} {'self s':>8} {'share':>7}")
    ranked = sorted(layers.items(), key=lambda kv: -sum(f[0] for f in kv[1]))
    for layer, funcs in ranked:
        row(layer, sum(f[1] for f in funcs), sum(f[0] for f in funcs))
        for self_s, calls, name in sorted(funcs, reverse=True)[:TOP_PER_LAYER]:
            row(name, calls, self_s)


def _print_count(name: str, value: int | float) -> None:
    shown = f"{value:,.2f}" if isinstance(value, float) else f"{value:,}"
    print(f"  {name:<38} {shown:>12}")


def open_loop_main(args: argparse.Namespace) -> int:
    """``--open-loop``: time the cell, count what a run leaves in
    reference cycles, and unless ``--no-profile`` profile it."""
    churn = open_loop_churn(args.jobs, args.seed)
    open_loop_run(args.jobs, args.seed, churn)  # warm imports and memos
    walls = []
    for _ in range(OPEN_LOOP_REPEATS):
        started = time.perf_counter()
        engine = open_loop_run(args.jobs, args.seed, churn)
        walls.append(time.perf_counter() - started)
    wall = min(walls)
    fired = engine.sim.fired
    print(
        f"open-loop cell: jobs={args.jobs} seed={args.seed} "
        f"offered={engine.offered} events={fired} "
        f"wall={wall:.4f}s (best of {OPEN_LOOP_REPEATS}) "
        f"{1e6 * wall / fired:.2f} us/host event"
    )
    if args.no_profile:
        cyclic = cyclic_objects_after_run(args.jobs, args.seed, churn)
        _print_count("cyclic_objects_after_run", cyclic)
        return 0
    counts, stats = open_loop_profile(args.jobs, args.seed)
    for name, value in counts.items():
        _print_count(name, value)
    open_loop_report(stats)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--events", type=int, default=1_000_000, help="server events to fire"
    )
    parser.add_argument(
        "--no-profile",
        action="store_true",
        help="time the run without cProfile overhead",
    )
    parser.add_argument(
        "--sort", default="cumtime", help="pstats sort key (default cumtime)"
    )
    parser.add_argument(
        "--top", type=int, default=20, help="rows of stats to print"
    )
    parser.add_argument(
        "--open-loop",
        action="store_true",
        help="profile the sim_openloop_5e3 cell instead of the bare core",
    )
    parser.add_argument(
        "--jobs", type=int, default=5_000, help="open-loop jobs offered"
    )
    parser.add_argument("--seed", type=int, default=0, help="open-loop seed")
    args = parser.parse_args(argv)
    if args.events < 1:
        parser.error(f"--events must be >= 1; got {args.events}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1; got {args.jobs}")
    if args.open_loop:
        return open_loop_main(args)

    from repro.sim import Simulator

    if args.no_profile:
        started = time.perf_counter()
        fired, now, probe = churn_heavy(Simulator(), args.events)
        elapsed = time.perf_counter() - started
    else:
        profiler = cProfile.Profile()
        started = time.perf_counter()
        fired, now, probe = profiler.runcall(churn_heavy, Simulator(), args.events)
        elapsed = time.perf_counter() - started
        stats = pstats.Stats(profiler)
        stats.sort_stats(args.sort).print_stats(args.top)
    print(
        f"churn-heavy: fired={fired} final_clock_s={now:.6f} len_probe={probe} "
        f"wall={elapsed:.3f}s ({fired / elapsed:,.0f} events/s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
