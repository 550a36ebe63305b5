"""Shared argparse helpers for the ``repro-*`` console scripts.

Bad values must exit with argparse's status 2 and a one-line message,
never a traceback — CI's entry-point smoke step locks this down for
``repro-serve``, ``repro-cluster`` and ``repro-fleet`` alike.
:func:`add_run_flags` is the one table of the flags ``repro-cluster``
and ``repro-fleet`` share; :func:`run_fields` reads them back as
:class:`repro.fleet.scenario.Scenario` fields.
"""

from __future__ import annotations

import argparse
import math
import os
from pathlib import Path

#: the shared flags whose dests are Scenario fields of the same name
RUN_FIELDS = (
    "scenario",
    "jobs",
    "seed",
    "time_model",
    "cache_capacity",
    "replicas",
    "max_retries",
    "churn_rate",
    "churn_mttr",
    "churn_seed",
    "respect_arrivals",
)


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    # NaN slips past a plain `value < 0` check and infinities make the
    # wave bucketing divide by them; both must exit 2, never traceback
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return value


def nonnegative_int(text: str) -> int:
    """An integer >= 0 (retry budgets, seeds-as-counts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not >= 0")
    return value


def positive_float(text: str) -> float:
    """A finite float > 0 (MTTRs, autoscale thresholds/intervals)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return value


def rate_fraction(text: str) -> float:
    """A churn/downtime fraction in [0, 1) — 1.0 would mean a fleet
    that is permanently down; argparse rejects it with exit status 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not math.isfinite(value) or not 0 <= value < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a fraction in [0, 1)"
        )
    return value


def multiplier(text: str) -> float:
    """A finite float >= 1 (burst multipliers and similar scale-ups)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not math.isfinite(value) or value < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite number >= 1"
        )
    return value


def cache_capacity(text: str) -> int | None:
    """LRU cache capacity: a positive entry count, or 0 for unbounded.

    Shared by ``repro-serve`` and ``repro-cluster`` so the flag means
    the same thing on both CLIs.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not >= 0")
    return None if value == 0 else value


def carbon_trace(text: str) -> dict:
    """A carbon-intensity trace spec: ``diurnal[:BASE:AMP:PERIOD]``.

    ``diurnal`` alone takes the defaults from
    :class:`repro.carbon.CarbonIntensityTrace`; the long form pins the
    mean gCO₂/kWh, the diurnal swing fraction, and the period in model
    seconds (``diurnal:300:0.8:240``).  Returned as a kwargs dict so the
    CLI can construct the trace next to the run's other seeds.  Bad
    shapes and out-of-range numbers exit 2, never traceback.
    """
    parts = text.split(":")
    if parts[0] != "diurnal":
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a carbon trace; expected "
            "'diurnal' or 'diurnal:BASE:AMP:PERIOD'"
        )
    if len(parts) == 1:
        return {}
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"{text!r} has {len(parts) - 1} diurnal parameters; "
            "expected 'diurnal:BASE:AMP:PERIOD' (all three)"
        )
    try:
        base, amp, period = (float(part) for part in parts[1:])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} has non-numeric diurnal parameters"
        )
    if not math.isfinite(base) or base <= 0:
        raise argparse.ArgumentTypeError(
            f"base intensity {parts[1]!r} is not a finite number > 0"
        )
    if not math.isfinite(amp) or not 0 <= amp < 1:
        raise argparse.ArgumentTypeError(
            f"amplitude {parts[2]!r} is not a fraction in [0, 1)"
        )
    if not math.isfinite(period) or period <= 0:
        raise argparse.ArgumentTypeError(
            f"period {parts[3]!r} is not a finite number > 0"
        )
    return {"base_g_per_kwh": base, "amplitude": amp, "period_s": period}


def int_list(text: str) -> list[int]:
    """Comma-separated positive ints (``"1,2,4"``), deduplicated."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if part:
            value = positive_int(part)
            if value not in out:
                out.append(value)
    if not out:
        raise argparse.ArgumentTypeError(f"{text!r} names no counts")
    return out


def add_run_flags(
    parser: argparse.ArgumentParser, *, jobs: int, seed: int, time_model: str
) -> None:
    """Add the flags ``repro-cluster`` and ``repro-fleet`` share, with
    each CLI's own ``--jobs`` / ``--seed`` / ``--time-model`` defaults."""
    # imported here so `repro-serve`, which shares this module, loads no
    # cluster layer
    from repro.cluster.nodes import DEFAULT_NODE_CACHE_CAPACITY
    from repro.cluster.routing import DEFAULT_REPLICAS
    from repro.cluster.timemodel import TIME_MODEL_PRESETS
    from repro.workloads import SCENARIOS

    add = parser.add_argument
    add(
        "--scenario",
        default="zipf-mixed",
        choices=sorted(SCENARIOS),
        help="named traffic mix (repro.workloads)",
    )
    add("--jobs", type=positive_int, default=jobs, help="proof requests to generate")
    add("--seed", type=int, default=seed, help="traffic seed (same seed, same jobs)")
    add(
        "--time-model",
        default=time_model,
        choices=TIME_MODEL_PRESETS,
        help="router and node cost model: accelerator-resident proving "
        "with host-side index installs, or all-functional CPU replay "
        "(what fleet workers execute)",
    )
    add(
        "--cache-capacity",
        type=cache_capacity,
        default=DEFAULT_NODE_CACHE_CAPACITY,
        help="LRU entries in each node's index cache (0 = unbounded)",
    )
    add(
        "--replicas",
        type=positive_int,
        default=DEFAULT_REPLICAS,
        help="virtual points per node on the affinity hash ring",
    )
    add("--max-retries", type=nonnegative_int, default=2, help="crash retries per job")
    add(
        "--churn-rate",
        type=rate_fraction,
        default=0.0,
        help="target fraction of node-time spent down (0 disables churn; "
        "must be in [0, 1))",
    )
    add(
        "--churn-mttr",
        type=positive_float,
        default=2.0,
        help="mean model seconds a crashed node stays down",
    )
    add(
        "--churn-seed",
        type=int,
        default=0,
        help="churn-trace seed (same seed = same crash/recovery trace)",
    )
    add(
        "--respect-arrivals",
        action="store_true",
        help="keep arrival times, as failure-aware runs always do (default: saturated)",
    )
    add("--events", metavar="PATH", help="write the run's JSONL event log to PATH")
    add("--json", action="store_true", help="emit the raw summary as JSON")


def run_fields(args: argparse.Namespace) -> dict:
    """The shared flags' values, keyed by Scenario field name."""
    return {name: getattr(args, name) for name in RUN_FIELDS}


def check_writable(parser: argparse.ArgumentParser, path: str | None) -> None:
    """Exit 2 before a run, creating nothing, if ``--events PATH`` cannot
    be written."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir() or not os.access(
        target if target.exists() else target.parent, os.W_OK
    ):
        parser.error(f"--events {path}: cannot write there")
