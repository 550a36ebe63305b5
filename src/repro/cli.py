"""Shared argparse helpers for the ``repro-*`` console scripts.

Bad values must exit with argparse's status 2 and a one-line message,
never a traceback — CI's entry-point smoke step locks this down for
``repro-serve`` and ``repro-cluster`` alike.
"""

from __future__ import annotations

import argparse
import math


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
