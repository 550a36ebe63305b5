"""Seeded carbon-intensity traces: the grid signal schedulers react to.

A :class:`CarbonIntensityTrace` models grid carbon intensity in
gCO₂/kWh as a piecewise-constant signal over fixed ``step_s`` windows::

    intensity(window k) = base · diurnal(t_k) · noise(seed, k) · events(t_k)

where ``diurnal`` is a sinusoid with one "day" per ``period_s``,
``noise`` is a per-window multiplicative jitter drawn from a RNG seeded
by ``(seed, k)`` — O(1) random access *and* restartable iteration from
the same values — and ``events`` is an optional step function of grid
events (a coal plant coming online, a wind lull) that rescales
intensity from their onset times onward.

The trace follows the same restartable-iterator contract as
:class:`~repro.traffic.openloop.OpenLoopTraffic`: :meth:`events` (the
:class:`~repro.sim.sources.EventSource` hook) restarts from the seed on
every call, so two iterations of one trace yield identical
``(at_s, intensity)`` samples, and a scheduler that re-reads the trace
mid-run sees exactly the values an installed source delivered.  All
queries are pure functions of the constructor arguments — nothing here
touches global RNG state.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Iterator, Sequence

from repro.sim.sources import EventSource

#: default diurnal period, model seconds — one "day" of the sinusoid
#: (matches :data:`repro.traffic.openloop.DEFAULT_DIURNAL_PERIOD_S`)
DEFAULT_CARBON_PERIOD_S = 240.0

#: default piecewise-constant window, model seconds
DEFAULT_CARBON_STEP_S = 5.0

#: joules per kilowatt-hour — converts W·s·(g/kWh) into grams
JOULES_PER_KWH = 3.6e6

#: forward-scan bound for :meth:`CarbonIntensityTrace.next_low_start`
_MAX_SCAN_WINDOWS = 1_000_000

#: what a window's intensity is a function of; fixed at construction
_SIGNAL_PARAMETERS = frozenset(
    ("base_g_per_kwh", "amplitude", "period_s", "noise", "step_s", "seed",
     "grid_events", "_event_times")
)


class CarbonIntensityTrace(EventSource):
    """A seeded diurnal + noisy + event-stepped carbon-intensity signal.

    ``horizon_s`` bounds :meth:`events` when the trace is installed as a
    sim event source; point queries (:meth:`intensity_at`,
    :meth:`carbon_g`, :meth:`next_low_start`) work at any model time
    regardless.
    """

    def __init__(
        self,
        *,
        base_g_per_kwh: float = 300.0,
        amplitude: float = 0.5,
        period_s: float = DEFAULT_CARBON_PERIOD_S,
        noise: float = 0.05,
        step_s: float = DEFAULT_CARBON_STEP_S,
        seed: int = 0,
        grid_events: Sequence[tuple[float, float]] | None = None,
        horizon_s: float | None = None,
    ):
        if base_g_per_kwh <= 0:
            raise ValueError(
                f"base_g_per_kwh must be > 0; got {base_g_per_kwh}"
            )
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1); got {amplitude}")
        if period_s <= 0:
            raise ValueError(f"period_s must be > 0; got {period_s}")
        if not 0.0 <= noise < 1.0:
            raise ValueError(f"noise must be in [0, 1); got {noise}")
        if step_s <= 0:
            raise ValueError(f"step_s must be > 0; got {step_s}")
        if horizon_s is not None and horizon_s < 0:
            raise ValueError(f"horizon_s must be >= 0; got {horizon_s}")
        events = sorted(grid_events or (), key=lambda pair: pair[0])
        for at_s, mult in events:
            if at_s < 0:
                raise ValueError(f"grid event at_s must be >= 0; got {at_s}")
            if mult <= 0:
                raise ValueError(
                    f"grid event multiplier must be > 0; got {mult}"
                )
        self.base_g_per_kwh = base_g_per_kwh
        self.amplitude = amplitude
        self.period_s = period_s
        self.noise = noise
        self.step_s = step_s
        self.seed = seed
        self.grid_events = tuple(events)
        self._event_times = [at_s for at_s, _ in events]
        self.horizon_s = horizon_s
        #: window index -> intensity; sound because a window's value is a
        #: pure function of the (read-only) parameters above
        self._intensity: dict[int, float] = {}

    def __setattr__(self, name: str, value) -> None:
        if name in _SIGNAL_PARAMETERS and name in self.__dict__:
            raise AttributeError(
                f"{name} is read-only: window intensities are memoised; "
                "build a new trace instead"
            )
        super().__setattr__(name, value)

    # -- point queries -------------------------------------------------------
    def _noise_factor(self, window: int) -> float:
        """The multiplicative jitter of one window, from ``(seed, k)``.

        A fresh :class:`random.Random` keyed on the window index gives
        O(1) random access with the exact values an in-order iteration
        produces — the restartability contract hinges on this.
        """
        if self.noise == 0.0:
            return 1.0
        u = random.Random(f"{self.seed}:{window}").random()
        return 1.0 + self.noise * (2.0 * u - 1.0)

    def _event_multiplier(self, at_s: float) -> float:
        """The step-event rescale in force at ``at_s`` (1.0 = none)."""
        idx = bisect.bisect_right(self._event_times, at_s)
        return self.grid_events[idx - 1][1] if idx else 1.0

    def intensity_at(self, at_s: float) -> float:
        """Grid intensity (gCO₂/kWh) of the window containing ``at_s``.

        Constant within each ``step_s`` window (the sinusoid and the
        event step are sampled at the window midpoint), so any two
        queries inside one window agree — what makes scheduler
        decisions and energy integrals consistent.  Computed once per
        window: a run prices thousands of segments over a few dozen
        windows, and the value is the same in any query order.
        """
        window = int(max(at_s, 0.0) // self.step_s)
        intensity = self._intensity.get(window)
        if intensity is None:
            mid = (window + 0.5) * self.step_s
            diurnal = 1.0 + self.amplitude * math.sin(
                2.0 * math.pi * mid / self.period_s
            )
            intensity = self._intensity[window] = (
                self.base_g_per_kwh
                * diurnal
                * self._noise_factor(window)
                * self._event_multiplier(mid)
            )
        return intensity

    # -- integration ---------------------------------------------------------
    def integral_g_s_per_kwh(self, start_s: float, end_s: float) -> float:
        """``∫ intensity dt`` over ``[start_s, end_s]`` (g·s/kWh).

        Exact for the piecewise-constant signal: each overlapped window
        contributes ``intensity × overlap``.
        """
        if end_s <= start_s:
            return 0.0
        start_s = max(start_s, 0.0)
        step = self.step_s
        first = int(start_s // step)
        last = int(end_s / step)
        total = 0.0
        for window in range(first, last + 1):
            lo = max(start_s, window * step)
            hi = min(end_s, (window + 1) * step)
            if hi > lo:
                total += self.intensity_at(window * step) * (hi - lo)
        return total

    def mean_intensity(self, start_s: float, end_s: float) -> float:
        """Time-averaged intensity over ``[start_s, end_s]`` (g/kWh)."""
        if end_s <= start_s:
            return self.base_g_per_kwh
        return self.integral_g_s_per_kwh(start_s, end_s) / (end_s - start_s)

    def carbon_g(self, start_s: float, end_s: float, watts: float) -> float:
        """Grams of CO₂ for a constant ``watts`` draw over a window."""
        return watts * self.integral_g_s_per_kwh(start_s, end_s) / JOULES_PER_KWH

    # -- scheduling helper ---------------------------------------------------
    def next_low_start(
        self, after_s: float, threshold_g_per_kwh: float, until_s: float
    ) -> float | None:
        """Earliest time in ``[after_s, until_s]`` with low intensity.

        Scans window-by-window for intensity ``<= threshold``; returns
        ``after_s`` itself when the current window already qualifies,
        and None when no qualifying window starts by ``until_s`` — the
        carbon-waiting policy then starts the job rather than burn its
        deadline slack.
        """
        if until_s < after_s:
            return None
        step = self.step_s
        window = int(max(after_s, 0.0) // step)
        for _ in range(_MAX_SCAN_WINDOWS):
            start = window * step
            if max(start, after_s) > until_s:
                return None
            if self.intensity_at(start) <= threshold_g_per_kwh:
                return max(start, after_s)
            window += 1
        return None

    # -- event-source contract ----------------------------------------------
    def events(self) -> Iterator[tuple[float, float]]:
        """Yield one ``(window start, intensity)`` sample per window.

        Restarts from the seed on every call (the
        :class:`~repro.traffic.openloop.OpenLoopTraffic` contract);
        requires ``horizon_s`` so an installed source terminates.
        """
        if self.horizon_s is None:
            raise ValueError(
                "set horizon_s to iterate the trace as an event source"
            )
        window = 0
        while window * self.step_s <= self.horizon_s:
            at_s = window * self.step_s
            yield (at_s, self.intensity_at(at_s))
            window += 1

    def __repr__(self):
        return (
            f"CarbonIntensityTrace(base={self.base_g_per_kwh}g/kWh, "
            f"amplitude={self.amplitude}, period={self.period_s}s, "
            f"seed={self.seed}, events={len(self.grid_events)})"
        )
