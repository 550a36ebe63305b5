"""Contracts of the discrete-event core (`repro.sim`).

The cluster engine's determinism rests on three properties locked here:
total event order ``(time, priority, sequence)``, lazy cancellation
(a cancelled handle never fires, even if already heaped), and seeded
event sources that are pure functions of their constructor arguments.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, TraceSource, install


class TestSimulator:
    def test_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        end = sim.run()
        assert fired == ["a", "b", "c"]
        assert end == 3.0
        assert sim.fired == 3

    def test_ties_break_by_priority_then_sequence(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("late"), priority=5)
        sim.schedule(1.0, lambda: fired.append("first"), priority=0)
        sim.schedule(1.0, lambda: fired.append("second"), priority=0)
        sim.run()
        assert fired == ["first", "second", "late"]

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule_after(1.0, lambda: chain(n + 1))

        sim.schedule(0.0, lambda: chain(0))
        assert sim.run() == 3.0
        assert fired == [0, 1, 2, 3]

    def test_past_scheduling_rejected(self):
        sim = Simulator(start_s=5.0)
        with pytest.raises(ValueError, match="past"):
            sim.schedule(4.0, lambda: None)
        with pytest.raises(ValueError, match=">= 0"):
            sim.schedule_after(-1.0, lambda: None)

    def test_cancelled_events_never_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("cancelled"))
        sim.schedule(2.0, lambda: fired.append("kept"))
        handle.cancel()
        sim.run()
        assert fired == ["kept"]
        assert sim.fired == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.peek_time() == 2.0
        assert len(sim) == 1

    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.schedule(3.0, lambda: fired.append(3))
        assert sim.run(until_s=2.0) == 2.0
        assert fired == [1, 2]
        assert sim.run() == 3.0  # the rest still fires
        assert fired == [1, 2, 3]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False


class TestSources:
    def test_trace_source_sorts_by_time(self):
        source = TraceSource([(2.0, "b"), (1.0, "a"), (3.0, "c")])
        assert [p for _, p in source] == ["a", "b", "c"]
        assert len(source) == 3

    def test_install_pumps_source_into_simulator(self):
        sim = Simulator()
        seen = []
        handles = install(sim, TraceSource([(1.0, "x"), (2.0, "y")]), seen.append)
        assert len(handles) == 2
        sim.run()
        assert seen == ["x", "y"]

    def test_install_handles_are_cancellable(self):
        sim = Simulator()
        seen = []
        handles = install(sim, TraceSource([(1.0, "x"), (2.0, "y")]), seen.append)
        handles[1].cancel()
        sim.run()
        assert seen == ["x"]


class TestFastPath:
    """The ISSUE 8 fast path: O(1) len, compaction, schedule_fast."""

    def test_len_is_live_count_not_heap_size(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert len(sim) == 10
        for handle in handles[:4]:
            handle.cancel()
        assert len(sim) == 6
        handles[0].cancel()  # cancel is idempotent
        assert len(sim) == 6
        sim.run()
        assert len(sim) == 0

    def test_schedule_fast_orders_with_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("slow-2"))
        sim.schedule_fast(1.0, lambda: fired.append("fast-1"))
        sim.schedule_fast(2.0, lambda: fired.append("fast-2-late"), priority=5)
        sim.schedule(2.0, lambda: fired.append("slow-2-tie"))
        sim.schedule_fast(2.0, lambda: fired.append("fast-2-tie"))
        end = sim.run()
        # same (time, priority) resolves by schedule order across APIs
        assert fired == [
            "fast-1",
            "slow-2",
            "slow-2-tie",
            "fast-2-tie",
            "fast-2-late",
        ]
        assert end == 2.0
        assert sim.fired == 5

    def test_schedule_fast_rejects_past(self):
        sim = Simulator(start_s=5.0)
        with pytest.raises(ValueError, match="past"):
            sim.schedule_fast(4.0, lambda: None)

    def test_compaction_preserves_order_and_counts(self):
        sim = Simulator()
        fired = []
        keep = []
        # far more cancelled than live entries forces compaction
        doomed = [
            sim.schedule(1000.0 + i, lambda: fired.append("doomed"))
            for i in range(512)
        ]
        for i in range(8):
            at = float(i + 1)
            sim.schedule(at, lambda at=at: fired.append(at))
            keep.append(at)
        for handle in doomed:
            handle.cancel()
        assert len(sim) == 8
        assert sim.peek_time() == 1.0
        end = sim.run()
        assert fired == keep
        assert end == 8.0

    def test_cancel_after_fire_is_harmless(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("once"))
        sim.schedule(2.0, lambda: fired.append("later"))
        sim.run(until_s=1.5)
        handle.cancel()  # already fired; must not corrupt live counts
        assert len(sim) == 1
        sim.run()
        assert fired == ["once", "later"]

    def test_run_with_only_cancelled_left_drains_to_now(self):
        # matches the pre-fast-path engine: an emptied heap returns the
        # current clock, never advancing to the horizon
        sim = Simulator()
        handle = sim.schedule(5.0, lambda: None)
        handle.cancel()
        assert sim.run(until_s=10.0) == 0.0
        assert sim.now == 0.0
        assert len(sim) == 0

    def test_horizon_with_pending_cancelled_and_live(self):
        sim = Simulator()
        fired = []
        doomed = sim.schedule(4.0, lambda: fired.append("doomed"))
        sim.schedule(6.0, lambda: fired.append("live"))
        doomed.cancel()
        # the horizon stop must purge the cancelled head, then park at
        # the horizon with the live event still queued
        assert sim.run(until_s=5.0) == 5.0
        assert fired == []
        assert len(sim) == 1
        assert sim.run() == 6.0
        assert fired == ["live"]


class TestFastPathProperties:
    """Randomized order invariance under cancellation + compaction."""

    @given(
        ops=st.lists(
            st.tuples(
                st.floats(
                    min_value=0.0,
                    max_value=100.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.integers(min_value=-3, max_value=3),
                st.sampled_from(["schedule", "fast", "cancelled"]),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_total_order_survives_cancellation(self, ops):
        """Surviving events fire in exact (time, priority, seq) order
        no matter how many neighbours were cancelled around them —
        i.e. threshold compaction never reorders or drops live events."""
        sim = Simulator()
        fired = []
        expected = []
        doomed = []
        for seq, (at, priority, kind) in enumerate(ops):
            if kind == "fast":
                sim.schedule_fast(
                    at,
                    lambda key=(at, priority, seq): fired.append(key),
                    priority=priority,
                )
                expected.append((at, priority, seq))
            else:
                handle = sim.schedule(
                    at,
                    lambda key=(at, priority, seq): fired.append(key),
                    priority=priority,
                )
                if kind == "cancelled":
                    doomed.append(handle)
                else:
                    expected.append((at, priority, seq))
        for handle in doomed:
            handle.cancel()
        assert len(sim) == len(expected)
        sim.run()
        assert fired == sorted(expected)
        assert len(sim) == 0
        assert sim.fired == len(expected)


@pytest.mark.slow
class TestMillionEventSmoke:
    def test_million_event_churn_run_is_exact(self):
        """The churn-heavy bench driver at 10⁶ events: the fired count
        and final clock are pure model values and must be bit-exact
        (the same figures BENCH_traffic.json pins)."""
        import sys
        from pathlib import Path

        sys.path.insert(
            0, str(Path(__file__).resolve().parents[1] / "tools")
        )
        from profile_sim import churn_heavy

        sim = Simulator()
        fired, final_clock, len_probe = churn_heavy(sim, 1_000_000)
        assert fired == 1_000_007
        assert round(final_clock, 6) == 163.7826
        assert len_probe == 58_590
        assert sim.fired == fired
        assert len(sim) == 0
