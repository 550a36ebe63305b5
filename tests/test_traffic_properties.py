"""Hypothesis properties of the traffic and suspend/resume machinery.

Three contracts the open-loop stack leans on, checked over many seeds:

* **restart identity** — :meth:`OpenLoopTraffic.jobs` (and the carbon
  trace's :meth:`events`) restart from the seed on every call, so two
  iterations of one source agree element-for-element;
* **monotone arrivals** — the thinned Poisson process yields strictly
  increasing arrival times (the sim schedules them verbatim);
* **thinning mean** — over a long horizon the realized arrival count
  tracks ``∫ rate_at dt`` of the diurnal × burst envelope (the whole
  point of thinning against the peak rate);

plus the suspend/resume conservation property: parking a node's
in-flight job at any interior points and resuming after any idle gaps
changes *when* the proof finishes, never its modeled cost — the
node-level half of the carbon subsystem's determinism story.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carbon import CarbonIntensityTrace
from repro.cluster import FleetTimeModel, NodeConfig
from repro.cluster.nodes import ProverNode
from repro.traffic import OpenLoopTraffic

SCENARIO = "uniform-small"


def make_traffic(seed: int, **kwargs) -> OpenLoopTraffic:
    kwargs.setdefault("rate_rps", 8.0)
    kwargs.setdefault("max_jobs", 60)
    return OpenLoopTraffic(SCENARIO, seed=seed, **kwargs)


class TestTrafficProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_restart_identity(self, seed):
        traffic = make_traffic(seed)
        first = [
            (j.arrival_s, j.tag, j.tenant, j.deadline_s)
            for j in traffic.jobs()
        ]
        second = [
            (j.arrival_s, j.tag, j.tenant, j.deadline_s)
            for j in traffic.jobs()
        ]
        assert first == second
        assert len(first) == 60
        # an identically-seeded sibling generator agrees too
        third = [
            (j.arrival_s, j.tag, j.tenant, j.deadline_s)
            for j in make_traffic(seed).jobs()
        ]
        assert first == third

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_arrivals_strictly_increase(self, seed):
        arrivals = [j.arrival_s for j in make_traffic(seed).jobs()]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))
        assert arrivals[0] > 0.0

    @given(
        seed=st.integers(min_value=0, max_value=200),
        amplitude=st.sampled_from([0.0, 0.3, 0.6]),
        burst_mult=st.sampled_from([1.0, 3.0]),
    )
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_thinning_tracks_the_rate_envelope(
        self, seed, amplitude, burst_mult
    ):
        """The realized count is a Poisson draw around ``∫ rate dt`` —
        derandomized, so this is a fixed deterministic example set, and
        the 5σ band makes each example a ~3e-7 false-alarm event."""
        horizon = 120.0
        traffic = make_traffic(
            seed,
            max_jobs=None,
            horizon_s=horizon,
            diurnal_amplitude=amplitude,
            burst_mult=burst_mult,
        )
        count = sum(1 for _ in traffic.jobs())
        dt = 0.01
        steps = int(horizon / dt)
        expected = sum(
            traffic.rate_at((k + 0.5) * dt) for k in range(steps)
        ) * dt
        tolerance = 5.0 * expected**0.5
        assert abs(count - expected) <= tolerance, (
            f"{count} arrivals vs {expected:.1f} expected "
            f"(±{tolerance:.1f} allowed)"
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_carbon_trace_restart_identity(self, seed):
        trace = CarbonIntensityTrace(seed=seed, horizon_s=80.0)
        first = list(trace.events())
        assert first == list(trace.events())
        assert first == list(
            CarbonIntensityTrace(seed=seed, horizon_s=80.0).events()
        )
        times = [at_s for at_s, _ in first]
        assert times == sorted(times)


class TestSuspendResumeProperty:
    @given(
        fractions=st.lists(
            st.floats(min_value=0.05, max_value=0.95),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=5.0), min_size=4, max_size=4
        ),
        job_index=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_park_resume_conserves_the_modeled_work(
        self, fractions, gaps, job_index
    ):
        """Parking N times at arbitrary interior points and resuming
        after arbitrary waits yields the same record as never parking,
        except for wall placement (finish/suspended seconds)."""
        time_model = FleetTimeModel.preset("functional")
        config = NodeConfig(max_vars=6)
        job_a = list(OpenLoopTraffic(SCENARIO, seed=4, max_jobs=8).jobs())[job_index]
        job_b = list(OpenLoopTraffic(SCENARIO, seed=4, max_jobs=8).jobs())[job_index]
        job_a.job_id = job_b.job_id = 0

        baseline_node = ProverNode("node-0", config)
        baseline_node.submit(job_a)
        baseline_node.begin(job_a, 0.0, time_model.price(job_a))
        baseline = baseline_node.complete()

        node = ProverNode("node-0", config)
        node.submit(job_b)
        live = node.begin(job_b, 0.0, time_model.price(job_b))
        total = live.install_s + live.prove_s
        parks = 0
        for fraction, gap in zip(sorted(fractions), gaps):
            at = fraction * total
            if at <= live.done_before_s:
                continue  # already past this progress point
            node.suspend(live.start_s + (at - live.done_before_s))
            parks += 1
            live = node.resume(0, node.clock_s + gap)
        parked = node.complete()

        assert parked.suspensions == parks
        assert parked.install_model_s == baseline.install_model_s
        assert parked.prove_model_s == baseline.prove_model_s
        assert parked.cache_hit == baseline.cache_hit
        assert parked.start_s == baseline.start_s
        assert node.busy_s == pytest.approx(total)
        assert node.lost_s == 0.0
        # every model second from the start is either busy or parked wait
        assert parked.finish_s == pytest.approx(
            parked.start_s + total + parked.suspended_s
        )
        assert parked.suspended_s >= 0.0
        if parks == 0:
            assert parked == baseline
