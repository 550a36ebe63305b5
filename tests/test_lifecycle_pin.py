"""Byte-level pins of the closed-batch failure-aware scenario path.

:meth:`ProvingCluster.run` under churn *and* an autoscaler runs
every branch of the job lifecycle: routing on arrival, parking with the
whole fleet down, exclusion waivers, requeues off a crashed node,
retries, failures on an exhausted retry budget, and scale-out/scale-in
action records.  The digests of ``summary()`` and the JSONL event log
(``lifecycle/`` in ``tests/goldens.json``) were recorded before the
lifecycle was shared between the simulated cluster and the real fleet; a
refactor of that machinery must not move one of them.  The coverage
asserts keep the pins honest: each names a branch the recorded runs are
known to reach.
"""

import pytest
from goldens import LIFECYCLE, lifecycle_cell, pinned, sha256, summary_text


class TestScenarioGolden:
    @pytest.mark.parametrize(
        "cell", sorted(LIFECYCLE), ids=lambda cell: f"{cell[0]}-{cell[1]}"
    )
    def test_summary_and_event_log_digests(self, cell):
        run, prefix = lifecycle_cell(*cell), LIFECYCLE[cell]
        assert sha256(summary_text(run["summary"])) == pinned(f"{prefix}/summary")
        assert sha256(run["events"]) == pinned(f"{prefix}/events")
        resilience = run["summary"]["resilience"]
        assert resilience["autoscale"]["scale_outs"] > 0
        assert resilience["autoscale"]["scale_ins"] > 0
        assert resilience["crashes"] > 0
        assert resilience["requeues"] > 0
        assert resilience["parked"] > 0
        policy, max_retries = cell
        # only a retried job carries an exclusion, so only a cell with
        # retries can waive one; every such cell does
        assert (resilience["exclusion_waivers"] > 0) == (max_retries > 0)
        if max_retries == 0:
            assert resilience["retries"] == 0
            assert resilience["failed_jobs"] > 0
