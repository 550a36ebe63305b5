"""The one metrics vocabulary every runtime's summary is built from.

:func:`~repro.service.metrics.latency_tail` is the ``latency_s`` block
of the service, cluster, traffic and fleet summaries;
:func:`~repro.cluster.metrics.records_summary` (makespan, throughput,
tail) and :func:`~repro.cluster.metrics.install_split` (install vs
prove seconds) are the record-level blocks the cluster, traffic and
fleet summaries share.  Each is checked on an empty list, one record
and five records.
"""

import pytest

from repro.cluster import ClusterConfig, NodeConfig, ProvingCluster
from repro.cluster.metrics import install_split, records_summary
from repro.cluster.records import JobRecord
from repro.service.metrics import FULL_TAIL, latency_tail, percentile
from repro.traffic import OpenLoopTraffic

QUANTILE = {"p50": 50, "p95": 95, "p99": 99, "p99_9": 99.9, "max": 100}


def record(arrival: float, finish: float, install: float, prove: float):
    return JobRecord(
        job_id=0,
        tag="t",
        circuit_key="k",
        node_id="node-0",
        arrival_s=arrival,
        start_s=arrival,
        finish_s=finish,
        prove_model_s=prove,
        install_model_s=install,
        cache_hit=install == 0.0,
    )


ONE = [record(1.0, 3.0, 0.5, 1.5)]
#: latencies 1.0, 1.5, 1.5, 2.5, 2.0; finish order
FIVE = [
    record(0.0, 1.0, 0.25, 0.75),
    record(0.0, 1.5, 0.5, 1.0),
    record(0.5, 2.0, 0.0, 1.0),
    record(1.0, 3.5, 0.0, 2.0),
    record(2.0, 4.0, 0.5, 1.5),
]


class TestLatencyTail:
    @pytest.mark.parametrize(
        "values",
        [[], [2.0], [5.0, 1.0, 9.0, 3.0, 7.0], [0.1 * i for i in range(1000)]],
        ids=["empty", "one", "five", "thousand"],
    )
    def test_every_key_is_the_rounded_percentile(self, values):
        tail = latency_tail(values)
        assert list(tail) == list(FULL_TAIL)
        for key, q in QUANTILE.items():
            assert tail[key] == round(percentile(values, q), 6)

    def test_keys_select_and_order_the_block(self):
        values = [r.latency_s for r in FIVE]
        assert latency_tail(values, ("p50", "p95", "max")) == {
            "p50": 1.5,
            "p95": 2.4,
            "max": 2.5,
        }
        assert list(latency_tail(values, ("max", "p50"))) == ["max", "p50"]
        assert latency_tail(values, ()) == {}

    def test_max_is_the_sample_maximum(self):
        assert latency_tail([3.0, -1.0, 2.0], ("max",)) == {"max": 3.0}
        assert latency_tail([], ("max",)) == {"max": 0.0}


class TestRecordsSummary:
    def test_empty(self):
        assert records_summary([]) == {
            "makespan_s": 0.0,
            "throughput_jobs_per_s": 0.0,
            "latency_s": dict.fromkeys(FULL_TAIL, 0.0),
        }

    def test_one_record(self):
        assert records_summary(ONE) == {
            "makespan_s": 3.0,
            "throughput_jobs_per_s": 0.333,
            "latency_s": dict.fromkeys(FULL_TAIL, 2.0),
        }

    def test_five_records(self):
        assert records_summary(FIVE) == {
            "makespan_s": 4.0,
            "throughput_jobs_per_s": 1.25,
            "latency_s": {
                "p50": 1.5,
                "p95": 2.4,
                "p99": 2.48,
                "p99_9": 2.498,
                "max": 2.5,
            },
        }

    def test_tail_names_the_latency_keys(self):
        doc = records_summary(FIVE, ("p50", "p95", "p99", "p99_9"))
        assert list(doc) == ["makespan_s", "throughput_jobs_per_s", "latency_s"]
        assert list(doc["latency_s"]) == ["p50", "p95", "p99", "p99_9"]


class TestInstallSplit:
    def test_empty(self):
        assert install_split([]) == {
            "install_s": 0.0,
            "prove_s": 0.0,
            "install_share": 0.0,
        }

    def test_one_record(self):
        assert install_split(ONE) == {
            "install_s": 0.5,
            "prove_s": 1.5,
            "install_share": 0.25,
        }

    def test_five_records(self):
        assert install_split(FIVE) == {
            "install_s": 1.25,
            "prove_s": 6.25,
            "install_share": 0.1667,
        }


def test_cluster_model_block_is_built_from_the_helpers():
    traffic = OpenLoopTraffic("zipf-mixed", seed=3, max_jobs=12)
    cluster = ProvingCluster(
        ClusterConfig(num_nodes=2, node=NodeConfig(max_vars=traffic.max_vars()))
    )
    records = cluster.run(list(traffic.jobs()))
    model = cluster.summary()["model"]
    head = records_summary(records)
    split = install_split(records)
    assert list(model)[:3] == list(head)
    assert list(model)[-3:] == list(split)
    assert {key: model[key] for key in (*head, *split)} == {**head, **split}
