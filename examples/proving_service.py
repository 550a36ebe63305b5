"""Proving service demo: serve a traffic scenario end to end.

Builds a ``ProvingService`` (batched, cached, fixed-base MSM), draws
eight jobs of the Zipf-mixed stream (seeded Poisson arrivals, tenants
with SLO tiers), drains them in waves,
verifies every proof in-service, and shows one differential check: a
proof served through the pipeline is bit-identical to a direct
``HyperPlonkProver.prove()`` call against the same SRS.

Run:  python examples/proving_service.py

(The same pipeline is scriptable via ``python -m repro.service`` /
``repro-serve``; see DESIGN.md §5.)
"""

import random

from repro.hyperplonk import (
    HyperPlonkProver,
    MultilinearKZG,
    TrapdoorSRS,
    preprocess,
)
from repro.service import ProvingService, ServiceConfig
from repro.traffic import OpenLoopTraffic


def main() -> None:
    # 1. The job stream over a named traffic mix (circuit sizes, gate
    #    families, a base rate; repro.workloads): seeded arrivals, and
    #    tenants whose SLO tiers set each job's request class and deadline.
    traffic = OpenLoopTraffic("zipf-mixed", seed=2024, max_jobs=8)
    jobs = list(traffic.jobs())
    print(f"scenario: {traffic.scenario.name} — "
          f"{traffic.scenario.description}")

    # 2. The service: content-addressed index cache, same-circuit
    #    batching, a worker pool, in-service verification, and a
    #    cost-aware drain order (shortest predicted job first, priced by
    #    the shared repro.plan layer).
    config = ServiceConfig(
        max_vars=traffic.max_vars(),
        executor="process",
        num_workers=2,
        verify_proofs=True,
        drain_policy="sjf",
    )
    with ProvingService(config) as service:
        results = service.run(jobs, wave_s=0.5)
        summary = service.summary()

    for r in results[:4]:
        print(f"  job {r.job_id} [{r.tag}] {r.request_class.value:>9}: "
              f"proof {r.proof.size_bytes()} B, prove {r.prove_s:.3f} s, "
              f"batch of {r.batch_size}, "
              f"{'cache hit' if r.cache_hit else 'cache miss'}")
    print(f"  ... {len(results)} proofs total, all verified ✔")
    cache = summary["cache"]
    print(f"throughput: {summary['throughput_proofs_per_s']:.2f} proofs/s; "
          f"index cache {cache['hits']} hits / {cache['misses']} misses; "
          f"p95 latency {summary['latency_s']['p95'] * 1e3:.0f} ms")
    pred = summary["prediction"]
    print(f"plan cost model: {pred['predicted_total_s']:.2f} s predicted vs "
          f"{pred['actual_total_s']:.2f} s proved "
          f"(est. capacity "
          f"{summary['estimated_capacity_proofs_per_s']['predicted']:.1f} "
          f"proofs/s)")

    # 3. Differential check: the served proof equals the one-shot path.
    job = results[0]
    circuit = next(j.circuit for j in jobs if j.job_id == job.job_id)
    srs = TrapdoorSRS(config.max_vars, random.Random(config.srs_seed))
    kzg = MultilinearKZG(srs)
    prover_index, _ = preprocess(circuit, kzg)
    direct = HyperPlonkProver(circuit, prover_index, kzg).prove()
    assert direct == job.proof
    print("service proof is bit-identical to the direct prover ✔")


if __name__ == "__main__":
    main()
