"""Full-protocol zkPHIRE model: pricing a HyperPlonk ProofPlan.

Composes the per-module models into an end-to-end prover latency with
the paper's schedule (§IV-A), including the Masking-ZeroCheck
optimization: Gate Identity's ZeroCheck runs concurrently with the Wire
Identity MSMs (MSMs dominate and have low bandwidth pressure, so the
overlap hides ZeroCheck latency almost entirely).

The *inventory* — which MSMs, SumChecks, and Forest passes one proof
performs, at which sizes — is no longer derived here: it comes from the
shared :class:`repro.plan.ProofPlan` phase DAG (§IV-B3 maps to the
plan's ``witness_msm`` / ``wiring_msm`` / ``opening_msm`` phases).
:meth:`ZkPhireModel.price` prices any plan; :meth:`ZkPhireModel.breakdown`
is the shape-level convenience that builds the canonical plan first.
What stays here is purely the *hardware schedule*: which phases overlap
on the accelerator (:class:`ProtocolBreakdown`'s properties).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gates.library import gate_by_id
from repro.hw.config import AcceleratorConfig
from repro.hw.forest import ForestModel
from repro.hw.mle_combine import MLECombineModel
from repro.hw.msm_unit import MSMUnitModel
from repro.hw.permquot import PermQuotModel
from repro.hw.sumcheck_unit import SumCheckUnitModel
from repro.plan import (
    OPENCHECK_POINTS,
    PolyProfile,
    ProofPlan,
    gate_type_by_name,
    hyperplonk_plan,
    opencheck_profile,
)

__all__ = [
    "OPENCHECK_POINTS",
    "ProtocolBreakdown",
    "ZkPhireModel",
    "gate_type_by_name",
    "opencheck_profile",
    "proof_size_bytes",
]


@dataclass
class ProtocolBreakdown:
    """Per-step latencies (seconds)."""

    witness_msm: float
    zerocheck: float
    permquot: float
    prod_tree: float
    wiring_msm: float
    permcheck: float
    batch_evals: float
    mle_combine: float
    opencheck: float
    opening_msm: float
    masked: bool

    @property
    def wire_msm_phase(self) -> float:
        """PermQuot streams into the MSM unit (Fig 5: one-way transfer),
        so generation and the φ/π̃ commitment MSMs overlap."""
        return max(self.permquot + self.prod_tree, self.wiring_msm)

    @property
    def wire_identity(self) -> float:
        return self.wire_msm_phase + self.permcheck

    @property
    def batch_and_open(self) -> float:
        """The final opening MSMs overlap the OpenCheck SumCheck (the
        quotient streams feed the MSM unit as they are produced)."""
        return (self.batch_evals + self.mle_combine
                + max(self.opencheck, self.opening_msm))

    @property
    def total(self) -> float:
        serial = (self.witness_msm + self.wire_identity + self.batch_and_open)
        if self.masked:
            # ZeroCheck overlaps the Wire-Identity MSM phase (masking,
            # §IV-A): only its excess over that phase is exposed
            exposed_zc = max(0.0, self.zerocheck - self.wire_msm_phase)
            return serial + exposed_zc
        return serial + self.zerocheck

    def as_dict(self) -> dict[str, float]:
        return {
            "Witness MSM": self.witness_msm,
            "ZeroCheck": self.zerocheck,
            "PermQuot": self.permquot,
            "Prod Tree": self.prod_tree,
            "Wiring MSM": self.wiring_msm,
            "PermCheck": self.permcheck,
            "Batch Evals": self.batch_evals,
            "MLE Combine": self.mle_combine,
            "OpenCheck": self.opencheck,
            "PolyOpen MSM": self.opening_msm,
        }

    def phase_groups(self) -> dict[str, float]:
        """The paper's four top-level protocol phases (Fig 12b grouping),
        with the accelerator's overlaps applied."""
        return {
            "Witness MSMs": self.witness_msm,
            "Gate Identity": self.zerocheck,
            "Wire Identity": self.wire_identity,
            "Batch Evals & Poly Open": self.batch_and_open,
        }


class ZkPhireModel:
    """End-to-end prover-latency model for one zkPHIRE design point."""

    def __init__(self, config: AcceleratorConfig):
        self.config = config
        bw, f = config.bandwidth_gbps, config.freq_ghz
        self.sumcheck = SumCheckUnitModel(config.sumcheck, bw, f)
        self.msm = MSMUnitModel(config.msm, bw, f)
        self.forest = ForestModel(config.forest, bw, f)
        self.permquot = PermQuotModel(config.permquot, bw, f)
        self.mle_combine = MLECombineModel(bw, f)

    # -- the model ---------------------------------------------------------------
    def price(self, plan: ProofPlan) -> ProtocolBreakdown:
        """Price every phase of ``plan`` on this design point.

        The plan supplies the inventory (MSM sizes/sparsity, SumCheck
        profiles, Forest pass shapes); this model supplies per-module
        latencies and the overlap schedule.  The ten phases fall into
        three groups that share no configuration knob, which is what
        lets a sweep price each unit once and compose
        (:func:`repro.hw.dse.accelerator_dse`).
        """
        return ProtocolBreakdown(
            **self.sumcheck_phases(plan),
            **self.msm_phases(plan),
            **self.bandwidth_phases(plan),
            masked=self.config.mask_zerocheck,
        )

    def sumcheck_phases(self, plan: ProofPlan) -> dict[str, float]:
        """The phases ``config.sumcheck`` decides: its three SumChecks
        and the two kernels of the Forest sized from it."""
        mu = plan.num_vars

        def sumcheck_latency(name: str) -> float:
            phase = plan.phase(name)
            return self.sumcheck.run(phase.poly, mu,
                                     fuse_fr=phase.fuse_fr).latency_s

        return {
            "zerocheck": sumcheck_latency("zerocheck"),
            "prod_tree": self.forest.product_tree(
                plan.phase("prod_tree").rows).latency_s,
            "permcheck": sumcheck_latency("permcheck"),
            "batch_evals": self.forest.batch_eval(
                plan.phase("batch_evals").streams,
                plan.phase("batch_evals").rows).latency_s,
            "opencheck": sumcheck_latency("opencheck"),
        }

    def msm_phases(self, plan: ProofPlan) -> dict[str, float]:
        """The phases ``config.msm`` decides: every MSM the plan lists."""
        def msm_latency(name: str) -> float:
            # an in-order fold: sum() of floats is compensated from 3.12
            total = 0
            for t in plan.phase(name).msms:
                total += self.msm.latency_s(t.points, sparse=t.sparse)
            return total

        return {
            "witness_msm": msm_latency("witness_msm"),
            "wiring_msm": msm_latency("wiring_msm"),
            "opening_msm": msm_latency("opening_msm"),
        }

    def bandwidth_phases(self, plan: ProofPlan) -> dict[str, float]:
        """The phases neither swept unit touches (bandwidth, clock and
        the fixed PermQuot configuration only)."""
        pq_phase = plan.phase("permquot")
        return {
            "permquot": self.permquot.run(pq_phase.rows,
                                          pq_phase.columns).latency_s,
            "mle_combine": self.mle_combine.run(
                plan.phase("mle_combine").rows,
                streams=plan.phase("mle_combine").streams).latency_s,
        }

    def breakdown(self, gate_type_name: str, num_vars: int,
                  custom_zerocheck: PolyProfile | None = None) -> ProtocolBreakdown:
        """Model a full proof for 2^num_vars gates.

        ``custom_zerocheck`` substitutes the Gate-Identity polynomial
        (used by the high-degree sweep, Fig 14).
        """
        return self.price(hyperplonk_plan(gate_type_name, num_vars,
                                          custom_zerocheck=custom_zerocheck))

    def prove_latency_s(self, gate_type_name: str, num_vars: int,
                        custom_zerocheck: PolyProfile | None = None) -> float:
        return self.breakdown(gate_type_name, num_vars,
                              custom_zerocheck).total


def proof_size_bytes(gate_type_name: str, num_vars: int) -> int:
    """Analytic proof-size model (Table IX's 4-5 KB column).

    HyperPlonk batches the gate and wire identities into one SumCheck
    over a random combination, so the proof carries a single μ-round
    SumCheck at the maximum degree plus the degree-2 OpenCheck; round
    polynomials are sent as d coefficients (one is implied by the running
    claim).  Commitments and quotients are 48-byte compressed G1 points.
    """
    gate_type = gate_type_by_name(gate_type_name)
    zc_d = gate_by_id(gate_type.zerocheck_gate_id).degree
    pc_d = gate_by_id(gate_type.permcheck_gate_id).degree
    batched_d = max(zc_d, pc_d)
    commits = gate_type.num_witnesses + 2            # witnesses + φ + π̃
    sumcheck_scalars = num_vars * batched_d          # OpenCheck folds in
    final_evals = len(gate_type.selector_names) + 2 * gate_type.num_witnesses + 4
    openings = 48 * num_vars + 2 * 32                # one batched KZG opening
    return (48 * commits + 32 * (sumcheck_scalars + final_evals) + openings)
