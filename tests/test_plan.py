"""The proof-cost plan layer: structure, DAG validity, constructors,
and the canonical HyperPlonk inventory (ISSUE 3 tentpole)."""

import dataclasses
import random

import pytest

from repro.gates import gate_by_id, high_degree_sweep_gate
from repro.hyperplonk import MultilinearKZG, TrapdoorSRS, preprocess
from repro.hyperplonk.circuit import GATE_TYPES
from repro.plan import (
    AcceleratorCostModel,
    FunctionalProverCostModel,
    HYPERPLONK_PHASES,
    MSMTask,
    PhaseCost,
    PolyProfile,
    ProofPlan,
    TermProfile,
    gate_type_by_name,
    hyperplonk_plan,
    opencheck_profile,
    phase_modmuls,
    plan_modmuls,
)
from repro.service.traffic import GATE_TYPES as traffic_gate_types
from repro.service.traffic import synthesize_circuit


class TestPlanStructure:
    @pytest.mark.parametrize("gate,k,s", [("vanilla", 3, 5),
                                          ("jellyfish", 5, 13)])
    def test_canonical_phase_list(self, gate, k, s):
        plan = hyperplonk_plan(gate, 10)
        assert tuple(p.name for p in plan.phases) == HYPERPLONK_PHASES
        assert plan.num_witnesses == k
        assert plan.num_selectors == s
        assert plan.num_claims == s + k + (2 * k + 1)
        assert plan.num_gates == 1 << 10

    @pytest.mark.parametrize("gate", ["vanilla", "jellyfish"])
    def test_msm_inventory_matches_paper(self, gate):
        """§IV-B3: one sparse MSM per witness column; wiring and opening
        each contribute an N-point and a 2N-point dense MSM."""
        plan = hyperplonk_plan(gate, 8)
        n = 1 << 8
        k = plan.num_witnesses
        witness = plan.phase("witness_msm").msms
        assert witness == tuple(MSMTask(n, sparse=True) for _ in range(k))
        for name in ("wiring_msm", "opening_msm"):
            assert plan.phase(name).msms == (MSMTask(n), MSMTask(2 * n))
        assert len([t for phase in plan.phases for t in phase.msms]) == k + 4

    def test_dag_edges_reference_earlier_phases(self):
        plan = hyperplonk_plan("vanilla", 6)
        seen = set()
        for phase in plan:
            assert set(phase.after) <= seen
            seen.add(phase.name)
        # the two identities must both precede the batched opening
        assert set(plan.phase("batch_evals").after) == {
            "zerocheck", "permcheck"}

    def test_sumcheck_profiles_come_from_gate_library(self):
        plan = hyperplonk_plan("vanilla", 6)
        zc = plan.sumcheck_profile("zerocheck")
        pc = plan.sumcheck_profile("permcheck")
        assert zc.has_fr and pc.has_fr
        assert plan.sumcheck_profile("opencheck").degree == 2
        with pytest.raises(ValueError, match="not a sumcheck phase"):
            plan.sumcheck_profile("witness_msm")

    def test_custom_zerocheck_substitution(self):
        custom = PolyProfile("hi", [TermProfile((("a", 9), ("fr", 1)))])
        plan = hyperplonk_plan("vanilla", 6, custom_zerocheck=custom)
        assert plan.sumcheck_profile("zerocheck") is custom
        # everything else keeps the vanilla structure
        assert plan.num_claims == hyperplonk_plan("vanilla", 6).num_claims

    def test_shape_key_and_phase_lookup(self):
        plan = hyperplonk_plan("jellyfish", 5)
        assert plan.shape_key == ("jellyfish", 5)
        with pytest.raises(KeyError, match="no phase"):
            plan.phase("nonexistent")

    def test_invalid_shapes(self):
        with pytest.raises(ValueError, match="unknown gate type"):
            hyperplonk_plan("plonkish", 10)
        with pytest.raises(ValueError, match="num_vars"):
            hyperplonk_plan("vanilla", 0)
        assert gate_type_by_name("vanilla").num_witnesses == 3

    def test_phase_validation(self):
        with pytest.raises(ValueError, match="unknown kind"):
            PhaseCost("x", "quantum")
        with pytest.raises(ValueError, match="no MSMTasks"):
            PhaseCost("x", "msm")
        with pytest.raises(ValueError, match="no profile"):
            PhaseCost("x", "sumcheck")

    def test_plan_rejects_bad_dags(self):
        ok = hyperplonk_plan("vanilla", 4)
        with pytest.raises(ValueError, match="duplicate phase"):
            ProofPlan("vanilla", 4, ok.phases + (ok.phases[0],))
        forward = (PhaseCost("a", "product_tree", after=("b",), rows=4),
                   PhaseCost("b", "product_tree", rows=4))
        with pytest.raises(ValueError, match="do not precede"):
            ProofPlan("vanilla", 4, forward)


def _all_profiles():
    profiles = [PolyProfile.from_gate(gate_by_id(gid)) for gid in range(25)]
    for degree in (2, 5, 9, 16, 30):
        for with_fr in (False, True):
            profiles.append(PolyProfile.from_gate(
                high_degree_sweep_gate(degree, with_fr)))
    profiles.append(opencheck_profile())
    return profiles


class TestProfileFacts:
    """``degree`` / ``unique_mles`` / ``has_fr`` are computed once per
    profile, which is only sound while a profile cannot change."""

    @pytest.mark.parametrize("profile", _all_profiles(),
                             ids=lambda p: p.name)
    def test_facts_equal_an_independent_recomputation(self, profile):
        term_degrees = [sum(power for _, power in t.factors)
                        for t in profile.terms]
        names = []
        for t in profile.terms:
            names += [n for n, _ in t.factors if n not in names]
        for _ in range(2):                      # first read, then the kept one
            assert [t.degree for t in profile.terms] == term_degrees
            assert profile.degree == max(term_degrees)
            assert list(profile.unique_mles) == names
            assert profile.has_fr is ("fr" in names)
        assert set(profile.mle_classes) >= set(names)

    def test_facts_are_evaluated_once_per_object(self):
        profile = PolyProfile.from_gate(gate_by_id(22))
        assert "degree" not in vars(profile)
        assert profile.degree == 7
        assert vars(profile)["degree"] == 7
        assert profile.unique_mles is profile.unique_mles

    def test_terms_cannot_go_stale(self):
        a, b = TermProfile((("a", 2),)), TermProfile((("b", 5), ("fr", 1)))
        given = [a]
        profile = PolyProfile("p", given)
        assert profile.terms == (a,) and profile.degree == 2
        given.append(b)                         # the caller's list is not ours
        assert profile.terms == (a,)
        with pytest.raises(AttributeError):
            profile.terms.append(b)
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.terms = (a, b)
        assert profile.degree == 2 and not profile.has_fr

    def test_equality_and_classes_as_before(self):
        t = TermProfile((("q1", 1), ("w1", 3)))
        assert PolyProfile("p", [t]) == PolyProfile("p", (t,))
        assert PolyProfile("p", [t]) != PolyProfile("q", [t])
        assert (PolyProfile("p", [t], {"q1": "selector"}).mle_classes
                == {"q1": "selector", "w1": "dense"})
        read, unread = PolyProfile("p", [t]), PolyProfile("p", [t])
        assert read.degree == 4                 # a kept fact is not a field
        assert read == unread


class TestPlanFromShape:
    def test_circuit_and_index_give_one_plan(self):
        """A plan is a function of (gate type, μ) alone, and a prover
        index carries its circuit's shape."""
        circuit = synthesize_circuit(GATE_TYPES["vanilla"], 3, witness_seed=2)
        kzg = MultilinearKZG(TrapdoorSRS(4, random.Random(3)))
        pidx, _ = preprocess(circuit, kzg)
        a = hyperplonk_plan(circuit.gate_type.name, circuit.num_vars)
        b = hyperplonk_plan(pidx.gate_type.name, pidx.num_vars)
        assert a == b == hyperplonk_plan("vanilla", 3)
        other = synthesize_circuit(GATE_TYPES["vanilla"], 3, witness_seed=9)
        assert hyperplonk_plan(other.gate_type.name, other.num_vars) == a

    def test_gate_type_by_name_reads_the_one_table(self):
        assert traffic_gate_types is GATE_TYPES
        assert sorted(GATE_TYPES) == ["jellyfish", "vanilla"]
        for name, gate_type in GATE_TYPES.items():
            assert gate_type.name == name
            assert gate_type_by_name(name) is gate_type
        with pytest.raises(ValueError, match="unknown gate type 'plonkish'"):
            gate_type_by_name("plonkish")


class TestCostModels:
    def test_plan_modmuls_covers_every_phase(self):
        plan = hyperplonk_plan("vanilla", 8)
        muls = plan_modmuls(plan)
        assert set(muls) == set(HYPERPLONK_PHASES)
        assert all(m > 0 for m in muls.values())

    def test_phase_modmuls_product_tree_closed_form(self):
        phase = PhaseCost("t", "product_tree", rows=8)
        assert phase_modmuls(phase, 3) == 7.0  # N - 1 tree multiplies

    def test_functional_cost_monotone_in_size_and_cached(self):
        model = FunctionalProverCostModel()
        costs = [model.shape_cost_s("vanilla", mu) for mu in (3, 4, 5, 6)]
        assert costs == sorted(costs) and costs[0] > 0
        assert model.shape_cost_s("vanilla", 3) == costs[0]  # cache hit

    def test_functional_cost_calibration(self):
        base = FunctionalProverCostModel()
        fitted = base.calibrated([("vanilla", 4, 0.5), ("vanilla", 5, 1.0)])
        assert fitted.s_per_modmul > 0
        with pytest.raises(ValueError):
            base.calibrated([])

    def test_accelerator_cost_model_matches_breakdown(self):
        from repro.hw.accelerator import ZkPhireModel
        from repro.hw.config import AcceleratorConfig

        hw = ZkPhireModel(AcceleratorConfig.exemplar())
        model = AcceleratorCostModel(hw)
        assert (model.shape_cost_s("jellyfish", 20)
                == hw.prove_latency_s("jellyfish", 20))

    def test_cpu_cost_model_price_is_phase_sum(self):
        from repro.hw.cpu_baseline import CpuModel

        price = CpuModel(threads=32).price(hyperplonk_plan("vanilla", 12))
        assert price.total_s == pytest.approx(sum(price.seconds.values()))


class TestWorkloadAnnotations:
    def test_scenario_expected_cost_weighted_mean(self):
        from repro.workloads import SCENARIOS, scenario_cost_annotations

        model = FunctionalProverCostModel()
        ann = scenario_cost_annotations(model)
        assert set(ann) == set(SCENARIOS)
        for name, scenario in SCENARIOS.items():
            lo = min(model.shape_cost_s(g, s) for g, _ in scenario.gate_mix
                     for s, _ in scenario.size_weights)
            hi = max(model.shape_cost_s(g, s) for g, _ in scenario.gate_mix
                     for s, _ in scenario.size_weights)
            assert lo <= ann[name] <= hi
