"""Cross-validation: hardware-model op counts vs the functional prover.

DESIGN.md §4: the performance model's predicted operation counts must
match what the instrumented functional SumCheck actually does.
(Full-protocol op tallies are pinned plan-side by
``tests/test_plan_crosscheck.py``, DESIGN.md §6.)  The two
sides count slightly differently by construction:

* product-lane muls: the model charges (deg_t - 1) multiplies per term
  per evaluation point (a product of deg_t extension values), while the
  functional prover also multiplies by the term coefficient slot — one
  extra mul per term per point;
* update muls: the functional prover folds after every round including
  the last (producing the final evaluations), one extra fold per MLE
  versus the model's rounds 2..μ accounting.

These offsets are exact, so the identities below pin both bookkeepings.
"""


import pytest

from repro.fields import Fr, OpCounter
from repro.fields.counters import recording
from repro.gates import gate_by_id
from repro.hw.config import SumCheckUnitConfig
from repro.hw.scheduler import PolyProfile
from repro.hw.sumcheck_unit import SumCheckUnitModel
from repro.mle import DenseMLE, VirtualPolynomial
from repro.sumcheck import Transcript, prove_sumcheck

NUM_VARS = 5


def functional_counts(gate_id: int, rng) -> tuple[OpCounter, VirtualPolynomial]:
    spec = gate_by_id(gate_id)
    scalars = {s: rng.randrange(1, Fr.modulus)
               for s in spec.compiled.scalar_names}
    terms = spec.compiled.bind(Fr, scalars)
    mles = {n: DenseMLE.random(Fr, NUM_VARS, rng)
            for n in spec.compiled.mle_names}
    vp = VirtualPolynomial(Fr, terms, mles)
    with recording() as counter:
        prove_sumcheck(vp, Transcript(Fr))
    return counter, vp


@pytest.mark.parametrize("gate_id", [0, 1, 2, 3, 20, 22, 24])
class TestOpCountCrossValidation:
    def test_product_lane_muls(self, gate_id, rng):
        counter, vp = functional_counts(gate_id, rng)
        d = vp.degree
        pairs_total = (1 << NUM_VARS) - 1
        sum_deg = sum(t.degree for t in vp.terms)
        expected = pairs_total * (d + 1) * sum_deg
        assert counter.pl_mul == expected

    def test_model_pl_muls_offset_by_coefficient_slot(self, gate_id, rng):
        counter, vp = functional_counts(gate_id, rng)
        d = vp.degree
        pairs_total = (1 << NUM_VARS) - 1
        num_terms = len(vp.terms)
        model_pl = pairs_total * (d + 1) * sum(
            t.degree - 1 for t in vp.terms)
        assert counter.pl_mul == model_pl + pairs_total * (d + 1) * num_terms

    def test_update_muls(self, gate_id, rng):
        counter, vp = functional_counts(gate_id, rng)
        num_uniq = len(vp.unique_mle_names)
        # μ folds per MLE: sizes 2^{μ-1} + ... + 1 = 2^μ - 1 outputs
        expected = num_uniq * ((1 << NUM_VARS) - 1)
        assert counter.ee_mul == expected


class TestModelUsefulWorkConsistency:
    """The model's useful-muls tally obeys the same closed forms."""

    @pytest.mark.parametrize("gate_id", [2, 20, 22])
    def test_useful_muls_closed_form(self, gate_id):
        profile = PolyProfile.from_gate(gate_by_id(gate_id))
        cfg = SumCheckUnitConfig(pes=4, ees_per_pe=4, pls_per_pe=5,
                                 sram_bank_words=1024)
        model = SumCheckUnitModel(cfg, 2048)
        mu = 10
        run = model.run(profile, mu, fuse_fr=False)
        d = profile.degree
        pairs_total = (1 << mu) - 1
        pl = pairs_total * (d + 1) * sum(t.degree - 1 for t in profile.terms)
        # updates: rounds 2..μ, two muls per pair per distinct MLE
        upd = 2 * len(profile.unique_mles) * (pairs_total - (1 << (mu - 1)))
        assert run.useful_muls == pytest.approx(pl + upd)

    def test_fused_fr_adds_build_muls(self):
        profile = PolyProfile.from_gate(gate_by_id(20))
        cfg = SumCheckUnitConfig(pes=4, ees_per_pe=4, pls_per_pe=5)
        model = SumCheckUnitModel(cfg, 2048)
        mu = 8
        fused = model.run(profile, mu, fuse_fr=True)
        plain = model.run(profile, mu, fuse_fr=False)
        # Build-MLE fusion adds 2 muls per round-1 pair
        assert fused.useful_muls - plain.useful_muls == 2 * (1 << (mu - 1))


class TestSchedulerAgainstFunctionalReuse:
    def test_distinct_fetch_set_matches_unique_mles(self, rng):
        """Every unique MLE is fetched exactly once per round."""
        from repro.hw.scheduler import schedule_polynomial

        for gate_id in (20, 22, 24):
            profile = PolyProfile.from_gate(gate_by_id(gate_id))
            sched = schedule_polynomial(profile, ees=4, pls=5)
            fetched = [n for node in sched.nodes for n in node.new_names]
            assert sorted(fetched) == sorted(profile.unique_mles)

    def test_factor_slots_cover_total_degree(self):
        from repro.hw.scheduler import schedule_polynomial

        for gate_id in range(25):
            profile = PolyProfile.from_gate(gate_by_id(gate_id))
            for ees in (2, 3, 7):
                sched = schedule_polynomial(profile, ees=ees, pls=5)
                slots = sum(n.factor_slots for n in sched.nodes)
                total_degree = sum(t.degree for t in profile.terms)
                assert slots == total_degree
