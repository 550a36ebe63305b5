"""Tests for the Figure-2 graph-decomposition scheduler."""

import pytest

from repro.gates import gate_by_id, high_degree_sweep_gate
from repro.hw.scheduler import (
    PolyProfile,
    TermProfile,
    nodes_for_degree,
    schedule_polynomial,
)


def profile_for(gate_id):
    return PolyProfile.from_gate(gate_by_id(gate_id))


class TestNodesForDegree:
    def test_single_node_up_to_capacity(self):
        for d in range(1, 7):
            assert nodes_for_degree(d, ees=6) == 1

    def test_paper_example_six_ees(self):
        """§VI-A2: with 6 EEs, degree 1-6 -> 1 node, degree 7-11 -> 2."""
        for d in range(7, 12):
            assert nodes_for_degree(d, ees=6) == 2
        assert nodes_for_degree(12, ees=6) == 3

    def test_three_ees_figure2(self):
        """Figure 2: degree-6 term with 3 EEs needs 3 nodes (3+2+1... the
        accumulation schedule covers 3, then 2+tmp, then 1+tmp)."""
        assert nodes_for_degree(6, ees=3) == 3
        assert nodes_for_degree(3, ees=3) == 1
        assert nodes_for_degree(4, ees=3) == 2

    def test_two_ees(self):
        # each extra factor beyond the first two needs its own node
        assert nodes_for_degree(2, ees=2) == 1
        assert nodes_for_degree(5, ees=2) == 4


class TestSchedule:
    def test_figure2_shape(self):
        """The Figure-2 polynomial: degree-6 term + degree-3 term, 3 EEs
        -> 4 steps total, one Tmp buffer."""
        poly = PolyProfile(
            name="fig2",
            terms=[
                TermProfile(tuple((c, 1) for c in "abcdef")),
                TermProfile((("h", 1), ("k", 1), ("n", 1))),
            ],
        )
        sched = schedule_polynomial(poly, ees=3, pls=3)
        assert sched.num_steps == 4
        assert sched.tmp_buffers_required() == 1
        # term 2 fits one node
        term2_nodes = [n for n in sched.nodes if n.term_index == 1]
        assert len(term2_nodes) == 1
        assert not term2_nodes[0].uses_tmp

    def test_multiplicity_occupies_slots(self):
        """w^5 occupies five lane ports -> splits across nodes at E=3."""
        poly = PolyProfile(name="p", terms=[TermProfile((("w", 5),))])
        sched = schedule_polynomial(poly, ees=3, pls=3)
        assert sched.num_steps == nodes_for_degree(5, 3) == 2

    def test_repeated_mle_fetched_once(self):
        """An MLE used in several terms appears in new_names only once."""
        poly = PolyProfile(
            name="p",
            terms=[
                TermProfile((("a", 1), ("e", 1))),
                TermProfile((("c", 1), ("e", 1))),
            ],
        )
        sched = schedule_polynomial(poly, ees=4, pls=3)
        fetches = [n for node in sched.nodes for n in node.new_names]
        assert fetches.count("e") == 1

    def test_initiation_interval(self):
        poly = profile_for(22)  # degree 7 -> 8 extensions
        sched = schedule_polynomial(poly, ees=7, pls=5)
        assert sched.extensions == 8
        assert sched.initiation_interval() == 2  # ceil(8/5)
        assert sched.initiation_interval(8) == 1
        with pytest.raises(ValueError):
            sched.initiation_interval(0)

    def test_cycles_per_pair_scales_with_steps(self):
        lo = schedule_polynomial(profile_for(20), ees=7, pls=5)
        hi = schedule_polynomial(profile_for(20), ees=2, pls=5)
        assert hi.cycles_per_pair() >= lo.cycles_per_pair()

    def test_sweep_gate_monotone_steps(self):
        """Scheduler-induced jumps (Fig 8): steps grow stepwise with
        degree at fixed EEs."""
        steps = []
        for d in range(2, 31):
            poly = PolyProfile.from_gate(high_degree_sweep_gate(d))
            steps.append(schedule_polynomial(poly, ees=6, pls=5).num_steps)
        assert steps == sorted(steps)
        assert len(set(steps)) > 3  # several jumps across the sweep

    def test_min_ees_validated(self):
        with pytest.raises(ValueError):
            schedule_polynomial(profile_for(20), ees=1, pls=3)

    def test_all_table1_gates_schedulable(self):
        for gid in range(25):
            for ees in (2, 4, 7):
                sched = schedule_polynomial(profile_for(gid), ees=ees, pls=5)
                assert sched.num_steps >= len(profile_for(gid).terms)
                assert sched.tmp_buffers_required() <= 1


class TestPolyProfile:
    def test_from_gate_classes(self):
        poly = profile_for(22)
        assert poly.mle_classes["q1"] == "selector"
        assert poly.mle_classes["w1"] == "sparse"
        assert poly.mle_classes["fr"] == "dense"
        assert poly.has_fr

    def test_degree_and_uniques(self):
        poly = profile_for(20)
        assert poly.degree == 4
        assert len(poly.unique_mles) == 9

    def test_defaults_dense(self):
        poly = PolyProfile(name="p", terms=[TermProfile((("Z", 1),))])
        assert poly.mle_classes["Z"] == "dense"
        assert not poly.has_fr

    def test_product_muls_per_point(self):
        poly = PolyProfile(name="p", terms=[
            TermProfile((("a", 2), ("b", 1))),
            TermProfile((("c", 1),)),
        ])
        assert poly.product_muls_per_point == (3 - 1) + (1 - 1)
        assert profile_for(20).product_muls_per_point == sum(
            t.degree - 1 for t in profile_for(20).terms)

    def test_equal_terms_share_one_schedule(self):
        """The schedule is keyed by the terms' factors alone: a profile
        built afresh, or one differing only in name and storage classes,
        gets the very same object."""
        poly = profile_for(22)
        renamed = PolyProfile(
            name="other", terms=poly.terms,
            mle_classes={k: "dense" for k in poly.mle_classes})
        sched = schedule_polynomial(poly, ees=4, pls=5)
        assert schedule_polynomial(profile_for(22), ees=4, pls=5) is sched
        assert schedule_polynomial(renamed, ees=4, pls=5) is sched
        assert sched.term_factors == tuple(t.factors for t in poly.terms)
