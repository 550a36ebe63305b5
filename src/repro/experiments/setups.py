"""Shared experiment setups: training sets, reference configs, fast grids."""

from __future__ import annotations

from itertools import product

from repro.gates import gate_by_id, high_degree_sweep_gate
from repro.hw.config import MSMUnitConfig, SumCheckUnitConfig
from repro.hw.scheduler import PolyProfile
from repro.workloads.catalog import PARETO_WORKLOAD_CPU_S, PARETO_WORKLOAD_LOG2

#: evaluation problem size for standalone-SumCheck experiments (§VI-A)
SUMCHECK_NUM_VARS = 24

#: Fig-6 area budget: a 4-core EPYC slice in 7nm (§VI-A1)
FIG6_AREA_BUDGET_MM2 = 37.0

FIG6_LAMBDA = 0.8

PARETO_NUM_VARS = PARETO_WORKLOAD_LOG2
PARETO_CPU_S = PARETO_WORKLOAD_CPU_S


def training_set(num_vars: int = SUMCHECK_NUM_VARS):
    """The Table I 'training set' polynomials 0-19 (§VI-A1)."""
    out = []
    for gid in range(20):
        spec = gate_by_id(gid)
        out.append((f"Poly {gid}", PolyProfile.from_gate(spec), num_vars))
    return out


def sweep_profile(degree: int, with_fr: bool = False) -> PolyProfile:
    return PolyProfile.from_gate(high_degree_sweep_gate(degree, with_fr))


# -- reduced ("fast") grids: every knob still varies -------------------------

def fast_sc_grid(fixed_prime: bool = True):
    return [
        SumCheckUnitConfig(pes=p, ees_per_pe=e, pls_per_pe=l,
                           sram_bank_words=s, fixed_prime=fixed_prime)
        for p, e, l, s in product((2, 8, 16, 32), (2, 4, 7), (3, 5, 8),
                                  (1024, 8192))
    ]


def fast_msm_grid(fixed_prime: bool = True):
    return [
        MSMUnitConfig(pes=p, window_bits=w, points_per_pe=pp,
                      fixed_prime=fixed_prime)
        for p, w, pp in product((2, 8, 16, 32), (8, 9, 10), (4096, 8192))
    ]
