"""Node-level watts on top of the per-module Table V power model.

:func:`repro.hw.power.accelerator_power` reproduces the paper's
per-module power column (area × density + HBM PHYs); a fleet scheduler
needs the next rollup — what one *node* draws while proving, while
(re)building a circuit index on the host, and while idle.
:class:`NodePowerModel` carries those three levels and
:func:`node_watts` derives them from a fleet time-model preset:

* ``accelerator`` — prove watts are the zkPHIRE exemplar's total
  (compute + SRAM + interconnect + HBM); install watts are the host CPU
  package that runs the Pippenger index build (installs are host-side
  by construction — see :mod:`repro.cluster.timemodel`).
* ``functional`` — both phases run on the host CPU, so prove and
  install draw the same package power.

Idle draw is a fixed fraction of the larger busy rail (clock-gated
datapath, powered PHYs/DRAM).  The model is deliberately phase-constant
within prove: per-phase watts would need the paper's per-module
activity factors, which Table V averages away; a
:class:`~repro.plan.proof_plan.ProofPlan` enters through the *phase
boundaries* the suspend path checkpoints at
(:mod:`repro.carbon.runtime`), not through the wattage.
"""

from __future__ import annotations

from dataclasses import dataclass

#: host CPU package watts while building + committing a circuit index
#: (a Pippenger sweep keeps a server package at its sustained TDP)
HOST_INSTALL_WATTS = 250.0

#: host CPU package watts for the all-functional (CPU-fleet) preset
FUNCTIONAL_NODE_WATTS = 350.0

#: idle draw as a fraction of the larger busy rail — clock-gated logic
#: plus always-on SRAM retention, PHYs, and fan overhead
IDLE_POWER_FRACTION = 0.12


@dataclass(frozen=True)
class NodePowerModel:
    """Per-node draw at the three levels the cluster sim distinguishes."""

    #: watts while the prove phases run (accelerator or host CPU)
    prove_w: float
    #: watts while a host-side index install runs
    install_w: float
    #: watts while the node is up but neither proving nor installing
    idle_w: float
    #: preset name (or "custom") carried into summaries
    name: str = "custom"

    def __post_init__(self):
        if self.prove_w <= 0 or self.install_w <= 0:
            raise ValueError("prove_w and install_w must be > 0")
        if self.idle_w < 0:
            raise ValueError("idle_w must be >= 0")

    @property
    def busy_w(self) -> float:
        """The peak busy rail — what the fleet power cap budgets per
        active node (a cap must hold at either phase's draw)."""
        return max(self.prove_w, self.install_w)

    @classmethod
    def accelerator(cls) -> "NodePowerModel":
        """The zkPHIRE exemplar node: Table V total + host installs."""
        from repro.hw.area import accelerator_area
        from repro.hw.config import AcceleratorConfig
        from repro.hw.power import accelerator_power

        config = AcceleratorConfig.exemplar()
        prove_w = accelerator_power(
            accelerator_area(config), config.bandwidth_gbps
        ).total
        return cls(
            prove_w=round(prove_w, 6),
            install_w=HOST_INSTALL_WATTS,
            idle_w=round(
                IDLE_POWER_FRACTION * max(prove_w, HOST_INSTALL_WATTS), 6
            ),
            name="accelerator",
        )

    @classmethod
    def functional(cls) -> "NodePowerModel":
        """An all-CPU node: one package power for both busy phases."""
        return cls(
            prove_w=FUNCTIONAL_NODE_WATTS,
            install_w=FUNCTIONAL_NODE_WATTS,
            idle_w=round(IDLE_POWER_FRACTION * FUNCTIONAL_NODE_WATTS, 6),
            name="functional",
        )


def node_watts(time_model) -> NodePowerModel:
    """The :class:`NodePowerModel` matching a fleet time model.

    Accepts a :class:`~repro.cluster.timemodel.FleetTimeModel` or a
    preset name, so the two pricing layers — seconds and watts — are
    derived from one declaration.  Custom time models must supply an
    explicit power model instead (see
    :class:`~repro.carbon.runtime.CarbonConfig`).
    """
    name = time_model if isinstance(time_model, str) else time_model.name
    if name == "accelerator":
        return NodePowerModel.accelerator()
    if name == "functional":
        return NodePowerModel.functional()
    raise ValueError(
        f"no node power preset for time model {name!r}; "
        "pass an explicit NodePowerModel in the CarbonConfig"
    )
