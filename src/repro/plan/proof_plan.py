"""The declarative proof-cost plan: HyperPlonk as a phase DAG.

A :class:`ProofPlan` describes *what work* one HyperPlonk proof performs
— the witness sparse MSMs, the Gate-Identity ZeroCheck, the Permutation
Quotient Generator pass, the product tree, the wiring dense MSMs, the
PermCheck ZeroCheck, and the batched openings — as a small DAG of
:class:`PhaseCost` nodes whose sizes follow from the circuit shape
(gate type, 2^μ gates).  Before this layer existed the same inventory
was re-derived independently by ``hw.accelerator``, ``hw.cpu_baseline``,
``hw.dse`` and the breakdown experiments; now they all price the one
shared plan (DESIGN.md §6).

The plan layer sits between the gate library / scheduler profiles and
every consumer: ``repro.hw`` prices plans in accelerator or CPU seconds,
``repro.service`` schedules jobs by plan cost, and ``repro.workloads``
annotates traffic scenarios with expected per-job cost.  It depends only
on :mod:`repro.gates` and the
:class:`~repro.plan.profiles.PolyProfile` vocabulary (born in
``repro.hw.scheduler``, which still re-exports it) — never on the
models that consume it.

Semantic anchor: :meth:`ProofPlan.predicted_prover_ops` states, in
closed form, exactly which operation tallies an instrumented
``HyperPlonkProver.prove()`` run produces
(``tests/test_plan_crosscheck.py`` pins the identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from repro.gates.library import gate_by_id
from repro.hyperplonk.circuit import GATE_TYPES, GateType
from repro.plan.profiles import PolyProfile, TermProfile


def gate_type_by_name(name: str) -> GateType:
    """Resolve a gate-family name to its :class:`GateType`."""
    try:
        return GATE_TYPES[name]
    except KeyError:
        raise ValueError(f"unknown gate type {name!r}") from None


#: distinct opening points in the protocol (Table I row 24 has six
#: y_i · fr_i terms; polynomials opened at the same point are first
#: random-linear-combined by the MLE Combine module)
OPENCHECK_POINTS = 6


def opencheck_profile(num_points: int = OPENCHECK_POINTS) -> PolyProfile:
    """Table I row 24: Σ_i y_i(x) · eq_i(x) over the distinct opening
    points, degree 2.  y_i is the pre-combined polynomial for point i."""
    terms = [
        TermProfile(((f"y{i}", 1), (f"fr{i}", 1))) for i in range(num_points)
    ]
    return PolyProfile(name=f"opencheck-{num_points}", terms=terms)


#: the vocabulary of phase kinds a cost model must know how to price
PHASE_KINDS = (
    "msm",
    "sumcheck",
    "permquot",
    "product_tree",
    "batch_eval",
    "mle_combine",
)

#: canonical phase names of the HyperPlonk plan, in schedule order
HYPERPLONK_PHASES = (
    "witness_msm",
    "zerocheck",
    "permquot",
    "prod_tree",
    "wiring_msm",
    "permcheck",
    "batch_evals",
    "mle_combine",
    "opencheck",
    "opening_msm",
)


@dataclass(frozen=True)
class MSMTask:
    """One multi-scalar multiplication: how many points, and whether the
    scalar column is sparse (~90% zero/one witness data, §IV-B3)."""

    points: int
    sparse: bool = False


@dataclass(frozen=True)
class PhaseCost:
    """One node of the proof DAG: a unit of work a cost model can price.

    Only the fields relevant to ``kind`` are populated:

    ``msm``            ``msms`` (one :class:`MSMTask` per MSM, in order)
    ``sumcheck``       ``poly`` (+ ``fuse_fr``: build the ZeroCheck
                       randomizer in-datapath; ``None`` = "poly has fr",
                       matching the SumCheck unit's default), over μ vars
    ``permquot``       ``rows`` × ``columns`` quotient generation
    ``product_tree``   ``rows``-leaf tree reduction
    ``batch_eval``     ``streams`` claims over ``rows`` entries
    ``mle_combine``    ``streams``-way RLC over ``rows`` entries
    """

    name: str
    kind: str
    #: names of phases that must complete first (DAG edges)
    after: tuple[str, ...] = ()
    msms: tuple[MSMTask, ...] = ()
    poly: PolyProfile | None = None
    fuse_fr: bool | None = None
    rows: int = 0
    columns: int = 0
    streams: int = 0

    def __post_init__(self):
        if self.kind not in PHASE_KINDS:
            raise ValueError(
                f"phase {self.name!r}: unknown kind {self.kind!r}; "
                f"choose from {PHASE_KINDS}"
            )
        if self.kind == "msm" and not self.msms:
            raise ValueError(f"msm phase {self.name!r} lists no MSMTasks")
        if self.kind == "sumcheck" and self.poly is None:
            raise ValueError(f"sumcheck phase {self.name!r} has no profile")


@dataclass(frozen=True)
class PlanOps:
    """Exact operation tallies an instrumented functional prover
    produces for one proof of the plan (see
    :meth:`ProofPlan.predicted_prover_ops`)."""

    #: extension-engine muls: eq-table builds + per-round table folds
    ee_mul: int
    #: product-lane muls across the three SumChecks
    pl_mul: int
    #: every counted modular multiply (ee + pl + the PermQuot pass)
    total_mul: int
    #: modular inversions (the batched φ denominator inverse)
    inv: int
    #: labelled MSM bumps, keyed the way ``HyperPlonkProver`` keys them
    msm_counts: dict[str, int] = dc_field(default_factory=dict)


@dataclass(frozen=True)
class ProofPlan:
    """A HyperPlonk proof for 2^``num_vars`` gates as its phase DAG."""

    gate_type_name: str
    num_vars: int
    phases: tuple[PhaseCost, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for phase in self.phases:
            if phase.name in seen:
                raise ValueError(f"duplicate phase name {phase.name!r}")
            missing = set(phase.after) - seen
            if missing:
                raise ValueError(
                    f"phase {phase.name!r} depends on {sorted(missing)} "
                    "which do not precede it (plans list phases in "
                    "topological order)"
                )
            seen.add(phase.name)

    # -- shape -------------------------------------------------------------
    @property
    def gate_type(self) -> GateType:
        """The resolved :class:`GateType` (vanilla / jellyfish / …)."""
        return gate_type_by_name(self.gate_type_name)

    @property
    def num_gates(self) -> int:
        """Gate count N = 2^μ."""
        return 1 << self.num_vars

    @property
    def num_witnesses(self) -> int:
        """Witness columns k of the gate type."""
        return self.gate_type.num_witnesses

    @property
    def num_selectors(self) -> int:
        """Selector columns s of the gate type."""
        return len(self.gate_type.selector_names)

    @property
    def num_claims(self) -> int:
        """Evaluation claims entering the batched opening: one per
        selector and witness at the gate point, plus witnesses, σ tables
        and φ at the permutation point."""
        return claims_for_gate_type(self.gate_type)

    @property
    def shape_key(self) -> tuple[str, int]:
        """Two plans with one shape_key describe identical work."""
        return (self.gate_type_name, self.num_vars)

    # -- access ------------------------------------------------------------
    def phase(self, name: str) -> PhaseCost:
        """Look up one phase by name (KeyError with the valid names)."""
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise KeyError(f"plan has no phase {name!r}; "
                       f"phases: {[p.name for p in self.phases]}")

    def __iter__(self):
        return iter(self.phases)

    def sumcheck_profile(self, name: str) -> PolyProfile:
        """The composite-polynomial profile of a sumcheck phase."""
        phase = self.phase(name)
        if phase.poly is None:
            raise ValueError(f"phase {name!r} is not a sumcheck phase")
        return phase.poly

    # -- exact functional-prover op model -----------------------------------
    def predicted_prover_ops(self) -> PlanOps:
        """Closed-form prediction of ``HyperPlonkProver.prove()``'s
        :class:`~repro.fields.counters.OpCounter` tallies.

        Per SumCheck over μ vars the prover touches 2^μ - 1 table pairs
        in total; each pair costs (d+1)·Σ_t deg_t product-lane muls, and
        every MLE in the session dict folds once per output entry
        (2^μ - 1 ee muls per MLE).  Each eq(x, r) table build costs
        2·(2^μ - 1) ee muls.  PermQuot adds 4·N plain muls per column
        plus N (φ) and N-1 (tree); the blend of φ and π the prover opens
        for p1/p2 adds 2·N.  (The opening-combine axpy runs
        uninstrumented, so it is deliberately absent from ``total_mul``.)
        """
        n = self.num_gates
        pairs = n - 1
        k = self.num_witnesses
        s = self.num_selectors
        claims = self.num_claims
        unique_opened = s + 2 * k + 1          # selectors, w_i, σ_i, φ

        def sumcheck_pl(poly: PolyProfile) -> int:
            d = poly.degree
            sum_deg = sum(t.degree for t in poly.terms)
            return pairs * (d + 1) * sum_deg

        gate_poly = self.sumcheck_profile("zerocheck")
        perm_poly = self.sumcheck_profile("permcheck")
        # the functional OpenCheck runs one degree-2 term per claim
        oc_pl = pairs * 3 * 2 * claims

        # fold widths: gate dict = selectors + witnesses + fr; perm dict =
        # {π, p1, p2, φ} + N_i + D_i + fr; opencheck dict = opened polys
        # + one eq per claim
        folds = ((s + k + 1) + (2 * k + 5) + (unique_opened + claims))
        eq_builds = 1 + 1 + claims             # one fr each + one eq/claim
        ee = (folds + 2 * eq_builds) * pairs

        pl = sumcheck_pl(gate_poly) + sumcheck_pl(perm_poly) + oc_pl
        permquot_mul = 4 * n * k + n + (n - 1)
        blend_mul = 2 * n                  # (1 - ρ_1)·φ + ρ_1·π
        return PlanOps(
            ee_mul=ee,
            pl_mul=pl,
            total_mul=ee + pl + permquot_mul + blend_mul,
            inv=n,
            msm_counts={
                "witness_msm": k,
                "permcheck_msm": 2,        # φ and π commitments
                "opening_msm": 1 + 4,      # combined + 4 tree claims
            },
        )


def claims_for_gate_type(gate_type: GateType) -> int:
    """Opening claims one proof produces: selectors + witnesses at the
    gate point; witnesses, σ tables, and φ at the permutation point."""
    k = gate_type.num_witnesses
    return len(gate_type.selector_names) + k + (2 * k + 1)


def hyperplonk_plan(gate_type_name: str, num_vars: int,
                    custom_zerocheck: PolyProfile | None = None) -> ProofPlan:
    """Build the canonical HyperPlonk phase DAG for one circuit shape.

    ``custom_zerocheck`` substitutes the Gate-Identity polynomial (the
    Fig 14 high-degree sweep); every other phase keeps the gate type's
    structure.
    """
    gate_type = gate_type_by_name(gate_type_name)
    if num_vars < 1:
        raise ValueError("num_vars must be >= 1")
    n = 1 << num_vars
    k = gate_type.num_witnesses
    zc_poly = custom_zerocheck or PolyProfile.from_gate(
        gate_by_id(gate_type.zerocheck_gate_id))
    pc_poly = PolyProfile.from_gate(gate_by_id(gate_type.permcheck_gate_id))
    claims = claims_for_gate_type(gate_type)

    phases = (
        PhaseCost("witness_msm", "msm",
                  msms=tuple(MSMTask(n, sparse=True) for _ in range(k))),
        PhaseCost("zerocheck", "sumcheck", after=("witness_msm",),
                  poly=zc_poly),
        PhaseCost("permquot", "permquot", after=("witness_msm",),
                  rows=n, columns=k),
        PhaseCost("prod_tree", "product_tree", after=("permquot",), rows=n),
        # wiring_msm and opening_msm price the paper's inventory on
        # purpose (φ and the 2n-point π̃; an n- and a 2n-point opening),
        # which is what the hw model and the paper's Fig. 12 share.  The
        # functional prover commits n + n (φ and the tree's product half
        # π) and opens five n-point polynomials (the combined one, π
        # twice, the φ/π blend twice), whose openings share quotients:
        # 19 quotient MSMs at μ = 6.  The cost model's refit (ROADMAP
        # item 7) is where the two meet.
        PhaseCost("wiring_msm", "msm", after=("permquot", "prod_tree"),
                  msms=(MSMTask(n), MSMTask(2 * n))),
        PhaseCost("permcheck", "sumcheck", after=("wiring_msm",),
                  poly=pc_poly),
        PhaseCost("batch_evals", "batch_eval",
                  after=("zerocheck", "permcheck"),
                  rows=n, streams=claims),
        PhaseCost("mle_combine", "mle_combine", after=("batch_evals",),
                  rows=n, streams=claims),
        PhaseCost("opencheck", "sumcheck", after=("mle_combine",),
                  poly=opencheck_profile(), fuse_fr=False),
        PhaseCost("opening_msm", "msm", after=("opencheck",),
                  msms=(MSMTask(n), MSMTask(2 * n))),
    )
    return ProofPlan(gate_type_name=gate_type_name, num_vars=num_vars,
                     phases=phases)
