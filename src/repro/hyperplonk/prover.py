"""The end-to-end HyperPlonk prover.

Protocol steps (§IV-A) and what each produces:

1. **Witness Commitments** — KZG commitments to the witness columns
   (MSMs; sparse in practice).
2. **Gate Identity** — ZeroCheck that the gate polynomial (Table I row
   20/22) vanishes on the cube, over selector + witness MLEs.
3. **Wire Identity** — challenges β, γ; the Permutation Quotient
   Generator builds N/D/φ and the product tree; commitments to φ and to
   the tree's product half π (its leaf half is φ by definition, see
   :mod:`repro.hyperplonk.permutation`); challenge α; then a ZeroCheck of
   the PermCheck polynomial (Table I row 21/23).
4. **Batch Evaluations** — all evaluation claims produced by the two
   ZeroChecks are batched into a single OpenCheck SumCheck (Table I row
   24).
5. **Polynomial Opening** — one combined KZG opening at the OpenCheck
   point, plus the four claims about the virtual product tree
   T(b, x) = (1 - b)·φ(x) + b·π(x) as openings of μ-variable
   polynomials: π at ρ_p and at the root point (1, …, 1, 0), and the
   blend h = (1 - ρ_1)·φ + ρ_1·π at (ρ′, 0) and (ρ′, 1) with
   ρ′ = ρ_2..ρ_μ, which are p1(ρ_p) and p2(ρ_p).  The verifier forms
   h's commitment from φ's and π's.  h's two points differ only in the
   last coordinate, so :meth:`~MultilinearKZG.open_many` commits their
   μ quotients once; π's share the first.

The prover mirrors the verifier's transcript exactly, so the proof is
non-interactive via Fiat–Shamir.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from repro.fields.counters import OpCounter, adding_to, bump, phase
from repro.fields.vector import KERNEL, require_fused
from repro.gates.library import gate_by_id
from repro.hyperplonk.circuit import Circuit
from repro.hyperplonk.commitment import Commitment, MultilinearKZG, Opening
from repro.hyperplonk.opencheck import EvalClaim, OpenCheckProof, prove_opencheck
from repro.hyperplonk.permutation import build_permutation_data, permcheck_terms
from repro.hyperplonk.preprocess import ProverIndex
from repro.mle.table import DenseMLE
from repro.mle.virtual import Term
from repro.sumcheck.prover import SumCheckProof
from repro.sumcheck.transcript import Transcript
from repro.sumcheck.zerocheck import prove_zerocheck


def gate_identity_terms(gate_id: int) -> list[Term]:
    """Table I row ``gate_id`` with the fr factor stripped (the ZeroCheck
    wrapper re-adds it)."""
    compiled = gate_by_id(gate_id).compiled
    terms = []
    for m in compiled.monomials:
        factors = tuple((n, p) for n, p in m.factors if n != "fr")
        if len(factors) == len(m.factors):
            raise ValueError(f"gate {gate_id} monomial lacks the fr factor")
        terms.append(Term(m.coeff, factors))
    return terms


def absorb_index(transcript: Transcript,
                 commitments: dict[str, Commitment]) -> None:
    """Bind the transcript to the statement: the repo has no public
    inputs, so the index commitments (selectors and σ), in name order,
    are what a proof is about.  The SRS size is not absorbed: a verifier
    may hold a larger SRS than the prover (:class:`TrapdoorSRS`)."""
    for name in sorted(commitments):
        transcript.absorb_point(b"hp/index-commit", commitments[name].point)


@dataclass
class HyperPlonkProof:
    """A complete HyperPlonk proof."""

    num_vars: int
    gate_type_name: str
    witness_commitments: dict[str, Commitment]
    phi_commitment: Commitment
    prod_commitment: Commitment
    gate_zerocheck: SumCheckProof
    perm_zerocheck: SumCheckProof
    perm_witness_evals: dict[str, int]
    perm_sigma_evals: dict[str, int]
    opencheck: OpenCheckProof
    tree_openings: dict[str, Opening] = dc_field(default_factory=dict)

    def size_bytes(self) -> int:
        """Serialized size: 48-byte G1 points, 32-byte scalars."""
        total = 48 * (len(self.witness_commitments) + 2)  # + φ and π
        for sc in (self.gate_zerocheck, self.perm_zerocheck):
            total += 32  # claim
            total += sum(32 * len(e) for e in sc.round_evals)
            total += 32 * len(sc.final_evals)
        total += 32 * (len(self.perm_witness_evals) + len(self.perm_sigma_evals))
        total += self.opencheck.size_bytes
        total += sum(op.size_bytes for op in self.tree_openings.values())
        return total


class HyperPlonkProver:
    def __init__(
        self,
        circuit: Circuit,
        index: ProverIndex,
        kzg: MultilinearKZG,
        backend: str | None = None,
    ):
        """Every inner SumCheck and vector step runs on the
        :mod:`repro.fields.vector` kernel; ``backend`` accepts only the
        retired spellings ``None`` and ``"fused"``."""
        require_fused(backend)
        if index.num_vars != circuit.num_vars:
            raise ValueError("index/circuit size mismatch")
        self.circuit = circuit
        self.index = index
        self.kzg = kzg

    def prove(self, counter: OpCounter | None = None) -> HyperPlonkProof:
        """The proof, its steps recorded under the names of
        ``repro.plan.HYPERPLONK_PHASES``; see :func:`adding_to` for ``counter``."""
        with adding_to(counter):
            return self._prove()

    def _prove(self) -> HyperPlonkProof:
        field = self.circuit.field
        gate_type = self.circuit.gate_type
        transcript = Transcript(field, domain=b"hyperplonk")
        transcript.absorb_scalar(b"hp/num-vars", self.circuit.num_vars)
        transcript.absorb_bytes(b"hp/gate-type", gate_type.name.encode())
        absorb_index(transcript, self.index.commitments)

        # -- 1. witness commitments ---------------------------------------
        with phase("witness_msm"):
            witness = self.circuit.witness_tables()
            witness_commitments = {}
            for name in gate_type.witness_names:
                witness_commitments[name] = self.kzg.commit(witness[name])
                transcript.absorb_point(
                    b"hp/witness-commit", witness_commitments[name].point
                )
            bump("witness_msm", len(witness_commitments))

        # -- 2. gate identity (ZeroCheck) -----------------------------------
        gate_terms = gate_identity_terms(gate_type.zerocheck_gate_id)
        gate_mles = dict(self.index.selectors)
        gate_mles.update(witness)
        with phase("zerocheck"):
            gate_zc = prove_zerocheck(field, gate_terms, gate_mles, transcript)
        rho_g = gate_zc.challenges

        # -- 3. wire identity (PermCheck) -----------------------------------
        beta = transcript.challenge(b"hp/beta")
        gamma = transcript.challenge(b"hp/gamma")
        with phase("permquot"):
            perm = build_permutation_data(
                field, witness, self.index.identities, self.index.sigmas,
                beta, gamma,
            )
        pi = perm.pi
        with phase("wiring_msm"):
            phi_commitment = self.kzg.commit(perm.phi)
            prod_commitment = self.kzg.commit(pi)
            bump("permcheck_msm", 2)
        transcript.absorb_point(b"hp/phi-commit", phi_commitment.point)
        transcript.absorb_point(b"hp/tree-commit", prod_commitment.point)

        alpha = transcript.challenge(b"hp/alpha")
        perm_terms = permcheck_terms(field, gate_type.num_witnesses, alpha)
        perm_mles = {"pi": pi, "p1": perm.p1, "p2": perm.p2, "phi": perm.phi}
        perm_mles.update(perm.numerators)
        perm_mles.update(perm.denominators)
        with phase("permcheck"):
            perm_zc = prove_zerocheck(field, perm_terms, perm_mles, transcript)
        rho_p = perm_zc.challenges

        # auxiliary evaluations the verifier needs to reconstruct N_i/D_i
        with phase("batch_evals"):
            perm_witness_evals = {
                name: witness[name].evaluate(rho_p)
                for name in gate_type.witness_names
            }
            perm_sigma_evals = {
                name: self.index.sigmas[name].evaluate(rho_p)
                for name in sorted(self.index.sigmas)
            }
        transcript.absorb_scalars(b"hp/perm-w-evals", perm_witness_evals.values())
        transcript.absorb_scalars(b"hp/perm-s-evals", perm_sigma_evals.values())

        # -- 4 & 5. batch evaluations + opening -----------------------------
        claims = self._build_claims(
            gate_zc, rho_g, rho_p, perm_witness_evals, perm_sigma_evals,
            phi_eval=perm_zc.final_evals["phi"],
        )
        polys = dict(self.index.selectors)
        polys.update(self.index.sigmas)
        polys.update(witness)
        polys["phi"] = perm.phi
        opencheck = prove_opencheck(field, claims, polys, self.kzg, transcript)

        # the tree's four claims, two polynomials of μ variables: π's
        # points share the empty prefix, h's every prefix but the whole
        rho_first, rho_rest = rho_p[0], list(rho_p[1:])
        with phase("opening_msm"):
            blend = DenseMLE(field, KERNEL.axpy(
                field, KERNEL.scale(field, perm.phi.table, 1 - rho_first),
                rho_first, pi.table,
            ))
            root_point = [1] * (self.circuit.num_vars - 1) + [0]
            tree_openings = dict(zip(
                ("pi", "root", "p1", "p2"),
                self.kzg.open_many(pi, [rho_p, root_point])
                + self.kzg.open_many(blend, [rho_rest + [0], rho_rest + [1]]),
            ))
            bump("opening_msm", 1 + len(tree_openings))

        return HyperPlonkProof(
            num_vars=self.circuit.num_vars,
            gate_type_name=gate_type.name,
            witness_commitments=witness_commitments,
            phi_commitment=phi_commitment,
            prod_commitment=prod_commitment,
            gate_zerocheck=gate_zc,
            perm_zerocheck=perm_zc,
            perm_witness_evals=perm_witness_evals,
            perm_sigma_evals=perm_sigma_evals,
            opencheck=opencheck,
            tree_openings=tree_openings,
        )

    def _build_claims(
        self,
        gate_zc: SumCheckProof,
        rho_g: list[int],
        rho_p: list[int],
        perm_witness_evals: dict[str, int],
        perm_sigma_evals: dict[str, int],
        phi_eval: int,
    ) -> list[EvalClaim]:
        """Canonical claim ordering shared with the verifier."""
        gate_names = sorted(
            set(self.index.selectors) | set(self.circuit.gate_type.witness_names)
        )
        claims = [
            EvalClaim(name, tuple(rho_g), gate_zc.final_evals[name])
            for name in gate_names
        ]
        claims += [
            EvalClaim(name, tuple(rho_p), perm_witness_evals[name])
            for name in sorted(perm_witness_evals)
        ]
        claims += [
            EvalClaim(name, tuple(rho_p), perm_sigma_evals[name])
            for name in sorted(perm_sigma_evals)
        ]
        claims.append(EvalClaim("phi", tuple(rho_p), phi_eval))
        return claims
