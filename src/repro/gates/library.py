"""The paper's Table I polynomial-constraint library.

All 25 constraints the evaluation uses: Verifiable-ASICs and Spartan
gates (IDs 0–2), Halo2 elliptic-curve gates (IDs 3–19), and the
HyperPlonk polynomials (IDs 20–24).  Each entry records the expression,
its compiled sum-of-products form, and bookkeeping the experiments need
(degree, term count, unique-MLE count).

Also exported: the parametric high-degree family
f = q1*w1 + q2*w2 + q3*w1^(d-1)*w2 + qc used by the degree sweeps
(Figs. 7, 8, 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.gates.compiler import CompiledGate, compile_expr
from repro.gates.expr import Expr, Scalar, Var


@dataclass
class GateSpec:
    """One row of Table I.

    The sum-of-products form is compiled on first use of
    :attr:`compiled` (or of a property read from it), not when the spec
    is built, so importing Table I compiles nothing.
    """

    gate_id: int
    name: str
    expr: Expr
    #: names of MLEs that are 0/1-valued selectors (sparsity modelling)
    selector_names: tuple[str, ...] = ()
    #: names of symbolic scalars that must be bound
    scalar_names: tuple[str, ...] = ()

    @cached_property
    def compiled(self) -> CompiledGate:
        return compile_expr(self.name, self.expr)

    @property
    def degree(self) -> int:
        return self.compiled.degree

    @property
    def num_terms(self) -> int:
        return self.compiled.num_terms

    @property
    def num_unique_mles(self) -> int:
        return len(self.compiled.mle_names)


def _v(*names: str) -> list[Var]:
    return [Var(n) for n in names]


def _build_table1() -> list[GateSpec]:
    specs: list[GateSpec] = []

    # -- ID 0: Verifiable ASICs [61] ---------------------------------------
    qadd, qmul, a, b = _v("qadd", "qmul", "a", "b")
    specs.append(GateSpec(0, "Verifiable ASICs", qadd * (a + b) + qmul * (a * b),
                          selector_names=("qadd", "qmul")))

    # -- IDs 1-2: Spartan [56] ----------------------------------------------
    A, B, C, f_tau = _v("A", "B", "C", "f_tau")
    specs.append(GateSpec(1, "Spartan 1", (A * B - C) * f_tau))
    sum_abc, Z = _v("SumABC", "Z")
    specs.append(GateSpec(2, "Spartan 2", sum_abc * Z))

    # -- IDs 3-19: Halo2 elliptic-curve constraints [69] ----------------------
    x, y = _v("x", "y")
    q_nonid = Var("q_nonid_point")
    specs.append(GateSpec(3, "Nonzero Point Check",
                          q_nonid * (y ** 2 - x ** 3 - 5),
                          selector_names=("q_nonid_point",)))
    q_point = Var("q_point")
    specs.append(GateSpec(4, "x-gated Curve Check",
                          (q_point * x) * (y ** 2 - x ** 3 - 5),
                          selector_names=("q_point",)))
    specs.append(GateSpec(5, "y-gated Curve Check",
                          (q_point * y) * (y ** 2 - x ** 3 - 5),
                          selector_names=("q_point",)))

    q_inc = Var("q_add_incomplete")
    xp, xq, xr, yp, yq, yr = _v("xp", "xq", "xr", "yp", "yq", "yr")
    specs.append(GateSpec(
        6, "Incomplete Addition 1",
        q_inc * ((xr + xq + xp) * (xp - xq) ** 2 - (yp - yq) ** 2),
        selector_names=("q_add_incomplete",)))
    specs.append(GateSpec(
        7, "Incomplete Addition 2",
        q_inc * ((yr + yq) * (xp - xq) - (yp - yq) * (xq - xr)),
        selector_names=("q_add_incomplete",)))

    qadd2 = Var("qadd")
    lam, alpha, beta, gamma, delta = _v("lambda", "alpha", "beta", "gamma", "delta")
    specs.append(GateSpec(
        8, "Complete Addition 1",
        qadd2 * (xq - xp) * ((xq - xp) * lam - (yq - yp)),
        selector_names=("qadd",)))
    specs.append(GateSpec(
        9, "Complete Addition 2",
        qadd2 * (1 - (xq - xp) * alpha) * (2 * yp * lam - 3 * xp ** 2),
        selector_names=("qadd",)))
    specs.append(GateSpec(
        10, "Complete Addition 3",
        qadd2 * xp * xq * (xq - xp) * (lam ** 2 - xp - xq - xr),
        selector_names=("qadd",)))
    specs.append(GateSpec(
        11, "Complete Addition 4",
        qadd2 * xp * xq * (xq - xp) * (lam * (xp - xr) - yp - yr),
        selector_names=("qadd",)))
    specs.append(GateSpec(
        12, "Complete Addition 5",
        qadd2 * xp * xq * (yq + yp) * (lam ** 2 - xp - xq - xr),
        selector_names=("qadd",)))
    specs.append(GateSpec(
        13, "Complete Addition 6",
        qadd2 * xp * xq * (yq + yp) * (lam * (xp - xr) - yp - yr),
        selector_names=("qadd",)))
    specs.append(GateSpec(
        14, "Complete Addition 7",
        qadd2 * (1 - xp * beta) * (xr - xq),
        selector_names=("qadd",)))
    specs.append(GateSpec(
        15, "Complete Addition 8",
        qadd2 * (1 - xp * beta) * (yr - yq),
        selector_names=("qadd",)))
    specs.append(GateSpec(
        16, "Complete Addition 9",
        qadd2 * (1 - xq * gamma) * (xr - xp),
        selector_names=("qadd",)))
    specs.append(GateSpec(
        17, "Complete Addition 10",
        qadd2 * (1 - xq * gamma) * (yr - yp),
        selector_names=("qadd",)))
    specs.append(GateSpec(
        18, "Complete Addition 11",
        qadd2 * (1 - (xq - xp) * alpha - (yq + yp) * delta) * xr,
        selector_names=("qadd",)))
    specs.append(GateSpec(
        19, "Complete Addition 12",
        qadd2 * (1 - (xq - xp) * alpha - (yq + yp) * delta) * yr,
        selector_names=("qadd",)))

    # -- IDs 20-24: HyperPlonk polynomials [9] ------------------------------
    specs.append(GateSpec(20, "Vanilla ZeroCheck", vanilla_zerocheck_expr(),
                          selector_names=("qL", "qR", "qM", "qO", "qC")))

    pi, p1, p2, phi = _v("pi", "p1", "p2", "phi")
    D1, D2, D3, N1, N2, N3, fr = _v("D1", "D2", "D3", "N1", "N2", "N3", "fr")
    alpha_s = Scalar("alpha")
    specs.append(GateSpec(
        21, "Vanilla PermCheck",
        (pi - p1 * p2 + alpha_s * (phi * D1 * D2 * D3 - N1 * N2 * N3)) * fr,
        scalar_names=("alpha",)))

    specs.append(GateSpec(22, "Jellyfish ZeroCheck", jellyfish_zerocheck_expr(),
                          selector_names=("q1", "q2", "q3", "q4", "qM1", "qM2",
                                          "qH1", "qH2", "qH3", "qH4", "qO",
                                          "qecc", "qC")))

    D4, D5, N4, N5 = _v("D4", "D5", "N4", "N5")
    specs.append(GateSpec(
        23, "Jellyfish PermCheck",
        (pi - p1 * p2
         + alpha_s * (phi * D1 * D2 * D3 * D4 * D5 - N1 * N2 * N3 * N4 * N5)) * fr,
        scalar_names=("alpha",)))

    # OpenCheck: batch k=6 opening claims y_i(x) * eq(x, a_i).
    open_terms = sum(
        (Var(f"y{i}") * Var(f"fr{i}") for i in range(2, 7)),
        Var("y1") * Var("fr1"),
    )
    specs.append(GateSpec(24, "OpenCheck", open_terms))

    return specs


def vanilla_zerocheck_expr() -> Expr:
    """HyperPlonk's Vanilla (Plonk) gate identity, randomized by fr."""
    qL, qR, qM, qO, qC = _v("qL", "qR", "qM", "qO", "qC")
    w1, w2, w3, fr = _v("w1", "w2", "w3", "fr")
    return (qL * w1 + qR * w2 - qO * w3 + qM * w1 * w2 + qC) * fr


def jellyfish_zerocheck_expr() -> Expr:
    """HyperPlonk's Jellyfish custom gate identity, randomized by fr.

    Degree 7 (qH_i * w_i^5 * fr); 13 selector + 5 witness MLEs + fr.
    """
    q1, q2, q3, q4 = _v("q1", "q2", "q3", "q4")
    qM1, qM2, qO, qecc, qC = _v("qM1", "qM2", "qO", "qecc", "qC")
    qH1, qH2, qH3, qH4 = _v("qH1", "qH2", "qH3", "qH4")
    w1, w2, w3, w4, w5, fr = _v("w1", "w2", "w3", "w4", "w5", "fr")
    gate = (q1 * w1 + q2 * w2 + q3 * w3 + q4 * w4
            + qM1 * w1 * w2 + qM2 * w3 * w4
            + qH1 * w1 ** 5 + qH2 * w2 ** 5 + qH3 * w3 ** 5 + qH4 * w4 ** 5
            - qO * w5
            + qecc * w1 * w2 * w3 * w4 * w5
            + qC)
    return gate * fr


#: Table I, indexed by position == gate id.
TABLE1: list[GateSpec] = _build_table1()


def gate_by_id(gate_id: int) -> GateSpec:
    spec = TABLE1[gate_id]
    assert spec.gate_id == gate_id
    return spec


def high_degree_sweep_gate(degree: int, with_fr: bool = False) -> GateSpec:
    """The degree-sweep family f = q1*w1 + q2*w2 + q3*w1^(d-1)*w2 + qc.

    ``degree`` is the total degree d of the q3 term's witness part plus
    its selector (matching §VI-A2's "polynomial degree" axis).  With
    ``with_fr`` the whole gate is multiplied by the ZeroCheck randomizer,
    as in the full-protocol sweep (Fig. 14).
    """
    if degree < 2:
        raise ValueError("sweep family needs degree >= 2")
    q1, q2, q3, qc, w1, w2 = _v("q1", "q2", "q3", "qc", "w1", "w2")
    expr = q1 * w1 + q2 * w2 + q3 * (w1 ** (degree - 1)) * w2 + qc
    if with_fr:
        expr = expr * Var("fr")
    return GateSpec(
        gate_id=-degree,
        name=f"sweep-d{degree}" + ("-fr" if with_fr else ""),
        expr=expr,
        selector_names=("q1", "q2", "q3", "qc"),
    )
