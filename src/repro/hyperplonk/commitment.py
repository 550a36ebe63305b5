"""Multilinear KZG (PST-style) polynomial commitments over BLS12-381 G1.

HyperPlonk pairs its SumCheck IOP with a pairing-based multilinear
commitment: committing is an MSM of the MLE table against SRS bases
g^{eq_x(s)} for a secret point s; opening at z produces one quotient
commitment per variable via f(X) - f(z) = Σ_i q_i(X) (X_i - z_i).

**Substitution (DESIGN.md §2):** verification of the pairing identity
e(C - v·G, H) = Σ_i e(Q_i, H^{s_i - z_i}) is performed *in the exponent*
using a :class:`TrapdoorSRS` that retains the toxic waste s: the verifier
checks  C - v·G == Σ_i (s_i - z_i)·Q_i  directly with group arithmetic.
This is the same algebraic identity the pairing would check (the pairing
merely lets a party *without* s check it), so soundness and every
experiment-relevant behaviour are preserved; only public verifiability is
simulated.  No experiment in the paper measures the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import random

from repro.curves import (
    AffinePoint,
    G1,
    batch_normalize,
    msm_pippenger,
)
from repro.curves.bls12_381_g1 import generator_table
from repro.curves.curve import affine_sum_rows
from repro.curves.msm import (
    FixedBaseTable,
    ResidentBases,
    msm_fixed_base,
    msm_jacobian,
)
from repro.fields import FR_MODULUS, Fr
from repro.fields.counters import phase, uncounted
from repro.mle import DenseMLE
from repro.mle.eq import build_eq_mle


def _msm_unchecked(scalars: Sequence[int],
                   points: Sequence[AffinePoint]) -> AffinePoint:
    """Σ kᵢ·Pᵢ for points a prover supplied.  Nothing here checks that
    they lie in the order-r subgroup, so the kernel runs without its
    endomorphism split (valid only inside it) and the verifier's
    equations mean what plain double-and-add makes them mean on any
    curve point."""
    return msm_jacobian(G1, scalars, points, in_subgroup=False).to_affine()


@dataclass(frozen=True)
class Commitment:
    """A binding commitment to an MLE: one G1 point."""

    point: AffinePoint
    num_vars: int

    SIZE_BYTES = 48  # compressed G1

    def add(self, other: "Commitment") -> "Commitment":
        if self.num_vars != other.num_vars:
            raise ValueError("commitment arity mismatch")
        return Commitment(self.point.add(other.point), self.num_vars)

    def scale(self, k: int) -> "Commitment":
        return Commitment(_msm_unchecked([k], [self.point]), self.num_vars)

    @staticmethod
    def combine(weights: Sequence[int],
                commitments: "Sequence[Commitment]") -> "Commitment":
        """Σ wⱼ·Cⱼ as one MSM (the verifier's side of a batched opening)."""
        if len({c.num_vars for c in commitments}) != 1:
            raise ValueError("commitment arity mismatch")
        point = _msm_unchecked(weights, [c.point for c in commitments])
        return Commitment(point, commitments[0].num_vars)


@dataclass(frozen=True)
class Opening:
    """An opening proof: the claimed value and μ quotient commitments."""

    point: tuple[int, ...]
    value: int
    quotients: tuple[AffinePoint, ...]

    @property
    def size_bytes(self) -> int:
        return 32 + 48 * len(self.quotients)


#: Largest arity a ``fixed_base=True`` KZG commits through
#: :class:`FixedBaseTable` combs; larger ones read resident tables.
FIXED_BASE_MAX_VARS = 4


class TrapdoorSRS:
    """Structured reference string for ≤ ``max_vars`` variables.

    Bases: base[x] = g^{eq_x(s)} for every hypercube point x, where
    eq_x(s) = Π_i (x_i s_i + (1-x_i)(1-s_i)).

    Arity convention: an MLE with ν ≤ max_vars variables uses the *suffix*
    secrets s_{max-ν+1..max}.  This makes openings compose: opening a
    ν-variable polynomial peels variables off the front, so its i-th
    quotient has arity ν-i and naturally lives on the remaining (suffix)
    secrets — the telescoping identity
    f(s) - f(z) = Σ_i (s_i - z_i) · q_i(s_{i+1..ν}) then holds verbatim.
    The secrets are drawn last variable first, so the suffix an arity uses
    does not depend on ``max_vars``: two SRSs from one seed agree on every
    arity both support, and a verifier may hold a larger one than the
    prover did.

    Set-up work happens once per instance and only when asked for: the
    first :meth:`bases` call of any arity builds every arity (2^max_vars
    generator multiplications), the first :meth:`g2_elements` call the
    G2 key of every arity (max_vars G2 multiplications).

    The secret ``s`` is retained for exponent-space verification (see
    module docstring).  A production system would run a ceremony and
    discard it.
    """

    def __init__(self, max_vars: int, rng: random.Random | None = None):
        rng = rng or random.Random(0x5EED)
        self.max_vars = max_vars
        self.secret = [rng.randrange(1, FR_MODULUS) for _ in range(max_vars)][::-1]
        self._bases_cache: dict[int, ResidentBases] = {}
        self._g2_key: list | None = None

    def secrets_for(self, num_vars: int) -> list[int]:
        """The suffix secrets an arity-``num_vars`` polynomial is bound to."""
        if num_vars > self.max_vars:
            raise ValueError(
                f"SRS supports up to {self.max_vars} vars, asked for {num_vars}"
            )
        return self.secret[self.max_vars - num_vars:]

    def bases(self, num_vars: int) -> ResidentBases:
        """G1 bases g^{eq_x(suffix secrets)} for all 2^ν hypercube points.

        The first call of any arity builds them all (:meth:`_build_bases`),
        so the order a caller asks in costs nothing.  The list is the same
        object on every call, and the MSM kernel keeps its odd-multiple
        tables of these bases on it (built by the first commitment of this
        arity that runs the Straus path), so every later MSM over
        ``srs.bases(ν)`` is a fixed-base one.
        """
        bases = self._bases_cache.get(num_vars)
        if bases is None:
            self.secrets_for(num_vars)  # range check, before any build
            self._build_bases()
            bases = self._bases_cache[num_vars]
        return bases

    @phase("srs_bases")
    @uncounted()  # the eq table (DESIGN.md §4)
    def _build_bases(self) -> None:
        """Every arity 0..max_vars: one generator multiplication per base
        of the top arity, then each arity below by pair sums of the one
        above.  eq sums to 1 over its first variable and a lower arity is
        bound to the shorter suffix of the same secrets, so
        ``bases(ν-1)[j] = bases(ν)[2j] + bases(ν)[2j+1]`` — one batched
        addition (~4 µs) where a multiplication costs ~0.4 ms.  The whole
        SRS costs 2^max_vars multiplications, whatever arity is asked
        first."""
        table = generator_table()
        level = ResidentBases(batch_normalize(
            [table.mul(v)
             for v in build_eq_mle(Fr, self.secrets_for(self.max_vars)).table]
        ))
        cache = {self.max_vars: level}
        for arity in range(self.max_vars - 1, -1, -1):
            rows = [
                [(pt.x, pt.y) for pt in level[j:j + 2] if not pt.inf]
                for j in range(0, len(level), 2)
            ]
            affine_sum_rows(G1.field, G1.a, rows, min_pairs=1)
            level = cache[arity] = ResidentBases(
                AffinePoint(G1, *row[0]) if row else G1.infinity for row in rows
            )
        self._bases_cache.update(cache)

    def g2_elements(self, num_vars: int):
        """The *public* G2 verifying key for arity ν: (h, [s_i·h]) over
        the suffix secrets.  With these, opening verification needs no
        trapdoor — see :meth:`MultilinearKZG.verify_pairing`.  The key
        of every arity is one list, [s·h for each secret], built on the
        first call; arity ν is its suffix, as in :meth:`secrets_for`."""
        from repro.curves.pairing import G2Point

        self.secrets_for(num_vars)  # range check
        h = G2Point.generator()
        if self._g2_key is None:
            self._g2_key = [h.scalar_mul(s) for s in self.secret]
        return h, self._g2_key[self.max_vars - num_vars:]


class MultilinearKZG:
    """Commit/open/verify for dense MLEs against a :class:`TrapdoorSRS`.

    Every commitment is an MSM over ``srs.bases(ν)``, whose resident
    odd-multiple tables (:class:`~repro.curves.msm.ResidentBases`) make
    it a fixed-base one in either mode.  ``fixed_base=True`` further
    precomputes a :class:`FixedBaseTable` comb for every SRS base of
    arity ≤ :data:`FIXED_BASE_MAX_VARS` (lazily, per arity, ~2 ms per base)
    and commits through them, in 0.4–0.75× the resident-table time on
    the prover's many small (≤ 16-point) commitments — the opening
    quotients.
    Results are bit-identical group elements either way; the combs only
    pay for themselves when one KZG instance serves several requests,
    which is why :mod:`repro.service` enables them and one-shot callers
    don't.  Multiples of the generator go through the process-wide
    :func:`generator_table` in both modes.

    A KZG, its SRS and an :class:`~repro.service.cache.IndexCache` on
    them are not thread-safe, so the serving layer runs one prover per
    process.
    """

    def __init__(self, srs: TrapdoorSRS, fixed_base: bool = False):
        self.srs = srs
        self.fixed_base = fixed_base
        self._fb_tables: dict[int, list[FixedBaseTable]] = {}
        # open_many's (polynomial, prefix memo) for open()
        self._memo: tuple[DenseMLE, dict] | None = None

    # -- fixed-base tables ---------------------------------------------------
    def _tables(self, num_vars: int) -> list[FixedBaseTable]:
        tables = self._fb_tables.get(num_vars)
        if tables is None:
            tables = self._fb_tables[num_vars] = [
                FixedBaseTable(pt) for pt in self.srs.bases(num_vars)
            ]
        return tables

    def _generator_mul(self, k: int) -> AffinePoint:
        return generator_table().scalar_mul(k)

    # -- commit ------------------------------------------------------------
    def commit(self, mle: DenseMLE) -> Commitment:
        if mle.num_vars > self.srs.max_vars:
            raise ValueError(
                f"SRS supports up to {self.srs.max_vars} vars, "
                f"asked for {mle.num_vars}"
            )
        if all(v == 0 for v in mle.table):
            return Commitment(G1.infinity, mle.num_vars)
        if self.fixed_base and mle.num_vars <= FIXED_BASE_MAX_VARS:
            point = msm_fixed_base(mle.table, self._tables(mle.num_vars))
        else:
            point = msm_pippenger(mle.table, self.srs.bases(mle.num_vars))
        return Commitment(point, mle.num_vars)

    # -- open -----------------------------------------------------------------
    @uncounted()  # its folds (DESIGN.md §4)
    def open(self, mle: DenseMLE, point: Sequence[int]) -> Opening:
        """Open ``mle`` at ``point``: value + one quotient commitment per var.

        The quotients come from progressively fixing variables:
        with f_1 = f and f_{i+1} = f_i(z_i, ·),
        q_i(X_{i+1..μ}) = f_i(1, ·) - f_i(0, ·), and f(z) = f_{μ+1}.

        f_i and q_i depend on the polynomial and z_1..z_{i-1} only, so
        inside :meth:`open_many` they are memoised per point prefix and
        same-prefix openings share them.
        """
        if len(point) != mle.num_vars:
            raise ValueError("opening point arity mismatch")
        p = Fr.modulus
        point = tuple(v % p for v in point)
        shared_mle, memo = self._memo or (None, None)
        if shared_mle is not mle:
            memo = None
        # memo[z_1..z_{i-1}] = (f_i, commitment to q_i)
        quotients = []
        cur = mle
        for i in range(len(point)):
            hit = memo.get(point[:i]) if memo is not None else None
            if hit is None:
                if i:
                    cur = cur.fix_first_variable(point[i - 1])
                hit = (cur, self._commit_quotient(cur))
                if memo is not None:
                    memo[point[:i]] = hit
            cur = hit[0]
            quotients.append(hit[1])
        if point:
            cur = cur.fix_first_variable(point[-1])
        return Opening(point=point, value=cur.table[0],
                       quotients=tuple(quotients))

    def _commit_quotient(self, cur: DenseMLE) -> AffinePoint:
        """Commitment to q(X_2..) = cur(1, ·) - cur(0, ·)."""
        p = Fr.modulus
        table = cur.table
        q_table = [(table[j + 1] - table[j]) % p for j in range(0, len(table), 2)]
        if len(q_table) > 1:
            return self.commit(DenseMLE(Fr, q_table)).point
        # 0-variable quotient: constant committed on the generator
        return self._generator_mul(q_table[0]) if q_table[0] else G1.infinity

    def open_many(self, mle: DenseMLE,
                  points: Sequence[Sequence[int]]) -> list[Opening]:
        """``[self.open(mle, pt) for pt in points]`` with the quotient
        commitments and folded tables of every shared point prefix
        computed once (the points are walked as a prefix trie).  Two
        points that differ only in the last coordinate share all μ
        quotients — the prover's openings of the tree's blend at (ρ′, 0)
        and (ρ′, 1) — and two that differ in the first share q₁ alone
        (π at ρ_p and at the root point).

        The memo is keyed to ``mle`` by identity, so an ``open`` of
        another polynomial inside the walk ignores it.
        """
        self._memo = (mle, {})
        try:
            return [self.open(mle, point) for point in points]
        finally:
            self._memo = None

    # -- verify -------------------------------------------------------------
    @staticmethod
    def _well_formed(commitment: Commitment, opening: Opening) -> bool:
        """An opening is outside input: one coordinate and one quotient
        per variable, every point on the curve."""
        return (
            len(opening.point) == len(opening.quotients) == commitment.num_vars
            and all(pt.inf or G1.is_on_curve(pt.x, pt.y)
                    for pt in (commitment.point, *opening.quotients))
        )

    def verify(self, commitment: Commitment, opening: Opening) -> bool:
        """Check C - v·G == Σ_i (s_i - z_i)·Q_i in G1 (exponent-space
        equivalent of the PST pairing product — see module docstring)."""
        if not self._well_formed(commitment, opening):
            return False
        lhs = commitment.point.add(self._generator_mul(opening.value).neg())
        if not opening.quotients:
            return lhs.inf
        # An arity-ν commitment is bound to the suffix secrets; its i-th
        # quotient (arity ν-1-i) is bound to the suffix one deeper, which
        # is how `open` committed it.
        secrets = self.srs.secrets_for(commitment.num_vars)
        factors = [s - z for s, z in zip(secrets, opening.point)]
        return lhs == _msm_unchecked(factors, opening.quotients)

    def verify_pairing(self, commitment: Commitment, opening: Opening) -> bool:
        """Publicly verify an opening with the real BLS12-381 pairing:

            e(C - v·G, h) · Π_i e(-Q_i, h^{s_i} - z_i·h) == 1

        This is the actual PST check — no trapdoor involved; the verifier
        uses only the public G2 verifying key.  Slower (one Miller loop
        per variable) but the ground truth :meth:`verify` simulates.
        """
        from repro.curves.pairing import multi_pairing

        if not self._well_formed(commitment, opening):
            return False
        h, s_h = self.srs.g2_elements(commitment.num_vars)
        c_minus_v = commitment.point.add(self._generator_mul(opening.value).neg())
        pairs = [(c_minus_v, h)]
        for z, q, hs in zip(opening.point, opening.quotients, s_h):
            if q.inf:
                continue
            g2_term = hs.add(h.scalar_mul(z).neg())
            pairs.append((q.neg(), g2_term))
        return multi_pairing(pairs).is_one()
