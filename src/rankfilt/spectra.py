"""Per-(k, l) reports on the rank filtration of the matrix mapping spectra.

The mapping spectrum for the pair (k, l) vanishes when l > k and otherwise
carries a filtration of length floor(k/l).  Its rational homology is defined
here as the homology of the first stage, the orbit space of linear isometric
embeddings of C^l into C^k modulo the scalar circle; the higher subquotients
are rationally trivial, and the report verifies that claim through the cube
machinery rather than assuming it.

Degree-0 convention: reported polynomials are those of the underlying space;
passing to the suspension spectrum of the space with a disjoint basepoint
adds nothing, which the report states explicitly to avoid double counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cartan, decomp
from .combinat import (
    ContractViolation,
    _tuples_with_sum_range,
    enumerate_summands,
    is_prime_power,
)
from .orbitspace import Block, OrbitDescriptor
from .poly import Poly, prod

DEGREE_ZERO_NOTE = (
    "polynomials are those of the underlying space; "
    "the suspension spectrum of the space with a disjoint basepoint adds nothing"
)

M_MAX = 4


def vanishing_check(k, l):
    """True iff the (k, l) mapping spectrum vanishes, i.e. l > k.

    Cross-checked against the summand indexing: vanishing must coincide with
    the pointed set [1] carrying no summand.  That one set decides every
    t >= 1, because a summand (m_1, ..., m_t) of [t] gives the summand
    (m_1 + ... + m_t) of [1], and zero-padding a summand of [1] gives one
    of [t].
    """
    if k < 1 or l < 1:
        raise ContractViolation("need k, l >= 1")
    vanishes = l > k
    if (len(enumerate_summands(k, l, 1)) == 0) != vanishes:
        raise AssertionError("summand indexing contradicts the vanishing criterion")
    return vanishes


def first_stage_descriptor(k, l):
    """Embeddings of C^l in C^k modulo scalars: U(k)/(U(1) (x) I_l x U(k-l))."""
    return OrbitDescriptor(k, (Block(1, l),), k - l).canonicalize()


def subquotient_rational_check(k, l, m, cutoff=None):
    """Verify rational triviality of the stage-m subquotient of the (k, l) spectrum.

    Runs the generalized cube over C^m, whose vertex isotropy comes from
    ``decomp.stabilizer(chain, l, k)``: every leaf block carries tensor
    multiplicity l and a complement U(k - l*m) is added.  Returns that
    ``decomp.CubeReport``: a failed edge or signed sum lands in it, it is
    not raised, and its ``verified`` is the stage verdict.
    """
    if not 2 <= m <= k // l:
        raise ContractViolation("need 2 <= m <= floor(k/l)")
    return decomp.cube_report(m, l, k, cutoff=cutoff)


def pi0_check(k, l):
    """Rank of the degree-0 rational homology of the (k, l) spectrum.

    1 for k >= l, 0 for l > k.  The positive answer is verified, not assumed:
    the first-stage space must be connected (degree-0 Betti number 1) and
    every higher stage must be glued along a connected decomposition complex,
    as it is for m >= 2 by the proof in ``decomp.connectivity`` (checked by
    ``test_connectivity`` against a search over all coarsenings, m <= 7).
    """
    if vanishing_check(k, l):
        return 0
    p = cartan.poincare(first_stage_descriptor(k, l))
    if p[0] != 1:
        raise AssertionError("first stage of (%d, %d) is not connected" % (k, l))
    for m in range(2, k // l + 1):
        if not decomp.connectivity(m):
            raise AssertionError("decomposition complex of C^%d is not connected" % m)
    return 1


# ---------------------------------------------------------------------------
# the limit series


def bu_poincare(a, cutoff):
    """Poincare series of the classifying space BU(a), truncated."""
    return prod((Poly.geometric(2 * i, cutoff) for i in range(1, a + 1)), cutoff)


def bu_product(ms, cutoff):
    """Product of the BU(m) series over the entries m of ``ms``, truncated."""
    return prod((bu_poincare(m, cutoff) for m in ms), cutoff)


def summand_limit_descriptor(ms, l, k):
    """Orbit of embeddings of C^(r*l) in C^k modulo prod U(m_i), r = sum(ms)."""
    r = sum(ms)
    if k < r * l:
        raise ContractViolation("ambient rank too small for the summand")
    return OrbitDescriptor(
        k, tuple(Block(m, l) for m in ms if m > 0), k - r * l
    ).canonicalize()


def ku_limit_series(l, t, cutoff, max_rank=1, sample_ks=()):
    """Stage-``max_rank`` part of the limit series of the colimit spectrum.

    Sums, over the non-zero t-tuples (m_1, ..., m_t) of rank at most
    ``max_rank``, the products of the classifying-space series of the U(m_i).
    The unbounded sum has no finite value in any degree (every tuple
    contributes 1 in degree 0), so a rank bound is always required; the
    bound-1 series for t = 1 is the geometric series 1/(1 - t^2).

    For every tuple the coefficients of the finite-rank orbit spaces are
    verified to stabilize to the product of classifying-space series as the
    ambient rank grows through ``sample_ks`` (no check when it is empty).
    """
    if l < 1:
        raise ContractViolation("need l >= 1")
    if t < 1:
        raise ContractViolation("need t >= 1")
    if max_rank < 1:
        raise ContractViolation("need max_rank >= 1")
    acc = Poly.zero(cutoff)
    for ms in _tuples_with_sum_range(t, 1, max_rank):
        acc = acc + bu_product(ms, cutoff)
        if sample_ks:
            stabilization_check(l, ms, cutoff, sample_ks)
    return acc


def stabilization_check(l, ms, cutoff, ks):
    """Verify finite orbit spaces stabilize to the classifying-space product.

    For each ambient rank k the orbit polynomial must agree with the product
    of BU series through the degrees that have already stabilized at that k
    (coefficient j is stable once j < 2*(k - l*r + 1) for r the total rank).
    """
    target = bu_product(ms, cutoff)
    r = sum(ms)
    for k in ks:
        d = summand_limit_descriptor(ms, l, k)
        stable_through = min(cutoff, 2 * (k - l * r))
        p = cartan.poincare(d)
        if not p.agrees(target, through=stable_through):
            raise AssertionError(
                "no stabilization for tuple %s at k=%d: %s vs %s"
                % (ms, k, p.pretty(), target.pretty())
            )
    return True


# ---------------------------------------------------------------------------
# filtration reports


@dataclass(frozen=True)
class StageReport:
    m: int
    prime_power: object  # bool, or None for the inapplicable first stage
    verdict: str
    poincare: Poly

    def to_json(self):
        return {
            "m": self.m,
            "prime_power": self.prime_power,
            "verdict": self.verdict,
            "poincare": self.poincare.to_map(),
        }


@dataclass(frozen=True)
class FiltrationReport:
    k: int
    l: int
    vanishes: bool
    length: int
    pi0: int
    first_stage: object  # Poly, or None when the spectrum vanishes
    stages: tuple = field(default=())
    endomorphism: object = None  # Poly when k == l
    note: str = DEGREE_ZERO_NOTE

    @property
    def one_stage(self):
        return self.length == 1

    @property
    def verified(self):
        return all(
            s.verdict in ("first stage", "rationally trivial", "skipped (beyond M_max)")
            for s in self.stages
        )

    def to_json(self):
        first = self.first_stage
        out = {
            "k": self.k,
            "l": self.l,
            "vanishes": self.vanishes,
            "length": self.length,
            "one_stage": self.one_stage,
            "pi0": self.pi0,
            "first_stage": None if first is None else first.to_map(),
            # the degree the first stage is known through; null when exact
            "first_stage_cutoff": None if first is None else first.truncation,
            "stages": [s.to_json() for s in self.stages],
            "verified": self.verified,
            "note": self.note,
        }
        if self.endomorphism is not None:
            out["endomorphism"] = self.endomorphism.to_map()
        return out

    def csv_rows(self):
        rows = [["k", "l", "m", "prime_power", "verdict", "poincare"]]
        for s in self.stages:
            flag = "" if s.prime_power is None else ("yes" if s.prime_power else "no")
            rows.append([str(self.k), str(self.l), str(s.m), flag, s.verdict, s.poincare.pretty()])
        return rows


def small_range_report(k, l, cutoff=None):
    """Full filtration report for a pair (k, l).

    One-stage ranges (floor(k/l) = 1) are marked as such and the full
    rational homology is the first-stage polynomial, for any k (with l = 1
    from the Molien series, with l > 1 from the Cartan closed form).
    Higher stages carry their prime-power flags and the outcome of the
    subquotient verification; stages beyond ``M_MAX`` are skipped;
    ``cube m --l l --k k --allow-large`` runs the same check for such a
    stage m.
    """
    if vanishing_check(k, l):
        return FiltrationReport(
            k=k, l=l, vanishes=True, length=0, pi0=0, first_stage=None, stages=()
        )
    length = k // l
    first = cartan.poincare(first_stage_descriptor(k, l), cutoff=cutoff)
    stages = [StageReport(1, None, "first stage", first)]
    for m in range(2, length + 1):
        if m > M_MAX:
            stages.append(StageReport(m, is_prime_power(m), "skipped (beyond M_max)", Poly.zero()))
            continue
        verified = subquotient_rational_check(k, l, m, cutoff=cutoff).verified
        verdict = "rationally trivial" if verified else "verification FAILED"
        stages.append(StageReport(m, is_prime_power(m), verdict, Poly.zero()))
    endo = first if k == l else None
    return FiltrationReport(
        k=k,
        l=l,
        vanishes=False,
        length=length,
        pi0=pi0_check(k, l),
        first_stage=first,
        stages=tuple(stages),
        endomorphism=endo,
    )
