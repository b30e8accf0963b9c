"""Wedge-summand indexing of the rank filtration.

Index tuples (m_1, ..., m_t) of non-negative integers label the wedge
summands of the value of the mapping functor on the pointed set [t], in
ambient context (k, l).  The rank of a tuple is the sum of its entries;
a non-basepoint summand exists only when l * rank <= k, so the filtration
stage bound is always clipped to floor(k / l).  The all-zero tuple is the
basepoint and is never stored in a summand set.

An index tuple is a plain tuple of ints.  The context it lives in (k, l,
the length t and the stage bound ``max_rank``) is stored once, on the
``SummandSet`` that holds it, and the set checks every tuple against it.

``max_rank=None`` throughout means the unfiltered functor (stage infinity),
which internally coincides with stage floor(k / l).

The module also holds the shared enumerators (bounded-sum tuples,
partitions into a fixed number of parts) and the prime-power flag that
reports attach to each stage.  Maps of pointed sets and the composition
of index tuples are not needed to compute any report; they survive only
as test oracles.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field


class ContractViolation(ValueError):
    """An operation was called outside its stated preconditions."""


# ---------------------------------------------------------------------------
# summand sets


@dataclass(frozen=True)
class SummandSet:
    """Non-basepoint index tuples over (k, l), each of length t, in strictly
    increasing lexicographic order (so no tuple is stored twice)."""

    k: int
    l: int
    t: int
    max_rank: object  # int, or None for the unfiltered functor
    tuples: tuple = field(default=())

    def __post_init__(self):
        if self.k < 1 or self.l < 1:
            raise ContractViolation("ambient ranks must be >= 1")
        tuples = self.tuples
        if not tuples:
            return
        # each check is one pass over the whole set
        if set(map(len, tuples)) != {self.t}:
            raise ContractViolation("tuple length differs from t")
        if self.t and min(map(min, tuples)) < 0:
            raise ContractViolation("negative multiplicity")
        ranks = list(map(sum, tuples))
        if min(ranks) == 0:
            raise ContractViolation("basepoint tuple stored in a summand set")
        if self.l * max(ranks) > self.k:
            r = next(r for r in ranks if self.l * r > self.k)
            raise ContractViolation(
                "tuple of rank %d cannot label a summand: %d * %d > %d" % (r, self.l, r, self.k)
            )
        if not all(map(operator.lt, tuples, tuples[1:])):
            raise ContractViolation("summand set not strictly in lexicographic order")

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def to_json(self):
        return {
            "k": self.k,
            "l": self.l,
            "t": self.t,
            "max_rank": self.max_rank,
            "tuples": self.tuples,
        }


def rank_bound(k, l, max_rank=None):
    """Effective rank bound: min(max_rank, floor(k/l)); None means unfiltered."""
    bound = k // l
    if max_rank is None:
        return bound
    return min(max_rank, bound)


def _tuples_with_sum_range(t, lo, hi):
    """All length-t tuples of non-negative ints with lo <= sum <= hi, in lex
    order, as a list.

    Built level by level as (prefix, room) pairs, ``room`` being what the
    sum may still add: each prefix takes every next entry from 0 up, which
    keeps lex order, and the last entry only those that bring the sum to
    at least ``lo``.
    """
    if hi < 0 or hi < lo:
        return []
    if t == 0:
        return [()] if lo <= 0 else []
    level = [((), hi)]
    for _ in range(t - 1):
        level = [(prefix + (v,), room - v) for prefix, room in level for v in range(room + 1)]
    slack = hi - lo
    return [prefix + (v,) for prefix, room in level for v in range(max(0, room - slack), room + 1)]


def _check_context(k, l, t, max_rank):
    if k < 1 or l < 1:
        raise ContractViolation("need k, l >= 1")
    if t < 0:
        raise ContractViolation("need t >= 0")
    if max_rank is not None and max_rank < 0:
        raise ContractViolation("need max_rank >= 0")


def enumerate_summands(k, l, t, max_rank=None):
    """All non-basepoint tuples (m_1, ..., m_t) with sum <= min(max_rank, floor(k/l))."""
    _check_context(k, l, t, max_rank)
    bound = rank_bound(k, l, max_rank)
    return SummandSet(k, l, t, max_rank, tuple(_tuples_with_sum_range(t, 1, bound)))


def subquotient_summands(k, l, t, m, positive_only=False):
    """Tuples with sum exactly m; empty unless l*m <= k.

    With ``positive_only`` every entry must be >= 1 (the unpointed summand
    family on the set of supports).
    """
    _check_context(k, l, t, None)
    if m < 0:
        raise ContractViolation("need subquotient stage m >= 0")
    if l * m > k:
        return SummandSet(k, l, t, m, ())
    tuples = tuple(
        e for e in _tuples_with_sum_range(t, max(m, 1), m) if not (positive_only and 0 in e)
    )
    return SummandSet(k, l, t, m, tuples)


def latching_quotient(k, l, t, max_rank=None):
    """Tuples with every entry >= 1 and sum <= min(max_rank, floor(k/l)).

    Empty exactly when t exceeds the effective rank bound: the latching
    quotient of the functor is trivial beyond that stage.
    """
    _check_context(k, l, t, max_rank)
    bound = rank_bound(k, l, max_rank)
    tuples = tuple(e for e in _tuples_with_sum_range(t, max(t, 1), bound) if 0 not in e)
    return SummandSet(k, l, t, max_rank, tuples)


def partitions_into(n, parts, largest=None):
    """Partitions of n into exactly ``parts`` positive parts, descending.

    Parts are at most ``largest`` (default n); the union over ``parts``
    lists every partition of n exactly once.
    """
    if largest is None:
        largest = n
    if parts == 0:
        if n == 0:
            yield ()
        return
    if not parts <= n <= parts * largest:
        return
    for first in range(min(n - parts + 1, largest), 0, -1):
        for rest in partitions_into(n - first, parts - 1, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# prime powers


def is_prime_power(m):
    """True when m = p^e for a prime p and e >= 1.  1 is not a prime power."""
    if m < 2:
        return False
    p = next(f for f in range(2, m + 1) if m % f == 0)  # least prime factor
    while m % p == 0:
        m //= p
    return m == 1
