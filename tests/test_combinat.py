"""Frozen examples and randomized property suites for the indexing calculus.

The randomized suites are seeded and run at least 1000 cases each; the
summand counter is cross-checked against an independent recursive counter
kept here, away from the implementation.
"""

import itertools
import random

import pytest

from oracles import PointedMap, compose_indices, compose_rank, index_tuple, pushforward
from rankfilt.combinat import (
    ContractViolation,
    SummandSet,
    _tuples_with_sum_range,
    enumerate_summands,
    is_prime_power,
    latching_quotient,
    partitions_into,
    rank_bound,
    subquotient_summands,
)

N_CASES = 1000


def random_map(rng, t=None, s=None):
    t = rng.randint(0, 6) if t is None else t
    s = rng.randint(0, 6) if s is None else s
    return PointedMap(t, s, tuple(rng.randint(0, s) for _ in range(t)))


def entries(summands):
    return list(summands)


def count_oracle(t, bound):
    """Independent recursive count of {m in Z_{>=0}^t : 0 < sum(m) <= bound}."""

    def weak(t, s):
        # number of t-tuples of non-negative integers summing to exactly s
        if t == 0:
            return 1 if s == 0 else 0
        return sum(weak(t - 1, s - v) for v in range(s + 1))

    return sum(weak(t, s) for s in range(1, bound + 1))


# -- pushforward -----------------------------------------------------------


def test_pushforward_examples():
    alpha = PointedMap(3, 2, (0, 1, 1))
    assert pushforward(alpha, (4, 2, 3)) == (5, 0)
    ident = PointedMap.identity(4)
    assert pushforward(ident, (3, 0, 2, 5)) == (3, 0, 2, 5)
    fold = PointedMap(2, 1, (1, 1))
    assert pushforward(fold, (1, 2)) == (3,)


def test_pushforward_length_mismatch():
    with pytest.raises(ContractViolation):
        pushforward(PointedMap(2, 2, (1, 2)), (1, 2, 3))


def test_pushforward_functoriality():
    rng = random.Random(20260810)
    for _ in range(N_CASES):
        alpha = random_map(rng)
        beta = random_map(rng, t=alpha.target_size)
        m = tuple(rng.randint(0, 5) for _ in range(alpha.source_size))
        composite = beta.compose(alpha)
        assert pushforward(composite, m) == pushforward(beta, pushforward(alpha, m))


def test_pushforward_rank_monotonicity():
    rng = random.Random(11)
    for _ in range(N_CASES):
        alpha = random_map(rng)
        m = tuple(rng.randint(0, 5) for _ in range(alpha.source_size))
        out = pushforward(alpha, m)
        assert sum(out) <= sum(m)
        kills_mass = any(m[i - 1] > 0 and alpha(i) == 0 for i in range(1, len(m) + 1))
        assert (sum(out) == sum(m)) == (not kills_mass)


# -- summand enumeration ----------------------------------------------------


def test_enumerate_examples():
    assert entries(enumerate_summands(1, 2, 1)) == []
    assert entries(enumerate_summands(2, 1, 1)) == [(1,), (2,)]
    five = enumerate_summands(4, 1, 2, 2)
    assert len(five) == 5
    assert set(entries(five)) == {(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)}


def test_enumerate_counts_against_oracle():
    rng = random.Random(404)
    for _ in range(N_CASES):
        k = rng.randint(1, 7)
        l = rng.randint(1, 3)
        t = rng.randint(0, 4)
        m = rng.choice([None, 0, 1, 2, 3, 9])
        got = len(enumerate_summands(k, l, t, m))
        assert got == count_oracle(t, rank_bound(k, l, m))


def test_enumerate_lex_order_and_nesting():
    for k, l, t in [(4, 1, 2), (6, 2, 3), (5, 1, 1)]:
        full = enumerate_summands(k, l, t)
        prev = set()
        for m in range(0, k // l + 2):
            cur = set(entries(enumerate_summands(k, l, t, m)))
            assert prev <= cur
            prev = cur
        assert prev == set(entries(full))
        lst = entries(full)
        assert lst == sorted(lst)


def test_subquotient_examples():
    assert set(entries(subquotient_summands(2, 1, 2, 2))) == {(2, 0), (0, 2), (1, 1)}
    assert entries(subquotient_summands(2, 1, 2, 2, positive_only=True)) == [(1, 1)]
    for t in range(5):
        assert len(subquotient_summands(3, 2, t, 2)) == 0


def test_latching_examples_and_triviality():
    assert entries(latching_quotient(4, 1, 3, 2)) == []
    assert entries(latching_quotient(4, 2, 2, 2)) == [(1, 1)]
    assert entries(latching_quotient(4, 1, 1, 2)) == [(1,), (2,)]
    rng = random.Random(77)
    for _ in range(N_CASES):
        k = rng.randint(1, 7)
        l = rng.randint(1, 3)
        t = rng.randint(0, 5)
        m = rng.choice([None, 0, 1, 2, 3])
        got = latching_quotient(k, l, t, m)
        bound = rank_bound(k, l, m)
        if t > bound:
            assert len(got) == 0
        else:
            assert len(got) > 0 or t == 0
        for it in got:
            assert all(v >= 1 for v in it) and sum(it) <= bound


def test_special_wedge_splitting():
    # index sets of a wedge [s] v [t] split into pairs of index sets
    k, l, s, t = 9, 1, 2, 3
    whole = set(entries(enumerate_summands(k, l, s + t)))
    split = {
        (a + b)
        for a in entries(enumerate_summands(k, l, s)) + [(0,) * s]
        for b in entries(enumerate_summands(k, l, t)) + [(0,) * t]
        if sum(a) + sum(b) > 0 and sum(a) + sum(b) <= k // l
    }
    assert whole == split


# -- composition -------------------------------------------------------------


def test_compose_rank_examples():
    assert compose_rank(2, 3) == 6
    assert compose_rank(1, 1) == 1


def test_compose_indices_example():
    m = index_tuple((2, 1), 6, 2)
    n = index_tuple((1, 1), 2, 1)
    out_entries, k, l = compose_indices(m, n)
    assert out_entries == (2, 2, 1, 1)
    assert sum(out_entries) == 6
    assert (k, l) == (6, 1)


def test_compose_incompatible_contexts():
    with pytest.raises(ContractViolation):
        compose_indices(index_tuple((1,), 4, 2), index_tuple((1,), 3, 1))


def test_compose_rank_multiplicativity():
    rng = random.Random(5150)
    for _ in range(N_CASES):
        l = rng.randint(1, 3)
        n = rng.randint(1, 2)
        s_len = rng.randint(1, 3)
        n_entries = tuple(rng.randint(0, 2) for _ in range(s_len))
        s_rank = sum(n_entries)
        if n * s_rank > l:
            continue
        t_len = rng.randint(1, 3)
        m_entries = tuple(rng.randint(0, 2) for _ in range(t_len))
        r = sum(m_entries)
        k = max(1, l * r + rng.randint(0, 3))
        out, _, _ = compose_indices(index_tuple(m_entries, k, l), index_tuple(n_entries, l, n))
        assert sum(out) == compose_rank(sum(m_entries), sum(n_entries))
        assert len(out) == len(m_entries) * len(n_entries)


# -- prime powers ------------------------------------------------------------


def test_prime_power_predicate():
    expected = {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32}
    got = {m for m in range(1, 33) if is_prime_power(m)}
    assert got == expected
    assert not is_prime_power(1)
    assert not is_prime_power(6)


def test_primes_against_brute_force():
    for n in range(500):
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        prime_divisors = {d for d in divisors if all(d % e for e in range(2, d))}
        assert is_prime_power(n) == (len(prime_divisors) == 1), n


# -- the shared enumerators ----------------------------------------------------


def test_tuples_with_sum_range_matches_nonzero_bounded_tuples():
    def nonzero_tuples(t, budget):
        # the enumerator the limit series used before it shared this one
        out = []

        def rec(prefix, budget):
            if len(prefix) == t:
                if any(prefix):
                    out.append(tuple(prefix))
                return
            for v in range(budget + 1):
                prefix.append(v)
                rec(prefix, budget - v)
                prefix.pop()

        rec([], budget)
        return out

    for t in range(1, 5):
        for r in range(1, 5):
            assert list(_tuples_with_sum_range(t, 1, r)) == nonzero_tuples(t, r), (t, r)


def test_tuples_with_sum_range_matches_a_filtered_product():
    for t in range(4):
        for lo in range(-1, 5):
            for hi in range(-1, 5):
                want = [e for e in itertools.product(range(max(hi, 0) + 1), repeat=t)
                        if lo <= sum(e) <= hi]
                assert list(_tuples_with_sum_range(t, lo, hi)) == want, (t, lo, hi)


def test_partitions_into_covers_each_partition_once():
    def count(n, largest):
        # partitions of n into parts <= largest
        if n == 0:
            return 1
        return sum(count(n - first, first) for first in range(1, min(n, largest) + 1))

    for n in range(11):
        union = [p for r in range(n + 1) for p in partitions_into(n, r)]
        assert len(union) == len(set(union)) == count(n, n), n
        for p in union:
            assert sum(p) == n and list(p) == sorted(p, reverse=True) and min(p, default=1) >= 1


@pytest.mark.parametrize(
    "k, l, t, tuples, why",
    [
        (3, 2, 2, ((0, 0),), "basepoint"),
        (3, 2, 0, ((),), "basepoint"),  # the empty tuple is the basepoint of [0]
        (3, 2, 2, ((),), "length"),
        (3, 2, 2, ((1,),), "length"),
        (3, 2, 2, ((1, 0, 0),), "length"),
        (3, 2, 2, ((2, -1),), "negative"),  # rank 1 would fit
        (3, 2, 1, ((2,),), "label"),  # rank 2 needs 2*2 <= 3
        (3, 2, 2, ((1, 0), (1, 0)), "lexicographic"),  # a duplicate
        (3, 2, 2, ((1, 0), (0, 1)), "lexicographic"),
        (0, 1, 1, (), "ambient"),
        (3, 0, 1, (), "ambient"),
    ],
)
def test_summand_set_rejects_each_bad_tuple(k, l, t, tuples, why):
    with pytest.raises(ContractViolation, match=why):
        SummandSet(k, l, t, None, tuples)
