"""Acceptance suite: one test per criterion, one pass/fail line each.

Every comparison is exact (integer polynomial equality, through the stated
degree window where an engine is truncated).  Nothing is tuned at run time:
all tolerances are equality, all cutoffs are fixed here.
"""

import random
import time

from oracles import (
    PointedMap,
    compose_indices,
    compose_rank,
    flag_poincare_oracle,
    index_tuple,
    pushforward,
    vertex,
)
from rankfilt.cartan import cartan_cohomology, poincare
from rankfilt.combinat import (
    enumerate_summands,
    latching_quotient,
    rank_bound,
)
from rankfilt.decomp import cube_report
from rankfilt.orbitspace import (
    Block,
    Bunch,
    OrbitDescriptor,
    Wreath,
    molien_poincare,
)
from rankfilt.poly import Poly, prod
from rankfilt.spectra import (
    first_stage_descriptor,
    ku_limit_series,
    pi0_check,
    small_range_report,
    subquotient_rational_check,
    vanishing_check,
)


def report_line(n, detail):
    print("[acceptance] criterion %d PASS: %s" % (n, detail))


def compositions_of(k):
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in compositions_of(k - first):
            yield (first,) + rest


def partitions_of(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def _single_unit_options(copies, size):
    """Pure wreath trees covering ``copies`` identical blocks of a size."""
    if copies == 1:
        return [Block(size)]
    out = []
    for c in range(2, copies + 1):
        if copies % c == 0:
            for inner in _single_unit_options(copies // c, size):
                out.append(Wreath(inner, c))
    return out


def _class_structures(copies, size):
    """All multisets of wreath trees covering a class of identical blocks."""
    if copies == 0:
        return [()]
    out = set()
    for h in range(1, copies + 1):
        for u in _single_unit_options(h, size):
            for rest in _class_structures(copies - h, size):
                combo = tuple(sorted((u,) + rest, key=repr))
                out.add(combo)
    return sorted(out, key=repr)


def torus_commensurable_descriptors(k):
    """Every block multiset with complement, decorated by wreath finite parts."""
    out = []
    for c in range(k + 1):
        for part in partitions_of(k - c):
            classes = {}
            for s in part:
                classes[s] = classes.get(s, 0) + 1
            per_class = [_class_structures(g, s) for s, g in sorted(classes.items())]

            def expand(i, acc):
                if i == len(per_class):
                    out.append(OrbitDescriptor(k, tuple(acc), c).canonicalize())
                    return
                for structure in per_class[i]:
                    expand(i + 1, acc + list(structure))

            expand(0, [])
    # block permutations over composite inner bunches
    if k >= 4:
        out.append(OrbitDescriptor(k, (Wreath(Bunch((Block(1), Block(1))), 2),), k - 4))
    if k >= 6:
        out.append(OrbitDescriptor(k, (Wreath(Bunch((Block(2), Block(1))), 2),), k - 6))
    seen = {}
    for d in out:
        seen[d.canonical_string()] = d
    return [seen[s] for s in sorted(seen)]


def test_criterion_1_engine_cross_validation():
    start = time.time()
    count_flag = 0
    for k in range(1, 7):
        for comp in compositions_of(k):
            d = OrbitDescriptor(k, tuple(Block(x) for x in comp[:-1]), comp[-1])
            assert molien_poincare(d) == flag_poincare_oracle(comp), comp
            count_flag += 1
    count_cartan = 0
    for k in range(1, 5):
        for d in torus_commensurable_descriptors(k):
            exact = molien_poincare(d)
            trunc = cartan_cohomology(d, 20)
            assert exact.agrees(trunc, through=20), d.canonical_string()
            count_cartan += 1
    elapsed = time.time() - start
    assert elapsed < 60
    report_line(
        1,
        "molien == flag on %d compositions; molien == cartan (deg <= 20) on %d "
        "descriptors with k <= 4 (%.1fs)" % (count_flag, count_cartan, elapsed),
    )


def test_criterion_2_normalizer_triviality():
    start = time.time()
    for m in range(1, 7):
        d = OrbitDescriptor(m, (Wreath(Block(1), m),), 0)
        assert molien_poincare(d) == Poly({0: 1}), m
    elapsed = time.time() - start
    assert elapsed < 10
    report_line(2, "P(U(m)/(Sym_m wr U(1))) = 1 exactly for m <= 6 (%.1fs)" % elapsed)


def test_criterion_3_rational_contractibility_cubes():
    start = time.time()
    for m in (2, 3, 4):
        r = cube_report(m)
        assert r.verified, m
        assert all(e.ok for e in r.edges)
        assert r.signed_sum == Poly.zero()
    r3 = cube_report(3)
    square = [vertex(r3, s).poincare for s in [(), (2,), (3,), (2, 3)]]
    assert square == [
        Poly({0: 1}),
        Poly({0: 1, 2: 1, 4: 1}),
        Poly({0: 1}),
        Poly({0: 1, 2: 1, 4: 1}),
    ]
    elapsed = time.time() - start
    assert elapsed < 300
    report_line(
        3,
        "cubes m = 2, 3, 4 verified with signed sum 0; m = 3 reproduces the square "
        "(1, 1+t^2+t^4, 1, 1+t^2+t^4) (%.1fs)" % elapsed,
    )


def test_criterion_4_subquotient_vanishing():
    start = time.time()
    cases = []
    for l in (1, 2):
        for m in (2, 3):
            for k in range(l * m, 7):
                cases.append((k, l, m))
    for (k, l, m) in cases:
        cutoff = None if l == 1 else 16
        cube = subquotient_rational_check(k, l, m, cutoff=cutoff)
        failed = [e.mismatches for e in cube.edges if not e.ok]
        assert cube.verified, (k, l, m, failed, cube.signed_sum.pretty())
    elapsed = time.time() - start
    assert elapsed < 600
    report_line(
        4,
        "%d subquotients rationally trivial for l <= 2, l*m <= k <= 6, m in {2, 3} "
        "(%.1fs)" % (len(cases), elapsed),
    )


def test_criterion_5_first_stage_identifications():
    start = time.time()
    r21 = small_range_report(2, 1)
    assert r21.first_stage == Poly({0: 1, 2: 1})
    pu_oracle = {
        2: prod(Poly({0: 1, 2 * i - 1: 1}) for i in range(2, 3)),
        3: prod(Poly({0: 1, 2 * i - 1: 1}) for i in range(2, 4)),
        4: prod(Poly({0: 1, 2 * i - 1: 1}) for i in range(2, 5)),
    }
    assert pu_oracle[2] == Poly({0: 1, 3: 1})
    for k in (2, 3, 4):
        rkk = small_range_report(k, k, cutoff=16)
        assert rkk.one_stage
        assert rkk.endomorphism.agrees(pu_oracle[k]), k
        assert rkk.endomorphism.coeffs == pu_oracle[k].coeffs, k
    elapsed = time.time() - start
    assert elapsed < 120
    report_line(
        5,
        "report(2,1) = 1 + t^2; report(k,k) matches the hard-coded odd-generator "
        "product for k = 2, 3, 4 (%.1fs)" % elapsed,
    )


def test_criterion_6_pi0():
    start = time.time()
    for k in range(1, 6):
        for l in range(1, k + 1):
            assert pi0_check(k, l) == 1, (k, l)
        for l in range(k + 1, 8):
            assert vanishing_check(k, l)
            assert pi0_check(k, l) == 0, (k, l)
    elapsed = time.time() - start
    assert elapsed < 30
    report_line(6, "pi0 = 1 for 1 <= l <= k <= 5 and 0 for l > k (%.1fs)" % elapsed)


def test_criterion_7_combinatorial_properties():
    start = time.time()
    cases = 1000
    rng = random.Random(8128)

    def rmap(t=None, s=None):
        t = rng.randint(0, 6) if t is None else t
        s = rng.randint(0, 6) if s is None else s
        return PointedMap(t, s, tuple(rng.randint(0, s) for _ in range(t)))

    for _ in range(cases):  # functoriality
        alpha = rmap()
        beta = rmap(t=alpha.target_size)
        m = tuple(rng.randint(0, 5) for _ in range(alpha.source_size))
        assert pushforward(beta.compose(alpha), m) == pushforward(beta, pushforward(alpha, m))

    for _ in range(cases):  # rank multiplicativity
        r, s = rng.randint(0, 9), rng.randint(0, 9)
        assert compose_rank(r, s) == r * s
        l = rng.randint(1, 3)
        n_entries = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        if sum(n_entries) > l:
            continue
        m_entries = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        k = max(1, l * sum(m_entries) + rng.randint(0, 2))
        out, _, _ = compose_indices(index_tuple(m_entries, k, l), index_tuple(n_entries, l, 1))
        assert sum(out) == sum(m_entries) * sum(n_entries)

    for _ in range(cases):  # latching triviality
        k, l = rng.randint(1, 7), rng.randint(1, 3)
        t = rng.randint(0, 6)
        m = rng.choice([None, 0, 1, 2, 3])
        bound = rank_bound(k, l, m)
        got = latching_quotient(k, l, t, m)
        assert (len(got) == 0) == (t > bound) or t == 0, (k, l, t, m)

    def weak(t, s):
        if t == 0:
            return 1 if s == 0 else 0
        return sum(weak(t - 1, s - v) for v in range(s + 1))

    for _ in range(cases):  # summand count oracle
        k, l = rng.randint(1, 7), rng.randint(1, 3)
        t = rng.randint(0, 4)
        m = rng.choice([None, 0, 1, 2, 3, 9])
        bound = rank_bound(k, l, m)
        assert len(enumerate_summands(k, l, t, m)) == sum(
            weak(t, s) for s in range(1, bound + 1)
        )

    elapsed = time.time() - start
    assert elapsed < 30
    report_line(7, "4 randomized suites x %d cases, zero failures (%.1fs)" % (cases, elapsed))


def test_criterion_8_ku_limit():
    start = time.time()
    series = ku_limit_series(1, 1, 12)
    closed_form = Poly.geometric(2, 12)
    assert series == closed_form
    for k in range(8, 13):
        assert not vanishing_check(k, 1)
        cp = poincare(first_stage_descriptor(k, 1))  # exact polynomial of CP^(k-1)
        assert cp.agrees(closed_form, through=12), k
    elapsed = time.time() - start
    assert elapsed < 10
    report_line(
        8,
        "rank-1 limit series equals 1/(1-t^2) and the stabilized projective-space "
        "coefficients through degree 12 for k = 8..12 (%.1fs)" % elapsed,
    )
