import random

from oracles import dense_rank_fractions
from rankfilt.linalg import sparse_rank


def test_known_ranks():
    assert sparse_rank([]) == 0
    assert sparse_rank([{}]) == 0
    assert sparse_rank([{0: 5}]) == 1
    assert sparse_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert sparse_rank([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2
    # integer-sensitive case: entries that cancel only over Q
    assert sparse_rank([{0: 2, 1: 6}, {0: 3, 1: 9}]) == 1


def test_random_cross_check():
    rng = random.Random(20260810)
    for _ in range(500):
        nr, nc = rng.randint(1, 9), rng.randint(1, 9)
        rows = []
        for _ in range(nr):
            row = {}
            for c in range(nc):
                if rng.random() < 0.45:
                    v = rng.randint(-4, 4)
                    if v:
                        row[c] = v
            rows.append(row)
        expected = dense_rank_fractions(rows, nc)
        assert sparse_rank([dict(r) for r in rows]) == expected


def test_rank_scaling_invariance():
    rng = random.Random(12)
    for _ in range(100):
        nc = rng.randint(1, 6)
        rows = [
            {c: rng.randint(-3, 3) for c in range(nc) if rng.random() < 0.6}
            for _ in range(rng.randint(1, 6))
        ]
        rows = [{c: v for c, v in r.items() if v} for r in rows]
        scaled = [{c: 7 * v for c, v in r.items()} for r in rows]
        assert sparse_rank([dict(r) for r in rows]) == sparse_rank(scaled)


def test_koszul_rows_cross_check():
    from rankfilt.cartan import KoszulComplex
    from rankfilt.orbitspace import parse_descriptor

    for text in [
        "U(3)/(1,2)xU(1)",
        "U(4)/(1)x(1)xU(2)",
        "U(4)/S2wr(1)xU(2)",
        "U(5)/S2wr(1,2)x(1)",
        "U(8)/S4wr(2)",
        "U(8)/S2wrS2wr(2)",
    ]:
        kc = KoszulComplex(parse_descriptor(text))
        for invariants in (True, False):
            for degree in range(9):
                rows = kc._image_rows(degree, invariants)
                ncols = len(kc.basis(degree + 1, invariants))
                expected = dense_rank_fractions(rows, ncols)
                assert sparse_rank([dict(r) for r in rows]) == expected, (text, degree)


def test_heap_stress_cross_check():
    # many rows of one length, duplicate rows, and rows that elimination
    # empties or shortens
    rng = random.Random(20261018)
    for _ in range(300):
        nc = rng.randint(2, 10)
        width = rng.randint(1, nc)
        base = [
            {c: rng.choice((-2, -1, 1, 2)) for c in rng.sample(range(nc), width)}
            for _ in range(rng.randint(1, 6))
        ]
        rows = []
        for _ in range(rng.randint(1, 25)):
            r = rng.random()
            if r < 0.4:
                rows.append(dict(rng.choice(base)))
            elif r < 0.6:
                a, b = rng.sample(base, 2) if len(base) > 1 else (base[0], base[0])
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                row = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in set(a) | set(b)}
                rows.append({c: v for c, v in row.items() if v})
            else:
                rows.append({c: rng.randint(1, 3) for c in rng.sample(range(nc), width)})
        expected = dense_rank_fractions(rows, nc)
        assert sparse_rank([dict(r) for r in rows]) == expected


def test_input_rows_are_not_changed():
    rng = random.Random(20261019)
    for _ in range(100):
        nc = rng.randint(1, 8)
        rows = [
            {c: rng.randint(-4, 4) for c in range(nc) if rng.random() < 0.6}
            for _ in range(rng.randint(1, 10))
        ]
        # zero entries, shared multiples and content to strip included
        rows += [{c: 6 * v for c, v in rows[0].items()}, dict(rows[-1])]
        before = [dict(r) for r in rows]
        sparse_rank(rows)
        assert rows == before
