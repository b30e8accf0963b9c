"""The benchmark workloads: CLI argument lists and the check for each answer.

A case is one ``rankfilt`` command line and a function that checks its
stdout.  Three workloads are fixed lists; ``cache-stream`` is generated
from the seed.  See README.md in this directory for why each was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle
from oracle import Expect


@dataclass(frozen=True)
class Case:
    argv: tuple
    check: object  # stdout -> list of error strings
    key: str = ""  # cases with the same key must print the same answer


def _molien_expect(descriptor, dim):
    """The --engine cartan answer must match the Molien engine on its descriptor."""

    def expect():
        from rankfilt.orbitspace import molien_poincare, parse_descriptor

        value = molien_poincare(parse_descriptor(descriptor)).to_map()
        return Expect(dim=dim, connected=False, value={int(d): c for d, c in value.items()})

    return expect


def _poincare_text(argv, expect):
    def check(stdout):
        e = expect() if callable(expect) else expect
        return oracle.check_poincare_text(argv, stdout, e)

    return Case(argv, check)


def _report(k, l):
    argv = ("report", str(k), str(l))
    return Case(argv, lambda stdout: oracle.check_report_text(argv, stdout, k, l))


def _cube(m, *extra):
    return Case(("cube", str(m)) + extra, lambda stdout: oracle.check_cube_text(stdout, m))


def molien_cubes(seed):
    return [
        _cube(8, "--allow-large"),
        _cube(7, "--allow-large"),
        _report(8, 1),
        _report(7, 1),
        Case(
            ("summands", "8", "1", "8", "--json"),
            lambda stdout: oracle.check_summands_json(stdout, 8, 1, 8),
        ),
    ]


def koszul_wreath(seed):
    return [
        # the torus normalizer: rationally a point
        _poincare_text(
            ("poincare", "U(6)/S6wr(1)", "--cutoff", "18"),
            Expect(dim=30, connected=False, value={0: 1}),
        ),
        _cube(3, "--l", "2", "--k", "8", "--cutoff", "20"),
        _poincare_text(
            ("poincare", "U(8)/S4wr(2)", "--engine", "cartan", "--cutoff", "20"),
            _molien_expect("U(8)/S4wr(2)", 64 - 4 * 4),
        ),
        _poincare_text(
            ("poincare", "U(8)/S2wrS2wr(2)", "--engine", "cartan", "--cutoff", "20"),
            _molien_expect("U(8)/S2wrS2wr(2)", 64 - 4 * 4),
        ),
    ]


def koszul_reports(seed):
    return [
        _report(7, 2),
        _report(8, 3),
        _report(8, 4),
        _poincare_text(
            ("poincare", "U(8)/(1,2)xU(6)", "--cutoff", "27"), oracle.first_stage_expect(8, 2)
        ),
        _poincare_text(("poincare", "U(7)/(1,3)xU(4)"), oracle.first_stage_expect(7, 3)),
    ]


# ---------------------------------------------------------------------------
# cache-stream: seeded queries over a fixed pool of descriptors

# flag manifolds U(k)/(U(a_1) x ... x U(a_r)), k <= 8
FLAGS = [
    (1, 1), (2, 1), (1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (1, 1, 1, 1),
    (2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2), (4, 1), (1,) * 5,
    (2, 2, 2), (3, 2, 1), (3, 3), (4, 1, 1), (5, 1), (1,) * 6,
    (3, 2, 2), (4, 3), (5, 1, 1), (6, 1), (1,) * 7,
    (2, 2, 2, 2), (3, 3, 2), (4, 4), (7, 1), (1,) * 8,
]
# flag manifolds whose last block is written as the complement U(c)
FLAGS_WITH_COMPLEMENT = [(1, 1, 2), (2, 1, 5)]
WREATHS = [2, 3, 4, 5, 6, 7, 8]  # U(k)/(S_k wr U(1))
FIRST_STAGES = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 4), (5, 5), (6, 6)]
QUERIES = 300


def _units(parts):
    return ["(%d)" % a for a in parts]


def _spellings(kind, spec):
    """Equivalent ways to write one descriptor, and what is known about it."""
    if kind == "flag":
        k = sum(spec)
        forward = "U(%d)/%s" % (k, "x".join(_units(spec)))
        backward = "U(%d)/%s" % (k, "x".join(_units(reversed(spec))))
        counts = {}
        for a in spec:
            counts[a] = counts.get(a, 0) + 1
        terms = ["%dx(%d)" % (n, a) if n > 1 else "(%d)" % a for a, n in sorted(counts.items())]
        bracket = "U(%d)/[%s]" % (k, "|".join(terms))
        return oracle.flag_expect(spec), [forward, backward, bracket]
    if kind == "flag+complement":
        k = sum(spec)
        blocks, c = spec[:-1], spec[-1]
        body = "x".join(_units(blocks))
        spellings = ["U(%d)/%sxU(%d)" % (k, body, c), "U(%d)/U(%d)x%s" % (k, c, body)]
        return oracle.flag_expect(spec), spellings
    if kind == "wreath":
        k = spec
        expect = Expect(dim=k * k - k, connected=False, value={0: 1})
        return expect, ["U(%d)/S%dwr(1)" % (k, k), "U(%d)/[%dx(1)|S%d]" % (k, k, k)]
    if kind == "first-stage":
        k, l = spec
        return oracle.first_stage_expect(k, l), [
            "U(%d)/(1,%d)xU(%d)" % (k, l, k - l),
            "U(%d)/U(%d)x(1,%d)" % (k, k - l, l),
            "U(%d)/(1,%d)" % (k, l),
        ]
    raise ValueError(kind)


def pool():
    entries = [("flag", p) for p in FLAGS]
    entries += [("flag+complement", p) for p in FLAGS_WITH_COMPLEMENT]
    entries += [("wreath", k) for k in WREATHS]
    entries += [("first-stage", kl) for kl in FIRST_STAGES]
    return [_spellings(kind, spec) for kind, spec in entries]


def cache_stream(seed):
    """300 ``poincare D --json`` queries over 47 descriptors, 84% of them repeats.

    Every pool entry is queried once for the first time at evenly spaced
    positions, so each pass misses the cache once per entry and the cache
    file grows at the same pace for every seed.  The seed fixes which entry
    comes new at each of those positions, which earlier entry each repeat
    asks for again (uniformly), and how each query is spelled.  The worker
    appends ``--cache <fresh file>`` to every query.
    """
    rng = random.Random(seed)
    entries = pool()
    order = list(range(len(entries)))
    rng.shuffle(order)
    first_at = {QUERIES * i // len(entries) for i in range(len(entries))}
    cases = []
    seen = []
    for pos in range(QUERIES):
        if pos in first_at:
            idx = order[len(seen)]
            seen.append(idx)
        else:
            idx = rng.choice(seen)
        expect, spellings = entries[idx]
        argv = ("poincare", rng.choice(spellings), "--json")
        cases.append(
            Case(argv, lambda stdout, e=expect: oracle.check_poincare_json(stdout, e), key=str(idx))
        )
    return cases


# workload name -> cases for a seed; the fixed lists ignore the seed
WORKLOADS = {
    "molien-cubes": molien_cubes,
    "koszul-wreath": koszul_wreath,
    "koszul-reports": koszul_reports,
    "cache-stream": cache_stream,
}

# workloads whose cases take a fresh persistent cache file on every pass
FRESH_CACHE = {"cache-stream"}

