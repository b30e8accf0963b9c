"""Exact sparse rank computation over the rationals.

Matrices are lists of sparse integer rows (dict column -> coefficient).
Elimination is fraction free: a two-term integer cross-multiplication
followed by a content strip, with a cheap Markowitz-style pivot choice
(sparsest row, then sparsest column within it).  No floating point is
used anywhere.  The tests check every rank against dense Fraction
elimination, a separate implementation kept beside them.

The sparsest row comes from a lazy heap of ``(length, row id)`` entries:
a row whose length changes during elimination is pushed again, and a
popped entry whose row is gone or has another length is skipped.  Ties go
to the lowest row id, so the pivot sequence, and with it every
intermediate row, is that of a scan for the first sparsest active row.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


def _strip_content(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def sparse_rank(rows):
    """Rank over Q of the matrix whose rows are dicts {column: int}."""
    active = {}
    col_rows = {}
    for rid, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        active[rid] = _strip_content(dict(row))
        for c in row:
            col_rows.setdefault(c, set()).add(rid)

    heap = [(len(row), rid) for rid, row in active.items()]
    heapify(heap)
    rank = 0
    while heap:
        # pivot: sparsest row (lowest id on ties), then its column hit by
        # fewest other rows
        n, prid = heappop(heap)
        prow = active.get(prid)
        if prow is None or len(prow) != n:
            continue
        pcol = min(prow, key=lambda c: len(col_rows[c]))
        pval = prow[pcol]
        rank += 1

        del active[prid]
        for c in prow:
            col_rows[c].discard(prid)

        victims = list(col_rows.get(pcol, ()))
        for rid in victims:
            row = active[rid]
            before = len(row)
            rval = row.pop(pcol)
            col_rows[pcol].discard(rid)
            # row <- pval*row - rval*prow; the pivot column cancels exactly
            for c in row:
                row[c] *= pval
            for c, v in prow.items():
                if c == pcol:
                    continue
                nv = row.get(c, 0) - rval * v
                if nv:
                    if c not in row:
                        col_rows.setdefault(c, set()).add(rid)
                    row[c] = nv
                elif c in row:
                    del row[c]
                    col_rows[c].discard(rid)
            if row:
                _strip_content(row)
                if len(row) != before:
                    heappush(heap, (len(row), rid))
            else:
                del active[rid]
    return rank
