"""Exact sparse rank computation over the rationals.

Matrices are lists of sparse integer rows (dict column -> coefficient).
Elimination is fraction free: a two-term integer cross-multiplication
followed by a content strip.  No floating point is used anywhere.  The
tests check every rank against dense Fraction elimination, a separate
implementation kept beside them.

Rows are reduced one at a time, in the order given, against a table of
pivots keyed by their leading (least) column; a row that does not reduce
to zero becomes the pivot of its new leading column, and the rank is the
number of pivots.  There is no pivot choice and no schedule; the caller
orders the rows.

Compared with a sparsest-row-first (Markowitz) order, in CPU time on a
shared 2-vCPU machine with Python 3.11: no matrix of the benchmark
workloads has more than 43 rows, and those take about half the time; the
1 457-row witness matrices of ``poincare 'U(12)/(1)x...x(1)'
--engine cartan`` (12 leaves) 0.023 s against 0.026 s, and the 4 030-row
ones of 16 leaves 0.12 s against 0.10-0.11 s.
"""

from __future__ import annotations

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
    """Rank over Q of the matrix whose rows are dicts {column: int}.

    The rows passed in are not changed."""
    pivots = {}
    for row in rows:
        row = _strip_content({c: v for c, v in row.items() if v})
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            # row <- pv*row - rv*prow, with pv and rv over their gcd; the
            # leading column cancels exactly
            pv, rv = prow[lead], row[lead]
            g = gcd(pv, rv)
            pv, rv = pv // g, rv // g
            if pv != 1:
                for c in row:
                    row[c] *= pv
            for c, v in prow.items():
                nv = row.get(c, 0) - rv * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
            _strip_content(row)
    return len(pivots)
