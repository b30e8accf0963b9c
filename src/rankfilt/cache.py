"""In-process memoization shared by the polynomial engines.

Single-threaded: nothing guards the dict, as the program and its
benchmark harness run in one thread.  Values are immutable polynomials, so
returning shared references is fine.  The persistent JSON cache lives with
the CLI, not here.
"""

from __future__ import annotations


class Memo:
    def __init__(self):
        self._data = {}

    # the benchmark's span hook (bench/spans.py) reads memo hits through get
    def get(self, key):
        return self._data.get(key)

    def get_or_compute(self, key, compute):
        got = self._data.get(key)
        if got is not None:
            return got
        return self._data.setdefault(key, compute())

    # bench/worker.py clears the memo before each case
    def clear(self):
        self._data.clear()

    def __len__(self):
        return len(self._data)


memo = Memo()
