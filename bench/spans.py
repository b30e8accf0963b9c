"""Spans and counters around the calls into each rankfilt layer.

The tracer replaces a function at the binding its callers use (a module
attribute, or a method on its class) with a wrapper that records a span:
calls, duration, and self time, which is the duration minus the time spent
in wrapped calls made inside it.  The program is single-threaded, so one
stack of open spans suffices and no span waits on another.  Bookkeeping
done by the wrappers (counting rows, sizing files) is excluded from every
span's self time.

Several modules import a function by name (``cartan`` imports
``sparse_rank`` and ``molien_poincare``, ``spectra`` imports
``enumerate_summands``, ``cli`` imports ``parse_descriptor``); wrapping
only the defining module would measure nothing, so each such name is
wrapped where it is called from, and :func:`uncovered` fails a run in which
a wrapped binding saw no call on a workload that is expected to use it.
"""

from __future__ import annotations

import importlib
import os
import weakref
from time import perf_counter

ALL = ("molien-cubes", "koszul-wreath", "koszul-reports", "cache-stream")
CUBES = ("molien-cubes", "koszul-wreath", "koszul-reports")
REPORTS = ("molien-cubes", "koszul-reports")
POINCARE = ("koszul-wreath", "koszul-reports", "cache-stream")

# (module, attribute or Class.method, span name, workloads expected to call it)
BINDINGS = [
    ("rankfilt.cli", "main", "cli.main", ALL),
    ("rankfilt.cli", "ResultCache.__init__", "cli.ResultCache.load", POINCARE),
    ("rankfilt.cli", "ResultCache.get", "cli.ResultCache.get", POINCARE),
    ("rankfilt.cli", "ResultCache.save", "cli.ResultCache.save", POINCARE),
    ("rankfilt.cli", "parse_descriptor", "orbitspace.parse_descriptor", POINCARE),
    ("rankfilt.orbitspace", "OrbitDescriptor.canonicalize",
     "orbitspace.OrbitDescriptor.canonicalize", ALL),
    ("rankfilt.cartan", "molien_poincare", "orbitspace.molien_poincare",
     ("molien-cubes", "koszul-wreath", "cache-stream")),
    ("rankfilt.cache", "Memo.get_or_compute", "cache.Memo", ALL),
    ("rankfilt.cartan", "poincare", "cartan.poincare", ALL),
    ("rankfilt.cartan", "cartan_cohomology", "cartan.cartan_cohomology", POINCARE),
    ("rankfilt.cartan", "KoszulComplex.__init__", "cartan.KoszulComplex.init", POINCARE),
    ("rankfilt.cartan", "KoszulComplex.basis", "cartan.KoszulComplex.basis", POINCARE),
    ("rankfilt.cartan", "KoszulComplex.differential_rank",
     "cartan.KoszulComplex.differential_rank", POINCARE),
    ("rankfilt.cartan", "KoszulComplex.cohomology_dims",
     "cartan.KoszulComplex.cohomology_dims", POINCARE),
    ("rankfilt.cartan", "sparse_rank", "linalg.sparse_rank", POINCARE),
    ("rankfilt.decomp", "cube_report", "decomp.cube_report", CUBES),
    ("rankfilt.decomp", "enumerate_chain_types", "decomp.enumerate_chain_types", CUBES),
    ("rankfilt.decomp", "stabilizer", "decomp.stabilizer", CUBES),
    ("rankfilt.decomp", "connectivity", "decomp.connectivity", REPORTS),
    ("rankfilt.spectra", "small_range_report", "spectra.small_range_report", REPORTS),
    ("rankfilt.spectra", "vanishing_check", "spectra.vanishing_check", REPORTS),
    ("rankfilt.spectra", "pi0_check", "spectra.pi0_check", REPORTS),
    ("rankfilt.spectra", "enumerate_summands", "combinat.enumerate_summands", REPORTS),
    ("rankfilt.combinat", "enumerate_summands", "combinat.enumerate_summands",
     ("molien-cubes",)),
]

# wrapped calls that are counted but not timed as spans, so their time stays
# with the caller: two small lookups, and cohomology_dims, which is wrapped
# only to size the full basis once the invariant one is built
COUNTED = {
    "cli.ResultCache.get",
    "cache.Memo",
    "cartan.KoszulComplex.cohomology_dims",
}


class _Frame:
    __slots__ = ("name", "args", "child")

    def __init__(self, name, args):
        self.name = name
        self.args = args
        self.child = 0.0


class Tracer:
    """Collects spans, counters and per-complex records for one pass."""

    def __init__(self):
        self.stack = []
        self.suspended = False
        self._installed = []
        self._records = weakref.WeakKeyDictionary()
        self.reset()

    def reset(self):
        self.spans = {}  # name -> [calls, self_s]
        self.counts = {}
        self.binding_calls = {}
        self.complexes = []

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    # -- installing wrappers ------------------------------------------------

    def install(self):
        for module_name, path, name, _ in BINDINGS:
            owner = importlib.import_module(module_name)
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            label = "%s.%s" % (module_name, path)
            hooks = _HOOKS.get(name, (None, None))
            wrapper = self._wrapper(original, label, name, name not in COUNTED, *hooks)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _wrapper(self, original, label, name, span, before, after):
        tracer = self
        stack = self.stack

        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return original(*args, **kwargs)
            t0 = perf_counter()
            tracer.binding_calls[label] = tracer.binding_calls.get(label, 0) + 1
            token = before(args) if before is not None else None
            frame = None
            if span:
                frame = _Frame(name, args)
                stack.append(frame)
            failed = True
            t1 = perf_counter()
            try:
                result = original(*args, **kwargs)
                failed = False
            finally:
                t2 = perf_counter()
                rec = tracer.spans.setdefault(name, [0, 0.0])
                rec[0] += 1
                if frame is not None:
                    stack.pop()
                    rec[1] += t2 - t1 - frame.child
                if after is not None and not failed:
                    tracer.suspended = True
                    try:
                        after(tracer, token, result, args, kwargs)
                    finally:
                        tracer.suspended = False
                if stack:
                    # the caller's self time excludes this wrapper's bookkeeping
                    # and, for a span, the whole call
                    t3 = perf_counter()
                    stack[-1].child += t3 - t0 if span else (t1 - t0) + (t3 - t2)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the pass, named as in BENCHMARK.json."""
        out = {}
        for name, (calls, self_s) in self.spans.items():
            out[name + ".calls"] = calls
            if name not in COUNTED:
                out[name + ".self_s"] = self_s
        out.update(self.counts)

        def count(name):
            return self.counts.get(name, 0)

        out["linalg.sparse_rank.pivot_ratio"] = _ratio(
            count("linalg.sparse_rank.rank"), count("linalg.sparse_rank.rows"))
        out["cartan.orbit_rep_yield"] = _ratio(
            count("cartan.invariant_basis"), count("cartan.full_basis"))
        for cache in ("cache.Memo", "cli.ResultCache"):
            hits = count(cache + ".hits")
            out[cache + ".hit_ratio"] = _ratio(hits, hits + count(cache + ".misses"))
        out["cli.ResultCache.load_s"] = out.get("cli.ResultCache.load.self_s", 0.0)
        out["cli.ResultCache.save_s"] = out.get("cli.ResultCache.save.self_s", 0.0)
        return out

    def self_time_by_layer(self):
        """Self time summed by the layer prefix of each span name."""
        out = {}
        for name, (_, self_s) in self.spans.items():
            if name not in COUNTED:
                layer = name.split(".")[0]
                out[layer] = out.get(layer, 0.0) + self_s
        return out


def uncovered(binding_calls, workload):
    """Bindings expected to be called on ``workload`` that recorded no call."""
    missing = []
    for module_name, path, _, workloads in BINDINGS:
        label = "%s.%s" % (module_name, path)
        if workload in workloads and not binding_calls.get(label):
            missing.append(label)
    return missing


def _ratio(num, den):
    """num / den, or 0 when nothing was attempted (the base is reported too)."""
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# counters recorded at the span boundaries


def _enclosing(tracer, name):
    return tracer.stack[-1] if tracer.stack and tracer.stack[-1].name == name else None


def _rank_before(args):
    rows = args[0]
    return len(rows), sum(len(r) for r in rows)


def _rank_after(tracer, token, rank, args, kwargs):
    rows, nnz = token
    tracer.add("linalg.sparse_rank.rows", rows)
    tracer.add("linalg.sparse_rank.nnz", nnz)
    tracer.add("linalg.sparse_rank.rank", rank)
    frame = _enclosing(tracer, "cartan.KoszulComplex.differential_rank")
    record = tracer._records.get(frame.args[0]) if frame else None
    if record is not None:
        record["degrees"][frame.args[1]] = {"rows": rows, "nnz": nnz, "rank": rank}
        tracer.add("cartan.cartan_cohomology.degrees", 1)


def _complex_after(tracer, token, result, args, kwargs):
    kc = args[0]
    group_order = len(getattr(kc, "group", ()))
    record = {"descriptor": str(args[1]), "group_order": group_order, "basis": {}, "degrees": {}}
    tracer._records[kc] = record
    tracer.complexes.append(record)
    tracer.add("cartan.group_order", group_order)


def _invariants(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("invariants", True)


def _basis_after(tracer, token, basis, args, kwargs):
    record = tracer._records.get(args[0])
    if record is not None and _invariants(args, kwargs) and args[1] not in record["basis"]:
        record["basis"][args[1]] = len(basis)
        tracer.add("cartan.KoszulComplex.basis.size", len(basis))


def _cohomology_after(tracer, token, result, args, kwargs):
    kc, cutoff = args[0], args[1]
    record = tracer._records.get(kc)
    if record is None or not _invariants(args, kwargs):
        return
    record["cutoff"] = cutoff
    record["invariant_dims"] = kc.dims(cutoff, invariants=True)
    record["full_dims"] = kc.dims(cutoff, invariants=False)
    tracer.add("cartan.invariant_basis", sum(record["invariant_dims"]))
    tracer.add("cartan.full_basis", sum(record["full_dims"]))


def _chains_after(tracer, token, chains, args, kwargs):
    tracer.add("decomp.enumerate_chain_types.chains", len(chains))


def _summands_after(tracer, token, summands, args, kwargs):
    tracer.add("combinat.enumerate_summands.tuples", len(summands))
    if _enclosing(tracer, "spectra.vanishing_check"):
        tracer.add("spectra.vanishing_check.summands_built", len(summands))


def _memo_after(tracer, hit, value, args, kwargs):
    tracer.add("cache.Memo.hits" if hit else "cache.Memo.misses", 1)


def _cache_get_after(tracer, token, value, args, kwargs):
    tracer.add("cli.ResultCache.misses" if value is None else "cli.ResultCache.hits", 1)


def _cache_save_before(args):
    cache = args[0]
    return cache.path if cache.path and cache.dirty else None


def _cache_save_after(tracer, path, result, args, kwargs):
    if path and os.path.exists(path):
        tracer.add("cli.ResultCache.bytes_written", os.path.getsize(path))


_HOOKS = {
    "linalg.sparse_rank": (_rank_before, _rank_after),
    "cartan.KoszulComplex.init": (None, _complex_after),
    "cartan.KoszulComplex.basis": (None, _basis_after),
    "cartan.KoszulComplex.cohomology_dims": (None, _cohomology_after),
    "decomp.enumerate_chain_types": (None, _chains_after),
    "combinat.enumerate_summands": (None, _summands_after),
    # a hit is a key the memo already holds when get_or_compute is called
    "cache.Memo": (lambda args: args[0].get(args[1]) is not None, _memo_after),
    "cli.ResultCache.get": (None, _cache_get_after),
    "cli.ResultCache.save": (_cache_save_before, _cache_save_after),
}
