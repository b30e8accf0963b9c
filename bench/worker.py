"""Run one workload's cases in this process and write the raw results as JSON.

Started by run.py in a fresh interpreter, so that the peak RSS it reports
belongs to this workload alone.  Each case calls ``rankfilt.cli.main(argv)``
with stdout and stderr captured, after clearing the process-wide memo;
before and after each pass the worker checks that no rankfilt module holds
a Memo other than that one, so the clear empties every memo the engines use;
the garbage of the previous pass is collected before each pass.
Passes over the case list repeat until the time budget is spent.  With
tracing, the first half of the budget runs untraced and the second half
runs with the wrappers of spans.py installed.

    python3 bench/worker.py JOB.json RESULT.json
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

from spans import Tracer


def check_memo_bindings(memo):
    """Fail unless every Memo bound in a loaded rankfilt module is ``memo``.

    Clearing ``memo`` empties the engines' cache only while they look it up
    through this one object; a module that rebinds ``memo`` or keeps a Memo
    of its own would carry answers from one case into the next.
    """
    from rankfilt.cache import Memo

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "rankfilt" or module is None:
            continue
        for attr, value in vars(module).items():
            if isinstance(value, Memo) and value is not memo:
                raise RuntimeError("%s.%s is a Memo that is not cleared between cases"
                                   % (name, attr))


def run_case(cli, memo, argv):
    memo.clear()
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            rc = None
            traceback.print_exc()
    elapsed = perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), elapsed


def main(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    from rankfilt import cartan, cli
    from rankfilt.cache import memo

    if cartan.memo is not memo:
        raise RuntimeError("rankfilt.cartan does not use the process-wide memo")

    texts = {}  # distinct captured output -> index

    def text_id(text):
        return texts.setdefault(text, len(texts))

    def run_pass(number, tracer):
        extra = []
        if job["cache_dir"]:
            path = os.path.join(job["cache_dir"], "pass-%d.json" % number)
            if os.path.exists(path):
                raise RuntimeError("cache file %s is not fresh" % path)
            extra = ["--cache", path]
        record = {"traced": tracer is not None, "rc": [], "out": [], "err": [], "seconds": []}
        gc.collect()
        check_memo_bindings(memo)
        for argv in job["cases"]:
            rc, out, err, elapsed = run_case(cli, memo, argv + extra)
            record["rc"].append(rc)
            record["out"].append(text_id(out))
            record["err"].append(text_id(err))
            record["seconds"].append(elapsed)
        check_memo_bindings(memo)  # modules the pass imported late
        if tracer is not None:
            record["metrics"] = tracer.metrics()
            record["layer_self_s"] = tracer.self_time_by_layer()
            record["binding_calls"] = dict(tracer.binding_calls)
            record["complexes"] = tracer.complexes
            tracer.reset()
        return record

    passes = []
    start = perf_counter()
    budget = job["seconds"] / 2 if job["trace"] else job["seconds"]
    while not passes or perf_counter() - start < budget:
        passes.append(run_pass(len(passes), None))
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            while not passes[-1]["traced"] or perf_counter() - start < job["seconds"]:
                passes.append(run_pass(len(passes), tracer))
        finally:
            tracer.uninstall()
    result = {
        "passes": passes,
        "texts": list(texts),  # in index order
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
