"""Benchmark of the rankfilt CLI: time to a checked answer, per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
its ``src`` directory.  Each run starts one fresh worker process (worker.py)
that calls ``rankfilt.cli.main(argv)`` for every case of the workload, in a
closed loop on one thread, repeating passes over the case list for ``S``
seconds.  Every answer is then checked against an independent oracle
(oracle.py).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones BENCHMARK.json
declares, measured untraced.  With ``--trace 1`` the worker also runs
traced passes and the metrics are the declared per-layer ones, with the
traced run's artifact (per-degree Koszul data, self time by layer) written
under ``.bench_out/``.  See README.md in this directory for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
import spans  # noqa: E402

IMPORTS = 9  # fresh interpreters timed for setup_s, after one warm-up
WORKER_TIMEOUT = 150


def declared_metrics():
    """(end-to-end, per-layer) metric units by name, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [{m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer")]


def fail(message):
    print("bench: %s" % message, file=sys.stderr)
    sys.exit(2)


def child_env(seed):
    """Environment of every child: the checkout's source, nothing of the user's."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("RANKFILT_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    # keep bytecode out of src/, and reuse it across runs like an installed package
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def setup_seconds(env):
    """Median time to import rankfilt.cli in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import rankfilt.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORTS + 1):
        done = subprocess.run(
            [sys.executable, "-s", "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if done.returncode:
            fail("importing rankfilt.cli failed:\n%s" % done.stderr)
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def run_worker(workload, argvs, seconds, trace, env):
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="%s-" % workload, dir=OUT))
    try:
        job = {
            "cases": [list(a) for a in argvs],
            "seconds": seconds,
            "trace": trace,
            "cache_dir": str(scratch / "cache") if workload in cases.FRESH_CACHE else None,
        }
        if job["cache_dir"]:
            os.mkdir(job["cache_dir"])
        (scratch / "job.json").write_text(json.dumps(job))
        done = subprocess.run(
            [sys.executable, "-s", str(BENCH / "worker.py"),
             str(scratch / "job.json"), str(scratch / "result.json")],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT,
        )
        if done.returncode:
            fail("the worker failed:\n%s" % done.stderr[-4000:])
        return json.loads((scratch / "result.json").read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check_outputs(workload_cases, result):
    """Errors per (pass, case) execution: exit code, oracle, hit == miss, tracing."""
    texts = result["texts"]
    passes = result["passes"]
    verdicts = {}  # (case, rc, stdout id, stderr id) -> errors

    def verdict(i, rc, out, err):
        key = (i, rc, out, err)
        if key not in verdicts:
            if rc != 0:
                verdicts[key] = ["exit code %s: %s" % (rc, texts[err].strip()[-300:])]
            else:
                try:
                    verdicts[key] = list(workload_cases[i].check(texts[out]))
                except Exception as exc:  # a malformed answer is a failed check
                    verdicts[key] = ["unreadable answer (%s: %s)" % (type(exc).__name__, exc)]
        return verdicts[key]

    reference = next(p for p in passes if not p["traced"])
    failures = []
    for number, p in enumerate(passes):
        first_answer = {}
        for i, case in enumerate(workload_cases):
            rc, out = p["rc"][i], p["out"][i]
            errors = list(verdict(i, rc, out, p["err"][i]))
            if case.key:
                if first_answer.setdefault(case.key, out) != out:
                    errors.append("a cache hit printed another answer than the miss")
            if p["traced"] and (rc, out) != (reference["rc"][i], reference["out"][i]):
                errors.append("tracing changed the exit code or stdout")
            if errors:
                failures.append((number, case.argv, errors))
    return failures


def median_wall(passes):
    """Median over passes of the time to finish all cases."""
    return statistics.median(sum(p["seconds"]) for p in passes)


def end_to_end(result, setup_s):
    untraced = [p for p in result["passes"] if not p["traced"]]
    return {
        "wall_s": median_wall(untraced),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "setup_s": setup_s,
    }


def query_latencies(passes):
    """p50 and p95 in ms over cases of each case's median latency over passes."""
    latencies = [statistics.median(ts) for ts in zip(*(p["seconds"] for p in passes))]
    return {
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_p95_ms": 1000 * statistics.quantiles(latencies, n=20, method="inclusive")[18],
    }


def per_layer(workload, seed, result, names):
    """Per-layer medians over the traced passes; writes the trace artifact."""
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    calls = {}
    for p in traced:
        for label, n in p["binding_calls"].items():
            calls[label] = calls.get(label, 0) + n
    missing = spans.uncovered(calls, workload)
    if missing:
        fail("wrapped bindings saw no call on %s: %s" % (workload, ", ".join(missing)))
    values = {
        name: statistics.median(p["metrics"].get(name, 0) for p in traced)
        for name in names
    }
    values["trace.overhead_s"] = median_wall(traced) - median_wall(untraced)
    values.update(query_latencies(untraced))
    self_by_layer = {
        layer: statistics.median(p["layer_self_s"].get(layer, 0.0) for p in traced)
        for layer in traced[0]["layer_self_s"]
    }
    artifact = {
        "workload": workload,
        "seed": seed,
        "traced_wall_s": median_wall(traced),
        "untraced_wall_s": median_wall(untraced),
        "self_s_by_layer": self_by_layer,
        "self_share_by_layer": {k: v / median_wall(traced) for k, v in self_by_layer.items()},
        "metrics": values,
        "binding_calls": calls,
        "koszul_complexes": traced[0]["complexes"],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace.json" % (workload, seed))
    path.write_text(json.dumps(artifact, indent=1, sort_keys=True) + "\n")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rankfilt" / "cli.py").is_file():
        fail("no rankfilt sources under %s" % SRC)
    end_to_end_units, per_layer_units = declared_metrics()
    sys.path.insert(0, str(SRC))  # for the oracles that need the Molien engine

    workload_cases = cases.WORKLOADS[args.workload](args.seed)
    env = child_env(args.seed)
    setup_s = None if args.trace else setup_seconds(env)
    result = run_worker(args.workload, [c.argv for c in workload_cases], args.seconds,
                        bool(args.trace), env)

    failures = check_outputs(workload_cases, result)
    for number, argv, errors in failures[:10]:
        print("FAILED pass %d: rankfilt %s: %s" % (number, " ".join(argv), "; ".join(errors)),
              file=sys.stderr)
    if args.trace:
        units = per_layer_units
        values = per_layer(args.workload, args.seed, result, units)
    else:
        units = end_to_end_units
        values = end_to_end(result, setup_s)
    doc = {
        "correct": not failures,
        "attempted": sum(len(p["rc"]) for p in result["passes"]),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
