"""Benchmark for fockheis: warm raising sweeps, cold mod-p pipeline, cold CLI queries.

    python3 perfbench/run.py --workload raise-warm --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; the package is imported from
./src.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a traced run gives
the per-layer ones.  Results and traces also go to ./.perfbench/.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
STARTUP_REPEATS = 5


def ref_loop_ms() -> float:
    """A fixed pure-Python loop, to show how fast the host is right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return (perf_counter() - t0) * 1000


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def timed_phase(workload, seconds=None, n_rounds=None, counter=None, keep=True) -> dict:
    """Run whole rounds until the operations have taken `seconds` (or
    `n_rounds` are done).  Counting operation time, not wall time, keeps
    the sample count independent of the checks run between operations."""
    latencies, keys, errors = [], [], []
    done = 0
    busy = 0.0
    start = perf_counter()
    for rnd in workload.rounds():
        if n_rounds is not None and done >= n_rounds:
            break
        if seconds is not None and busy >= seconds:
            break
        for key, item in rnd:
            workload.before(item)
            if counter:
                counter.start()
            t0 = perf_counter()
            try:
                out = workload.op(item)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                errors.append(f"{key}: {type(exc).__name__}: {exc}")
            latencies.append(perf_counter() - t0)
            busy += latencies[-1]
            keys.append(key)
            if counter:
                counter.stop()
            if keep:
                workload.keep(key, item, out)
        done += 1
    return {"wall": perf_counter() - start, "latencies": latencies, "keys": keys, "errors": errors, "rounds": done}


def startup_ms(env) -> tuple:
    """Median wall time of a bare interpreter, and of one importing fockheis.cli."""

    def median_run(code):
        times = []
        for _ in range(STARTUP_REPEATS):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            times.append((perf_counter() - t0) * 1000)
        return statistics.median(times)

    bare = median_run("pass")
    return bare, median_run("import fockheis.cli") - bare


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fockheis", "__init__.py")):
        sys.stderr.write(f"perfbench: no package source at {SRC}/fockheis\n")
        return 2
    sys.path[:0] = [SRC, ROOT]
    import fockheis

    if os.path.dirname(os.path.abspath(fockheis.__file__)) != os.path.join(SRC, "fockheis"):
        sys.stderr.write(f"perfbench: fockheis imported from {fockheis.__file__}, not {SRC}\n")
        return 2
    from perfbench import trace, workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}\n")
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliCold:
        wl = cls(args.seed, ROOT, WORKDIR, in_process=bool(args.trace))
    else:
        wl = cls(args.seed)

    def setup_s(n: int) -> list:
        times = []
        for _ in range(n):
            t0 = perf_counter()
            wl.setup()
            times.append(perf_counter() - t0)
        return times

    # half of the set-ups run before the timed phase and half after it, so
    # that set-up time samples the host at both ends of the run
    ref = [ref_loop_ms() for _ in range(3)]
    setups = setup_s(wl.setup_repeats // 2)

    counter = tracer = None
    if args.trace:
        counter = trace.CacheCounter()
        tracer = trace.Tracer()
        tracer.install()
    try:
        # a traced run spends half its time traced and about as much again on
        # an untraced replay of the same rounds, so it lasts about --seconds
        phase = timed_phase(wl, seconds=args.seconds / 2 if args.trace else args.seconds, counter=counter)
    finally:
        if tracer:
            tracer.remove()
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN if cls is workloads.CliCold else resource.RUSAGE_SELF
    ).ru_maxrss / 1024

    metrics = {}
    if args.trace:
        entries = trace.cache_metrics(counter)
        replay = timed_phase(wl, n_rounds=phase["rounds"], keep=False)
        interp, imp = startup_ms(workloads.child_env(ROOT))
        metrics.update(tracer.metrics())
        metrics.update(entries)
        metrics["cli.import_ms"] = (imp, "ms")
        metrics["host.interp_ms"] = (interp, "ms")
        metrics["trace.overhead_s"] = (phase["wall"] - replay["wall"], "s")

    if not args.trace:
        setups += setup_s(wl.setup_repeats - len(setups))
    t_check = perf_counter()
    reasons = wl.check()
    check_s = perf_counter() - t_check
    ref += [ref_loop_ms() for _ in range(3)]

    lat = phase["latencies"]
    attempted = len(lat)
    failed = len(phase["errors"])
    if args.trace:
        metrics["host.ref_loop_ms"] = (statistics.median(ref), "ms")
    else:
        metrics["setup_s"] = (statistics.median(setups), "s")
        # per second of operation time: the benchmark's own work between
        # operations (clearing caches, checking outputs) is left out
        metrics["throughput_ops_s"] = ((attempted - failed) / sum(lat), "1/s")
        metrics["op_p50_ms"] = (statistics.median(lat) * 1000, "ms")
        metrics["op_tail_ms"] = (percentile(lat, wl.tail_percentile) * 1000, "ms")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    for line in phase["errors"][:10] + reasons[:20]:
        sys.stderr.write(f"perfbench: {line}\n")
    beyond = attempted - -(-attempted * wl.tail_percentile // 100)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": phase["rounds"], "samples": attempted,
        "tail": f"p{wl.tail_percentile}", "samples_beyond_tail": beyond,
        "setup_runs_s": [round(s, 4) for s in setups],
        "ref_loop_ms": [round(r, 2) for r in ref], "check_s": round(check_s, 3),
        "check_failures": len(reasons),
    }
    by_key: dict = {}
    for key, t in zip(phase["keys"], lat):
        by_key.setdefault(key, []).append(t)
    if len(by_key) <= 16:  # the cli round: median per query
        info["per_key_ms"] = {str(k): round(statistics.median(v) * 1000, 1) for k, v in by_key.items()}
    print("perfbench: " + json.dumps(info))
    result = {
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    stamp = f"{args.workload}-{args.seed}-trace{args.trace}"
    with open(os.path.join(WORKDIR, f"result-{stamp}.json"), "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    if tracer:
        with open(os.path.join(WORKDIR, f"trace-{stamp}.json"), "w", encoding="utf-8") as fh:
            json.dump({"info": info, "edges": tracer.edges()}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
