"""lcone benchmark: one seeded workload, timed, checked and reported.

    python3 perfbench/run.py --workload classify-d3 --seed 1 --seconds 12 --trace 0

Workloads: classify-d3, wallcross-d4, dvcell-d4-skewed (see README.md).
With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
runs the same laps once untraced and once with every public lcone function
wrapped, and reports the per-layer metrics. The names and units of both
sets are those of BENCHMARK.json. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the full result
with its provenance goes to .perfbench/results/, the spans of a traced run
to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
SETUPS = 3           # set-ups per run; setup_s is their median
REF_INTERVAL = 0.05  # seconds between speed samples during a timed call


def parse_args(argv):
    p = argparse.ArgumentParser(description="lcone benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s)")
    return p.parse_args(argv)


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def reference_seconds() -> float:
    """Time of the reference loop, 199 pure-Python `Fraction` additions."""
    t0 = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 200):
        x += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


class Runner:
    """Times calls with cold library caches and counts checks.

    On a shared virtual machine the speed of this code can change by up to
    2x, from one call to the next or for minutes. So each call also times the reference loop
    before it, after it, and every REF_INTERVAL seconds during it (from a
    SIGALRM handler, on the same CPU); `ref` holds the mean for the last
    call, and timings are reported in multiples of it. With a tracer, each
    call runs as one traced item and the caches' hit counts are summed
    before the next call clears them.
    """

    def __init__(self, caches: dict, tracer=None):
        self.caches = caches
        self.tracer = tracer
        self.item_times: list = []
        self.item_refs: list = []
        self.ref = None
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.hits = {name: [0, 0] for name in caches}

    def call(self, fn, *args, **kwargs):
        samples = [reference_seconds()]
        handler = signal.signal(signal.SIGALRM, lambda *_: samples.append(reference_seconds()))
        for cache in self.caches.values():
            cache.cache_clear()
        self.calls += 1
        if self.tracer is not None:
            self.tracer.item = self.calls
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
            if self.tracer is not None:
                self.tracer.item = None
                for name, cache in self.caches.items():
                    info = cache.cache_info()
                    self.hits[name][0] += info.hits
                    self.hits[name][1] += info.misses
            samples.append(reference_seconds())
            self.ref = statistics.fmean(samples)
        return result, seconds

    def item(self, fn, *args, **kwargs):
        result, seconds = self.call(fn, *args, **kwargs)
        self.item_times.append(seconds)
        self.item_refs.append(self.ref)
        return result

    def check(self, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check {self.attempted} failed", file=sys.stderr)


def run_laps(workload, runner: Runner, seconds: float, laps: int = 0) -> int:
    """Whole laps until `seconds` have passed (at least one), or exactly
    `laps` laps when given. Returns the number of laps run."""
    t0 = time.perf_counter()
    done = 0
    while True:
        workload.lap(runner)
        done += 1
        if (laps and done >= laps) or (not laps and time.perf_counter() - t0 >= seconds):
            return done


def setup_times(args, first: float) -> list:
    """This process's set-up time and SETUPS - 1 more from fresh processes,
    which run side by side."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
             for _ in range(SETUPS - 1)]
    times = [first]
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up process exited with {proc.returncode}")
            times.append(json.loads(out.splitlines()[-1])["setup_s"])
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "lcone")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(args, rat) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": 1,
        "probe_workers": 2,
        "rat": f"{rat.__module__}.{rat.__qualname__}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def declared(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def item_costs(runner: Runner) -> list:
    """Item times in refs."""
    return [t / r for t, r in zip(runner.item_times, runner.item_refs)]


def measure(args, workload, runner: Runner, work: str, refs: dict) -> dict:
    from workloads import checkpoint_probe

    run_laps(workload, runner, args.seconds)
    costs = item_costs(runner)
    metrics = {
        "items_per_mref": 1e6 * len(costs) / sum(costs),
        "item_p50_ref": statistics.median(costs),
    }
    metrics.update(checkpoint_probe(runner, args.seed, refs, work))
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def measure_traced(args, workload, runner: Runner, traced: Runner, tracer) -> dict:
    from tracer import layer_metrics

    laps = run_laps(workload, runner, args.seconds)
    tracer.install(callers=[sys.modules[type(workload).__module__]])
    try:
        run_laps(workload, traced, args.seconds, laps=laps)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.tsv"))
    metrics = layer_metrics(tracer, traced.hits)
    metrics["trace.wall_s"] = sum(traced.item_times)
    metrics["trace.overhead_ratio"] = sum(item_costs(traced)) / sum(item_costs(runner))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import lcone
        import workloads
        from lcone.exact import Rat
    except ImportError as exc:
        print(f"error: cannot import the lcone sources under {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(lcone.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"error: lcone was imported from {lcone.__file__}, not from {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    refs = load_json(os.path.join(HERE, "references.json"))
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, refs, work)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        kind = "per_layer" if args.trace else "end_to_end"
        units = declared(kind)
        info = provenance(args, Rat)
        info["load1_before"] = os.getloadavg()[0]
        runner = Runner(workloads.CACHES)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            traced = Runner(workloads.CACHES, tracer)
            metrics = measure_traced(args, workload, runner, traced, tracer)
            attempted = runner.attempted + traced.attempted
            failed = runner.failed + traced.failed
        else:
            metrics = measure(args, workload, runner, work, refs)
            metrics["setup_s"] = statistics.median(setup_times(args, setup_s))
            attempted, failed = runner.attempted, runner.failed
        info["load1_after"] = os.getloadavg()[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        print(f"error: metrics do not match BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": info, "fail_ratio": failed / attempted,
                   "item_times_s": runner.item_times, "item_refs_s": runner.item_refs,
                   **result}, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {len(runner.item_times)} items, "
          f"fail_ratio {failed / attempted:g}, provenance {json.dumps(info, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
