"""The relred benchmark: four CLI workloads, end to end and per layer.

One run of one workload, in this process::

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

generates the workload's inputs from the seed (``gen.py``, in a child
process), times relred's set-up in fresh interpreters (``probe.py``), then
runs passes over the item list for about ``--seconds`` seconds and checks
every output against its reference.  Its last stdout line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``:
with ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones, from passes traced by ``spans.Tracer``
alternating with untraced passes.  It exits 1 when an output is wrong and
2 when there is no relred source to run.

Every workload of ``BENCHMARK.json``, each run in its own fresh process,
with a table::

    python3 bench/run.py [--runs 10] [--workloads certify,bonds] [--out runs.jsonl]

``compare.py`` reads two such ``--out`` files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

import harness
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(HERE, "spec.json")
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 900


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def setup_seconds(work: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), ROOT, work],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def passes_for(seconds: float, pass_fn) -> int:
    """Call ``pass_fn`` until another pass would end after ``seconds``;
    return how many passes ran."""
    start, n = harness.clock(), 0
    while True:
        t0 = harness.clock()
        pass_fn()
        n += 1
        if harness.clock() - start + harness.clock() - t0 > seconds:
            return n


def per_item_ms(latencies: list[list[float]]) -> list[float]:
    """Each item's best latency over the passes, in ms.

    On a shared 2-vCPU Xeon VM each CPU switches between a fast state and
    one about 1.4 times slower, for seconds at a time, as neighbours come
    and go, and the share of slow time drifts over minutes.  Over ten 24 s
    windows of the decide workload the sum of per-item medians ranged
    0.375-0.531 s and the sum of per-item minima 0.297-0.329 s: an item's
    best time tracks the program's cost, its median the neighbours' load."""
    return [min(x) * 1e3 for x in zip(*latencies)]


class Passes:
    """Passes over the item list, checked as they finish."""

    def __init__(self, call, items):
        self.call, self.items = call, items
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first_stdout = None

    def run(self, call=None) -> list[float]:
        """One pass: per-item s."""
        latencies, results = harness.run_pass(call or self.call, self.items)
        stdout = [[out for _, out, _ in r] for r in results]
        if self.first_stdout is None:
            self.first_stdout = stdout
        for item, res, out, ref in zip(self.items, results, stdout, self.first_stdout):
            problem = harness.check_item(item, res)
            if problem is None and out != ref:
                problem = "stdout differs from the first pass"
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{item['name']}: {problem}")
        return latencies


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "relred", "cli.py")):
        print(f"no relred source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if workload not in load_json(SPEC_PATH)["workloads"]:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", work],
            timeout=120, check=True,
        )
        items = load_json(os.path.join(work, "items.json"))["items"]
        setups = [setup_seconds(work) for _ in range(SETUP_PROBES)]
        os.chdir(work)
        call = functools.partial(harness.invoke, harness.load_cli(ROOT))
        harness.warm_up(call, items)
        p = Passes(call, items)
        metrics, passes = (run_traced if trace else run_plain)(p, seconds)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # when no other run is using it
    if not trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    for problem in p.problems[:20]:
        print("problem:", problem, file=sys.stderr)
    detail = {
        "workload": workload, "seed": seed, "passes": passes,
        "items_per_pass": len(items), "setup_probes": len(setups),
        "error_rate": p.failed / p.attempted,
    }
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": p.failed == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if p.failed == 0 else 1


def run_plain(p: Passes, seconds: float) -> tuple[dict, int]:
    """``wall_s`` is the time of one pass at each item's best latency; the
    percentiles are over the items of one pass."""
    latencies: list[list[float]] = []
    passes = passes_for(seconds, lambda: latencies.append(p.run()))
    items = per_item_ms(latencies)
    return {
        "wall_s": (sum(items) / 1e3, "s"),
        "item_p50_ms": (statistics.median(items), "ms"),
        "item_p90_ms": (statistics.quantiles(items, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, passes


def run_traced(p: Passes, seconds: float) -> tuple[dict, int]:
    """Alternate untraced and traced passes.  Counts come from the first
    traced pass and must repeat in every other; times are the best over
    traced passes; the overhead is the traced minus the untraced pass time,
    both at each item's best latency."""
    plain, traced, tracers = [], [], []

    def pair():
        plain.append(p.run())
        with spans.Tracer() as tracer:
            traced.append(p.run(tracer.wrap("cli.main", p.call)))
        tracers.append(tracer)

    passes = passes_for(seconds, pair)
    per_pass = [t.layer_metrics() for t in tracers]
    metrics = {}
    for name, value in per_pass[0].items():
        values = [m[name] for m in per_pass]
        if name.endswith("_ms"):
            metrics[name] = (min(values), "ms")
        else:
            if any(v != value for v in values):
                p.problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = (value, "count")
    overhead = (sum(per_item_ms(traced)) - sum(per_item_ms(plain))) / 1e3
    metrics["trace.overhead_s"] = (overhead, "s")
    print("top self time, last traced pass:", file=sys.stderr)
    for name, calls, ms in tracers[-1].top():
        print(f"  {name:48s} {calls:9d} calls {ms:10.1f} ms", file=sys.stderr)
    return metrics, 2 * passes


# ---------------------------------------------------------------------------
# Every workload, in child processes
# ---------------------------------------------------------------------------


def samples_of(metric: str, detail: dict) -> str:
    per_item = f"best of {detail['passes']} passes"
    if metric == "wall_s":
        return f"sum over {detail['items_per_pass']} items, each the {per_item}"
    if metric.startswith("item_"):
        return f"{detail['items_per_pass']} items, each the {per_item}"
    if metric == "setup_s":
        return f"median of {detail['setup_probes']} set-ups"
    if metric == "peak_rss_mb":
        return "1 process"
    return per_item


def run_all(args) -> int:
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seed0 = load_json(SPEC_PATH)["default_seed"] if args.seed is None else args.seed
    status = 0
    with open(args.out, "a") if args.out else contextlib.nullcontext() as out:
        print(f"{'workload':9s} {'seed':>5s}  {'metric':34s} {'value':>14s} {'unit':6s} samples")
        for r in range(args.runs):
            for w in workloads:
                seed = seed0 + r
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload", w,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                )
                lines = proc.stdout.splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    status = 1
                    sys.stderr.write(proc.stderr)
                    print(f"{w:9s} {seed:5d}  run failed with exit {proc.returncode}")
                    if len(lines) < 2:
                        continue
                result = json.loads(lines[-1])
                detail = json.loads(lines[-2].removeprefix("detail: "))
                for name, m in result["metrics"].items():
                    print(f"{w:9s} {seed:5d}  {name:34s} {m['value']:14.6g} "
                          f"{m['unit']:6s} {samples_of(name, detail)}")
                print(f"{w:9s} {seed:5d}  {'error_rate':34s} {detail['error_rate']:14.6g} "
                      f"{'share':6s} {result['failed']} of {result['attempted']} items")
                if out:
                    out.write(json.dumps(dict(result, workload=w, seed=seed,
                                              trace=args.trace, detail=detail)) + "\n")
                    out.flush()
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description="relred benchmark")
    ap.add_argument("--workload", help="run this one workload in this process")
    ap.add_argument("--workloads", help="comma-separated workloads for the table mode")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1, help="seeds per workload (table mode)")
    ap.add_argument("--out", help="append each run's result to this JSON-lines file")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = load_json(os.path.join(ROOT, "BENCHMARK.json"))["run_seconds"]
    if args.workload:
        seed = load_json(SPEC_PATH)["default_seed"] if args.seed is None else args.seed
        return measure(args.workload, seed, args.seconds, bool(args.trace))
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
