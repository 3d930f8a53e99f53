"""nilspec benchmark: end-to-end timings per workload, per-layer metrics from
a separate traced pass, and a check of every output.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (each a closed loop with one caller, one pass at a time):

  filiform       full tables of m0(9) and m0(10): a few large eliminations
                 (Lambda^5 of m0(10) is 252 wide); representation and
                 elimination cost, and memory growth.
  random_batch   ``nilspec compute --batch FILE --format json`` over a file
                 generated from --seed: random nilpotent algebras of dimension
                 7-8, relabelled twins whose tables must match, and three
                 lines that must be rejected; parsing, validation, the batch
                 thread pool, JSON rendering and mid-sized eliminations.
  catalog_check  ``nilspec catalog --check`` plus ``nilspec check S
                 --direct-sum 1 --page 0 --page limit`` for every catalog
                 entry of dimension <= 5: hundreds of tiny matrices, so
                 per-call and per-algebra overhead dominate.

BENCHMARK.json gates filiform and catalog_check only.  random_batch runs two
GIL-bound worker threads; on a 2-core machine the interquartile range of its
per-run wall_s over ten seeds was 0.16-0.22 of the median, against 0.06-0.16
for the other two workloads, too close to the largest allowed bound (0.25).

Every pass runs in a fresh interpreter (``worker.py``), so it starts with
empty caches and its peak RSS is its own.  Passes repeat until --seconds have
passed; a run reports medians.  With --trace 0 it reports

  setup_s      median time to import nilspec.cli and load the catalog, each
               in a fresh interpreter
  wall_s       median wall time of one pass, package already imported
  peak_rss_mb  median peak resident memory of a pass's process

and with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py``, trace.overhead_ratio (traced over
untraced wall time) and, for people, the self time of each layer.  The last
stdout line is the JSON result; lines before it give the same figures for
people, with the failed ratio (failed / attempted operations) and the run
context.  Spans and per-pass figures go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import batchgen  # noqa: E402  (bench/ is on sys.path as the script's directory)

WORKLOADS = ("filiform", "random_batch", "catalog_check")
FILIFORM_DIMS = [9, 10]
DEFAULT_SEED = 0
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter against the checkout's src/."""
    env = {k: v for k, v in os.environ.items() if k not in ("NILSPEC_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker {args[:2]} timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
    return {"error": f"worker {args[:2]} exited {proc.returncode}: {tail[0]}"}


def measure_setup(deadline: float) -> list[float]:
    """Import-and-load times of fresh interpreters; the first only warms the
    bytecode cache and is dropped."""
    samples = []
    for n in range(SETUP_SAMPLES + 1):
        res = _worker(["setup"], deadline)
        if "error" in res:
            raise BenchError(res["error"])
        if not Path(res["module"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported nilspec from {res['module']}, not from {SRC}")
        if n:
            samples.append(res["setup_s"])
    return samples


def write_inputs(workload: str, seed: int) -> tuple[Path, int]:
    """The pass input file for the worker, and the operations in one pass."""
    WORK.mkdir(exist_ok=True)
    inputs: dict = {"seed": seed}
    if workload == "filiform":
        inputs["dims"] = FILIFORM_DIMS
        ops = len(FILIFORM_DIMS)
    elif workload == "random_batch":
        lines, records = batchgen.make_batch(seed)
        text = batchgen.batch_text(lines)
        batch = WORK / f"batch-seed{seed}.txt"
        batch.write_text(text, encoding="utf-8")
        inputs.update(path=str(batch), lines=lines, records=records, sha256=batchgen.digest(text))
        ops = len(lines)
    else:
        with open(HERE / "reference" / "catalog_check.json", encoding="utf-8") as fh:
            ref = json.load(fh)
        ops = len(ref["entries"]) + len(ref["direct_sum"])
    path = WORK / f"inputs-{workload}-seed{seed}.json"
    path.write_text(json.dumps(inputs), encoding="utf-8")
    return path, ops


def context(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    files = sorted((SRC / "nilspec").glob("*.py"))
    lines = {f.name: f.read_bytes().count(b"\n") for f in files}
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "src_lines": {"total": sum(lines.values()), **lines}}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    inputs, ops = write_inputs(workload, seed)
    setup = measure_setup(deadline)
    spans_path = WORK / f"spans-{workload}-seed{seed}.json"
    passes: list[dict] = []
    loop_start = time.monotonic()
    while not passes or time.monotonic() - loop_start < seconds:
        for traced in ((False, True) if trace else (False,)):
            args = ["pass", workload, str(inputs), "1" if traced else "0"]
            res = _worker(args + ([str(spans_path)] if traced else []), deadline)
            res["traced"] = traced
            if "error" in res or res["attempted"] is None:
                res.update(attempted=ops, failures=[res.get("error", "verification failed")] * ops)
            passes.append(res)
        if any("error" in p for p in passes) or time.monotonic() > deadline - 30:
            break
    return summarise(workload, seed, seconds, trace, setup, passes)


def summarise(workload: str, seed: int, seconds: int, trace: bool,
              setup: list[float], passes: list[dict]) -> dict:
    timed = [p for p in passes if not p["traced"] and "error" not in p]
    traced = [p for p in passes if p["traced"] and "error" not in p]
    failures = [f for p in passes for f in p["failures"]]
    if not timed or (trace and not traced):
        raise BenchError(failures[0] if failures else "no pass completed")
    for p in timed[1:] + traced:  # every pass, traced or not, must produce the same outputs
        if p["digest"] != timed[0]["digest"]:
            failures += ["outputs differ from the first pass"] * p["attempted"]
    attempted = sum(p["attempted"] for p in passes)
    failed = min(len(failures), attempted)
    end_to_end = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(p["wall_s"] for p in timed),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed)}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    spec = _spec()
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = {name: _median_or_none([p["layers"].get(name) for p in traced]) for name in units}
        layers["trace.untraced_wall_s"] = end_to_end["wall_s"]
        layers["trace.overhead_ratio"] = layers["trace.wall_s"] / end_to_end["wall_s"]
        result["metrics"] = {name: {"value": layers[name], "unit": unit}
                             for name, unit in units.items()}
        self_s = {name: statistics.median(p["self_s"].get(name, 0.0) for p in traced)
                  for name in sorted({n for p in traced for n in p["self_s"]})}
    else:
        result["metrics"] = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                             for m in spec["end_to_end"]}
        self_s = None
    return {"result": result, "end_to_end": end_to_end, "self_s": self_s, "failures": failures,
            "context": context(workload, seed, seconds, trace),
            "passes": [{k: p.get(k) for k in ("traced", "wall_s", "peak_rss_mb", "attempted")}
                       for p in passes],
            "setup_samples": setup}


def _median_or_none(values: list) -> float | None:
    """Median over passes; None when a pass could not measure the metric."""
    return None if not values or None in values else statistics.median(values)


def _print_report(report: dict) -> None:
    ctx, res = report["context"], report["result"]
    print("context: " + json.dumps(ctx))
    ratio = res["failed"] / res["attempted"]
    head = f"{ctx['workload']} seed {ctx['seed']}"
    e2e = report["end_to_end"]
    print(f"{head}: setup_s {e2e['setup_s']:.4f} s, wall_s {e2e['wall_s']:.4f} s, "
          f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB, failed_ratio {ratio:.4f} "
          f"({res['failed']}/{res['attempted']}), {len(report['passes'])} passes")
    if ctx["trace"]:
        for name, metric in res["metrics"].items():
            value = metric["value"]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {name:34s} {shown:>12s} {metric['unit']}")
        print("  self time per layer (span less its child spans):")
        for name, seconds in report["self_s"].items():
            print(f"    {name:32s} {seconds:12.6g} s")
    for failure in report["failures"][:20]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all",
                        help="one workload, or all of them untraced and traced (default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nilspec" / "__init__.py").is_file():
        print(f"error: no nilspec package under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    reports = []
    try:
        for workload, trace in runs:
            report = measure(workload, args.seed, seconds, trace)
            name = f"result-{workload}-seed{args.seed}-trace{int(trace)}.json"
            (WORK / name).write_text(json.dumps(report, indent=1), encoding="utf-8")
            _print_report(report)
            reports.append(report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        final = reports[0]["result"]
    else:
        final = {"correct": all(r["result"]["correct"] for r in reports),
                 "attempted": sum(r["result"]["attempted"] for r in reports),
                 "failed": sum(r["result"]["failed"] for r in reports),
                 "metrics": {f"{r['context']['workload']}.{name}": metric
                             for r in reports for name, metric in r["result"]["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
