"""vincstat benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload clt-window --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (the script finds src/ next to its own
directory).  A run repeats passes of the workload's op list until
--seconds is spent.  Each pass is a fresh single-threaded interpreter
(perfbench/worker.py) with a new temporary cwd, HOME and XDG_CACHE_HOME
under perfbench/.runs/, every VINCSTAT_* variable unset and the BLAS and
OpenMP pools pinned to one thread.  Every op's output is checked.

With --trace 0 the last stdout line reports the end-to-end metrics of the
untraced passes; wall_s sums each op's median time over the passes.  With
--trace 1 untraced and traced passes alternate and the line reports the
per-layer metrics as means per traced pass, plus the tracing overhead.
A full record (provenance, every op time and check, the spans) is
written to perfbench/results/.

Workloads:
  clt-window    clt --pattern 2,1 --format csv at n = 25, 100, 400, 1600 with
                m = 12000, then rate on the CSV; sampler and bootstrap bound.
  clt-vincular  clt --pattern 3|1,2 at (n, m) = (100, 10000), (200, 5000),
                (400, 1000); occurrence counting bound.
  exact         48 var-poly, moments and bounds ops in seeded order, checked
                against perfbench/refs.json; exact-moment bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("clt-window", "clt-vincular", "exact")

MIN_SETUPS = 5          # set-up is measured this many times at least
RUN_DEADLINE_S = 170    # every worker is stopped before the 180 s limit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Wrapped functions, as named by perfbench/tracer.py.
FUNCTIONS = ["cli", "sampling.sample_uniform_batch", "positions.position_matrix",
             "positions.count_occurrences_batch", "montecarlo.run_experiment",
             "montecarlo.sample_cumulants", "montecarlo.empirical_kolmogorov",
             "montecarlo.fit_rate", "moments.variance_polynomial",
             "moments.exact_variance_at", "moments.joint_probability",
             "depgraph.graph_summary"]


class RunError(Exception):
    """The run cannot produce a result."""


def isolated_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("VINCSTAT_", "PYTHON"))}
    for sub in ("home", "cache", "tmp"):
        (tmp / sub).mkdir()
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "HOME": str(tmp / "home"),
        "XDG_CACHE_HOME": str(tmp / "cache"),
        "TMPDIR": str(tmp / "tmp"),
    })
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(workload: str, seed: int, mode: str, scratch: Path, number: int,
               deadline: float, refs: Path | None = None) -> dict:
    """Start one worker in a fresh directory and wait for its record."""
    tmp = scratch / f"pass{number:03d}"
    (tmp / "cwd").mkdir(parents=True)
    env = isolated_env(tmp)
    out = tmp / "record.json"
    cmd = [sys.executable, "-B", str(WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", str(out)]
    if refs is not None:
        cmd += ["--refs", str(refs)]
    load_before = os.getloadavg()
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=tmp / "cwd", env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{mode} pass of {workload} did not finish in time")
    finished = time.monotonic()
    if proc.returncode != 0:
        raise RunError(f"{mode} pass of {workload} exited with {proc.returncode}:\n"
                       + err.decode(errors="replace")[-2000:])
    record = json.loads(out.read_text())
    shutil.rmtree(tmp)
    record.update({
        "mode": mode,
        "setup_s": record.pop("ready") - spawned,
        "pass_s": finished - spawned,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    })
    if "ops" in record:
        record["wall_s"] = sum(op["seconds"] for op in record["ops"])
    return record


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               scratch: Path) -> list[dict]:
    """Passes until the time is spent: at least one untraced pass, and
    with tracing at least one traced pass, alternating."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    passes: list[dict] = []
    modes = ("untraced", "traced") if trace else ("untraced",)
    while True:
        done = len(passes)
        if done >= len(modes):
            longest = max(p["pass_s"] for p in passes)
            if time.monotonic() - start + longest > seconds:
                break
        mode = modes[done % len(modes)]
        passes.append(run_worker(workload, seed, mode, scratch, done, deadline))
    while len(passes) < MIN_SETUPS:
        passes.append(run_worker(workload, seed, "setup", scratch, len(passes), deadline))
    return passes


median = statistics.median


def p95(xs):
    return statistics.quantiles(xs, n=100, method="inclusive")[94]


def op_times(passes: list[dict]) -> list[float]:
    return [op["seconds"] for p in passes for op in p["ops"]]


def wall(passes: list[dict]) -> float:
    """Time of the op list: the sum over ops of each op's median time
    across the passes.  Every pass of a run has the same ops in the same
    order, so a slow spell in one pass is outvoted op by op."""
    return sum(median(times) for times in zip(*([op["seconds"] for op in p["ops"]]
                                                 for p in passes)))


def end_to_end(passes: list[dict]) -> dict:
    untraced = [p for p in passes if p["mode"] == "untraced"]
    return {
        "wall_s": (wall(untraced), "s"),
        "setup_s": (median([p["setup_s"] for p in passes]), "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in untraced]), "MB"),
    }


def per_layer(passes: list[dict]) -> dict:
    """Per-layer metrics as means over the traced passes, so that they do
    not depend on how many passes fit into the run."""
    traced = [p for p in passes if p["mode"] == "traced"]
    untraced = [p for p in passes if p["mode"] == "untraced"]

    def mean(values) -> float:
        return sum(values) / len(traced)

    totals = {name: {key: mean(p["trace"]["totals"][name][key] for p in traced)
                     for key in ("calls", "self_s", "errors")}
              for name in FUNCTIONS}
    counters = {name: mean(p["trace"]["counters"][name] for p in traced)
                for name in traced[0]["trace"]["counters"]}
    joint_distinct = mean(p["trace"]["joint_distinct"] for p in traced)
    op_time = sum(t["self_s"] for t in totals.values())

    def rate(count: float, name: str) -> float:
        busy = totals[name]["self_s"]
        return count / busy if busy > 0 else 0.0

    out = {}
    for name in FUNCTIONS:
        t = totals[name]
        out[f"{name}.calls"] = (t["calls"], "count")
        out[f"{name}.errors"] = (t["errors"], "count")
        out[f"{name}.share"] = (100.0 * t["self_s"] / op_time, "%")
        out[f"{name}.self_s"] = (t["self_s"], "s")
    joint_calls = totals["moments.joint_probability"]["calls"]
    clt_seconds = sum(op["seconds"] for p in untraced for op in p["ops"] if op["argv"][0] == "clt")
    clt_samples = sum(int(op["argv"][op["argv"].index("--samples") + 1])
                      for p in untraced for op in p["ops"] if op["argv"][0] == "clt")
    out.update({
        "sampling.perms": (counters["sampling.perms"], "count"),
        "sampling.perms_per_s": (rate(counters["sampling.perms"],
                                      "sampling.sample_uniform_batch"), "1/s"),
        "positions.sets": (counters["positions.sets"], "count"),
        "positions.cells": (counters["positions.cells"], "count"),
        "positions.cells_per_s": (rate(counters["positions.cells"],
                                       "positions.count_occurrences_batch"), "1/s"),
        "moments.joint_distinct": (joint_distinct, "count"),
        "moments.joint_hit_ratio": (1.0 - joint_distinct / joint_calls if joint_calls else 0.0,
                                    "ratio"),
        "depgraph.scan_vertices": (counters["depgraph.scan_vertices"], "count"),
        "depgraph.scan_vertices_per_s": (rate(counters["depgraph.scan_vertices"],
                                              "depgraph.graph_summary"), "1/s"),
        # End-to-end figures of this run's untraced passes that carry no
        # bound: op percentiles jump between op kinds on the mixed exact
        # list, and exact draws no samples.
        "e2e.op_p50_s": (median(op_times(untraced)), "s"),
        "e2e.op_p95_s": (p95(op_times(untraced)), "s"),
        "e2e.samples_per_s": (clt_samples / clt_seconds if clt_seconds else 0.0, "1/s"),
        "trace.op_time_s": (op_time, "s"),
        "trace.wrapper_s": (mean(p["trace"]["wrapper_s"] for p in traced), "s"),
        "trace.overhead_s": (wall(traced) - wall(untraced), "s"),
    })
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args, passes: list[dict], load_before, load_after) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "versions": passes[0]["versions"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "limits": passes[0]["limits"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="vincstat benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (SRC / "vincstat" / "__init__.py").is_file():
        print(f"no vincstat sources under {SRC}", file=sys.stderr)
        return 2
    scratch = HERE / ".runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    load_before = os.getloadavg()
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    except RunError as err:
        print(err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    load_after = os.getloadavg()

    ops = [op for p in passes for op in p.get("ops", [])]
    failed = [op for op in ops if not op["ok"]]
    metrics = per_layer(passes) if args.trace else end_to_end(passes)
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    record = {"provenance": provenance(args, passes, load_before, load_after),
              "result": result, "passes": passes}
    path = results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    for op in failed:
        print(f"FAILED {' '.join(op['argv'])}: {op['why']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
