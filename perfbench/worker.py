"""One benchmark pass in a fresh interpreter.

Builds the workload's op list from the seed, runs every op as one
`vincstat` CLI invocation made in-process through the click entry point,
checks each op's output, and writes a JSON record to --out.  With
--mode traced the pass runs under perfbench/tracer.py; with --mode setup
it stops once the ops are ready, which only measures set-up.

    python3 -B perfbench/worker.py --workload exact --seed 1 \
        --mode untraced --out pass.json

perfbench/run.py starts this script with PYTHONPATH pointing at the
checkout's src/ and a scrubbed environment; it is not meant to be run
by hand except to debug a single pass.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import resource
import sys
import time
import traceback
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"

# clt-window: criterion 6's rate experiment, pattern 2,1 at equal m.  The
# n ladder stops at 1600 so that the lattice part of d_K (about
# 0.69/sqrt(n)) stays well above the empirical noise floor (about
# 0.87/sqrt(m)) at every rung; with n = 6400 the fitted slope drifts
# towards -0.3 at any m that fits in a run.
CLT_WINDOW_PATTERN = "2,1"
CLT_WINDOW_NS = (25, 100, 400, 1600)
CLT_WINDOW_M = 12_000
# clt-vincular: N = C(n-1, 2) position sets per sample, so counting
# dominates; m falls as n grows to keep each op comparable in cost.
CLT_VINCULAR_PATTERN = "3|1,2"
CLT_VINCULAR_SIZES = ((100, 10_000), (200, 5_000), (400, 1_000))
RATE_SLOPE_BAND = (-0.70, -0.30)
SE_LIMIT = 5.0

# exact: a seeded sample of the k=4 orders keeps a pass to a few seconds.
# Every op's cost is independent of which orders are drawn, because the
# joint-probability enumeration does the same work for every pattern
# order; the classical pattern's order is drawn apart from the others so
# that no seed shares more cached overlap classes than another.
EXACT_K4_ORDERS = 2
EXACT_FIXED_OPS = [
    ["var-poly", "--pattern", "3,1,5,2,4"],
    ["var-poly", "--pattern", "3,1|5|2,4"],
    ["moments", "--pattern", "1|2|3", "--n", "12"],
    ["bounds", "--kind", "stein", "--pattern", "3|1,2", "--n", "34"],
    ["bounds", "--kind", "cumulant", "--r", "3", "--pattern", "2,1|3|4", "--n", "76"],
]
WORKLOADS = ("clt-window", "clt-vincular", "exact")


def pattern_text(order, mask: int) -> str:
    """Pattern grammar for an order whose entries a, a+1 are adjacent
    when bit a-1 of mask is set."""
    out = str(order[0])
    for a in range(1, len(order)):
        out += ("," if mask >> (a - 1) & 1 else "|") + str(order[a])
    return out


def all_patterns(k: int):
    """Every pattern of size k: each order with each adjacency mask."""
    for order in permutations(range(1, k + 1)):
        for mask in range(1 << (k - 1)):
            yield pattern_text(order, mask)


def exact_ops(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    drawn = rng.sample(list(permutations(range(1, 5))), EXACT_K4_ORDERS + 1)
    texts = [t for k in (2, 3) for t in all_patterns(k)]
    for order in drawn[:EXACT_K4_ORDERS]:
        texts += [pattern_text(order, mask) for mask in range(1, 8)]
    texts.append(pattern_text(drawn[-1], 0))
    ops = [["var-poly", "--pattern", t] for t in texts] + [list(op) for op in EXACT_FIXED_OPS]
    rng.shuffle(ops)
    return ops


def clt_ops(workload: str, seed: int) -> list[list[str]]:
    if workload == "clt-window":
        ops = [["clt", "--pattern", CLT_WINDOW_PATTERN, "--n", str(n),
                "--samples", str(CLT_WINDOW_M), "--seed", str(seed),
                "--threads", "1", "--format", "csv"] for n in CLT_WINDOW_NS]
        return ops + [["rate", "window.csv"]]
    return [["clt", "--pattern", CLT_VINCULAR_PATTERN, "--n", str(n),
             "--samples", str(m), "--seed", str(seed), "--threads", "1"]
            for n, m in CLT_VINCULAR_SIZES]


def make_ops(workload: str, seed: int) -> list[list[str]]:
    if workload == "exact":
        return exact_ops(seed)
    return clt_ops(workload, seed)


def ref_key(argv: list[str]) -> str:
    return " ".join(argv)


# ---- output checks: each returns None when the output is right, else why


def _same(got, want, path="") -> str | None:
    """Exact comparison of JSON values; floats (which only the bounds
    ops print) to 1e-12 relative, everything else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path or 'output'} keys differ"
        for key in want:
            why = _same(got[key], want[key], f"{path}.{key}")
            if why:
                return why
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path} length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            why = _same(g, w, f"{path}[{i}]")
            if why:
                return why
        return None
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return None if math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0) else f"{path}: {got} != {want}"
    if type(got) is not type(want) or got != want:
        return f"{path}: {got!r} != {want!r}"
    return None


def check_exact(argv, out: str, refs: dict) -> str | None:
    want = refs.get(ref_key(argv))
    if want is None:
        return "no reference for this op"
    return _same(json.loads(out), want)


def _clt_stats(n, m, d_k, k1, k2, se1, se2, exact) -> str | None:
    if not exact:
        return "exact moments were not used"
    if not abs(k1) <= SE_LIMIT * se1:
        return f"k1={k1} is more than {SE_LIMIT} SE ({se1}) from 0"
    if not abs(k2 - 1.0) <= SE_LIMIT * se2:
        return f"k2={k2} is more than {SE_LIMIT} SE ({se2}) from 1"
    # Lattice and skewness terms decay like n^-1/2; the empirical
    # distance of m draws adds at most a few times m^-1/2.
    band = 1.0 / math.sqrt(n) + 3.0 / math.sqrt(m)
    if not 0.0 < d_k <= band:
        return f"d_K={d_k} outside (0, {band:.4f}]"
    return None


def check_clt_json(argv, out: str) -> str | None:
    got = json.loads(out)
    n, m, seed = (int(argv[argv.index(f)+1]) for f in ("--n", "--samples", "--seed"))
    if (got["n"], got["m"], got["seed"]) != (n, m, seed):
        return "echoed n, m or seed differ from the request"
    c, se = got["cumulants"], got["std_errors"]
    return _clt_stats(n, m, got["d_K"], c["k1"], c["k2"], se["se1"], se["se2"],
                      got["exact_moments"] is True)


def check_clt_csv(argv, out: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(out)))
    if len(rows) != 1:
        return f"expected one CSV row, got {len(rows)}"
    row = rows[0]
    n, m = int(argv[argv.index("--n")+1]), int(argv[argv.index("--samples")+1])
    if (int(row["n"]), int(row["m"])) != (n, m):
        return "echoed n or m differ from the request"
    k2, k4 = float(row["k2"]), float(row["k4"])
    # The CSV carries no se1/se2, so use the plug-in standard errors of
    # the sample mean and variance.
    se1 = math.sqrt(k2 / m)
    se2 = math.sqrt(max(k4 + 2 * k2 * k2, 0.0) / m)
    return _clt_stats(n, m, float(row["d_K"]), float(row["k1"]), k2, se1, se2,
                      row["exact_moments"] == "true")


def check_rate(out: str) -> str | None:
    got = json.loads(out)
    ns = [p[0] for p in got["points"]]
    if ns != [float(n) for n in CLT_WINDOW_NS]:
        return f"rate points {ns} do not match the clt ops"
    lo, hi = RATE_SLOPE_BAND
    if not lo <= got["slope"] <= hi:
        return f"slope {got['slope']} outside [{lo}, {hi}]"
    return None


def check(argv, code: int, out: str, refs: dict) -> str | None:
    if code != 0:
        return f"exit code {code}: {out.strip()[:200]}"
    if argv[0] == "rate":
        return check_rate(out)
    if argv[0] == "clt":
        return check_clt_csv(argv, out) if "csv" in argv else check_clt_json(argv, out)
    return check_exact(argv, out, refs)


# ---- running ops


def invoke(cli_main, argv: list[str]) -> tuple[int, str]:
    """One CLI invocation through the click entry point; returns the
    exit code and stdout."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli_main.main(args=argv, prog_name="vincstat", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def run_pass(ops, refs: dict, tracer=None) -> list[dict]:
    from vincstat.cli import main as cli_main

    traced_invoke = tracer.wrap("cli", invoke) if tracer is not None else None

    records = []
    window_rows: list[str] = []
    for index, argv in enumerate(ops):
        if argv[0] == "rate":
            Path(argv[1]).write_text("".join(window_rows))
        start = time.perf_counter()
        try:
            if tracer is None:
                code, out = invoke(cli_main, argv)
            else:
                tracer.op = index
                code, out = traced_invoke(cli_main, argv)
        except Exception:
            # A failing op is counted, never fatal to the pass.
            seconds = time.perf_counter() - start
            records.append({"argv": argv, "seconds": seconds, "ok": False,
                            "why": traceback.format_exc(limit=3)})
            continue
        seconds = time.perf_counter() - start
        try:
            why = check(argv, code, out, refs)
        except (ValueError, KeyError, TypeError) as exc:
            why = f"unreadable output: {exc!r}"
        if argv[0] == "clt" and "csv" in argv:
            lines = out.splitlines(keepends=True)
            window_rows.extend(lines if not window_rows else lines[1:])
        records.append({"argv": argv, "seconds": seconds, "ok": why is None, "why": why})
    return records


def limits() -> dict:
    from vincstat import config

    return {
        "max_exact_k": config.max_exact_k(),
        "max_joint_t": config.max_joint_t(),
        "oracle_max_n": config.oracle_max_n(),
        "listing_cap": config.listing_cap(),
        "vertex_cap": config.vertex_cap(),
    }


def versions() -> dict:
    from importlib.metadata import version

    out = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy", "click"):
        out[dist] = version(dist)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("untraced", "traced", "setup"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--refs", type=Path, default=REFS)
    args = parser.parse_args()

    import vincstat.cli  # the import is part of set-up

    src = (ROOT / "src").resolve()
    if src not in Path(vincstat.cli.__file__).resolve().parents:
        print(f"vincstat was imported from {vincstat.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    ops = make_ops(args.workload, args.seed)
    refs = json.loads(args.refs.read_text())["ops"] if args.workload == "exact" else {}
    ready = time.monotonic()

    record = {"ready": ready, "limits": limits(), "versions": versions()}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        record["ops"] = run_pass(ops, refs, tracer)
        if tracer is not None:
            record["trace"] = tracer.summary()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
