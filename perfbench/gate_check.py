"""Show that the exact workload's correctness gate catches a wrong reference.

    python3 perfbench/gate_check.py [--seed 1]

Runs one untraced exact pass against perfbench/refs.json and one against
a copy in which a single drawn op's reference is altered.  Exits 0 only
if the first pass has no failed op and the second fails exactly the
altered op.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run
import worker


def corrupt(value):
    """The reference with its first "p/q" string changed by one."""
    if isinstance(value, str) and "/" in value:
        p, q = value.split("/")
        return f"{int(p) + 1}/{q}", True
    if isinstance(value, dict):
        value = dict(value)
        for key in value:
            value[key], done = corrupt(value[key])
            if done:
                return value, True
    if isinstance(value, list):
        value = list(value)
        for i, item in enumerate(value):
            value[i], done = corrupt(item)
            if done:
                return value, True
    return value, False


def failures(seed: int, scratch, refs_path) -> list[str]:
    deadline = time.monotonic() + run.RUN_DEADLINE_S
    record = run.run_worker("exact", seed, "untraced", scratch, 0, deadline, refs_path)
    return [worker.ref_key(op["argv"]) for op in record["ops"] if not op["ok"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    scratch = run.HERE / ".runs" / f"gate-{os.getpid()}"
    try:
        scratch.mkdir(parents=True)
        refs = json.loads(worker.REFS.read_text())
        target = next(worker.ref_key(argv) for argv in worker.make_ops("exact", args.seed)
                      if argv[0] == "var-poly")
        refs["ops"][target], done = corrupt(refs["ops"][target])
        if not done:
            raise run.RunError(f"reference of {target!r} has no p/q string to alter")
        bad_refs = scratch / "refs.json"
        bad_refs.write_text(json.dumps(refs))

        clean = failures(args.seed, scratch / "clean", worker.REFS)
        caught = failures(args.seed, scratch / "corrupted", bad_refs)
    except run.RunError as err:
        print(err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"intact references: {len(clean)} failed ops {clean}")
    print(f"reference of {target!r} altered: failed ops {caught}")
    ok = clean == [] and caught == [target]
    print("gate check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
