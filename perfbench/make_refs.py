"""Record the exact workload's reference outputs and cross-check them.

    PYTHONPATH=src python3 perfbench/make_refs.py

Runs every op that any seed of the exact workload can draw through the
CLI entry point (about 225 ops, a few minutes) and writes
perfbench/refs.json.  Before writing, every reference is cross-checked
against ground truth computed another way:

- each variance polynomial against brute_force_moments over all n! hosts
  for every valid n <= 8, and its mean against C(n-k+j, j)/k!;
- 2,1 and 1|2 against the closed forms (n+1)/12 and n(n-1)(2n+5)/72;
- the moments and bounds ops against the variance polynomials and
  position counts of their patterns.

The references are meant to be recorded once and then left alone: a
later change to the program must reproduce them, not rewrite them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import worker
from vincstat import brute_force_moments, parse_pattern, position_count
from vincstat.cli import main as cli_main

ORACLE_N = 8


def universe() -> list[list[str]]:
    texts = [t for k in (2, 3) for t in worker.all_patterns(k)]
    texts += list(worker.all_patterns(4))
    return [["var-poly", "--pattern", t] for t in texts] + worker.EXACT_FIXED_OPS


def poly_at(coefficients, n) -> Fraction:
    return sum((Fraction(c) * n**p for p, c in enumerate(coefficients)), Fraction(0))


def expect(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def cross_check(refs: dict) -> None:
    polys = {}
    for key, out in refs.items():
        if not key.startswith("var-poly"):
            continue
        text = out["pattern"]
        pattern = parse_pattern(text)
        coefficients = out["coefficients"]
        polys[text] = coefficients
        k, j = pattern.size, pattern.block_count
        expect(out["degree"] == 2 * j - 1 == len(coefficients) - 1, key)
        for n in range(max(k, out["valid_from"]), ORACLE_N + 1):
            mean, variance = brute_force_moments(pattern, n)
            expect(mean == Fraction(comb(n - k + j, j), factorial(k)), (key, n))
            expect(poly_at(coefficients, n) == variance, (key, n))
    for n in range(2, 40):
        expect(poly_at(polys["2,1"], n) == Fraction(n + 1, 12), ("2,1", n))
        expect(poly_at(polys["1|2"], n) == Fraction(n * (n - 1) * (2 * n + 5), 72), ("1|2", n))

    for argv in worker.EXACT_FIXED_OPS:
        if argv[0] == "var-poly":
            continue
        key = worker.ref_key(argv)
        out = refs[key]
        text = argv[argv.index("--pattern") + 1]
        n = int(argv[argv.index("--n") + 1])
        pattern = parse_pattern(text)
        if argv[0] == "moments":
            expect(Fraction(out["variance"]) == poly_at(polys[text], n), key)
            expect(Fraction(out["mean"]) == Fraction(position_count(n, pattern),
                                                     factorial(pattern.size)), key)
        else:
            expect(out["N"] == position_count(n, pattern), key)
            if "sigma2" in out:
                expect(out["sigma2"] == float(poly_at(polys[text], n)), key)


def main() -> int:
    refs = {}
    for argv in universe():
        code, out = worker.invoke(cli_main, argv)
        if code != 0:
            print(f"{' '.join(argv)} failed: {out}", file=sys.stderr)
            return 1
        refs[worker.ref_key(argv)] = json.loads(out)
    cross_check(refs)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=worker.ROOT,
                            capture_output=True, text=True).stdout.strip()
    worker.REFS.write_text(json.dumps(
        {"recorded_at": commit, "cross_checked": True, "ops": refs}, indent=1) + "\n")
    print(f"wrote {len(refs)} references to {worker.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
