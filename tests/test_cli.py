import concurrent.futures
import json
import os
import subprocess
import sys
from itertools import combinations
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import vincstat
from vincstat.cli import CSV_COLUMNS, main
from vincstat.depgraph import graph_summary, stein_bound
from vincstat.moments import exact_variance_at
from vincstat.montecarlo import _CHUNK
from vincstat.patterns import parse_pattern
from vincstat.sampling import sample_by_reduction, sample_uniform


@pytest.fixture()
def runner():
    return CliRunner()


def _ok(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_count_command(runner):
    out = _ok(runner.invoke(main, ["count", "--pattern", "3|1,2", "--perm", "3,5,1,2,4"]))
    assert out == {"count": 3}


def test_sample_command_matches_library(runner):
    out = _ok(runner.invoke(main, ["sample", "--n", "5", "--seed", "9", "--count", "2"]))
    assert out["samples"] == [
        list(sample_uniform(5, 9, 0).values),
        list(sample_uniform(5, 9, 1).values),
    ]
    out = _ok(
        runner.invoke(
            main,
            ["sample", "--n", "6", "--seed", "3", "--count", "2", "--method", "reduction"],
        )
    )
    assert out["samples"] == [
        list(sample_by_reduction(6, 3, 0).values),
        list(sample_by_reduction(6, 3, 1).values),
    ]


def test_moments_command(runner):
    out = _ok(runner.invoke(main, ["moments", "--pattern", "2,1", "--n", "4"]))
    assert out["mean"] == "3/2"
    assert out["variance"] == "5/12"


def test_var_poly_command(runner):
    out = _ok(runner.invoke(main, ["var-poly", "--pattern", "2,1"]))
    assert out["coefficients"] == ["1/12", "1/12"]
    assert out["valid_from"] == 2
    assert out["degree"] == 1
    assert out["leading_coefficient"] == "1/12"


def test_depgraph_command(runner):
    out = _ok(runner.invoke(main, ["depgraph", "--pattern", "3|1,2", "--n", "8"]))
    assert (out["N"], out["D"]) == (21, 20)
    assert out["j"] == 2


def test_bounds_manual_inputs(runner):
    out = _ok(
        runner.invoke(
            main,
            ["bounds", "--kind", "stein", "--N", "1", "--D", "1", "--B", "1", "--sigma2", "1"],
        )
    )
    assert out["value"] == pytest.approx(16.0)
    out = _ok(runner.invoke(main, ["bounds", "--kind", "cumulant", "--r", "2", "--N", "5", "--D", "1"]))
    assert out["value"] == pytest.approx(10.0)
    out = _ok(
        runner.invoke(
            main, ["bounds", "--kind", "saulis", "--gamma", "0", "--delta", str(600 / sqrt(2))]
        )
    )
    assert out["value"] == pytest.approx(1.08)


def test_bounds_computed_from_pattern(runner):
    out = _ok(runner.invoke(main, ["bounds", "--kind", "stein", "--pattern", "2,1", "--n", "100"]))
    p = parse_pattern("2,1")
    s = graph_summary(100, p)
    expected = stein_bound(s.N, s.D, 1.0, float(exact_variance_at(p, 100)))
    assert out["value"] == pytest.approx(expected)
    assert (out["N"], out["D"]) == (s.N, s.D)


def test_clt_json_and_determinism(runner):
    args = [
        "clt", "--pattern", "2,1", "--n", "12", "--samples", "300",
        "--seed", "5", "--threads", "1",
    ]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    out = json.loads(first.output)
    assert out["exact_moments"] is True
    assert 0 < out["d_K"] < 1
    assert set(out["cumulants"]) == {"k1", "k2", "k3", "k4"}
    assert set(out["std_errors"]) == {"se1", "se2", "se3", "se4"}


def test_clt_csv_header_and_rate_round_trip(runner):
    rows = []
    for n in (6, 12, 48):
        result = runner.invoke(
            main,
            ["clt", "--pattern", "2,1", "--n", str(n), "--samples", "2000",
             "--seed", "2", "--threads", "1", "--format", "csv"],
        )
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0].split(",") == CSV_COLUMNS
        rows.append(lines[1])
    merged = "\n".join([",".join(CSV_COLUMNS)] + rows) + "\n"
    fit = _ok(runner.invoke(main, ["rate"], input=merged))
    assert len(fit["points"]) == 3
    assert fit["slope"] < 0


def test_rate_two_column_input(runner):
    # Exact half-power decay: slope -1/2, zero residual.
    csv_text = "100,0.3\n400,0.15\n1600,0.075\n"
    out = _ok(runner.invoke(main, ["rate"], input=csv_text))
    assert out["slope"] == pytest.approx(-0.5, abs=1e-12)
    assert out["residual"] == pytest.approx(0.0, abs=1e-12)


def test_oracle_command_modes(runner):
    out = _ok(runner.invoke(main, ["oracle", "--pattern", "2,1", "--n", "3", "--distribution"]))
    assert out["distribution"] == {"0": "1/6", "1": "2/3", "2": "1/6"}
    out = _ok(runner.invoke(main, ["oracle", "--pattern", "2,1", "--n", "4"]))
    assert out == {"pattern": "2,1", "n": 4, "mean": "3/2", "variance": "5/12"}
    out = _ok(runner.invoke(main, ["oracle", "--pattern", "2,1", "--n", "4", "--ltv", "1"]))
    assert [t["value"] for t in out["terms"]] == ["5/36", "5/18"]
    assert out["total"] == "5/12" == out["variance"]


def test_exit_code_one_with_structured_error(runner):
    # Every subcommand reports a VincstatError through the group's one
    # error boundary: a JSON error object and exit code 1.
    cases = [
        (["count", "--pattern", "1,x", "--perm", "1,2"], None, "MalformedToken"),
        (["sample", "--n", "0"], None, "ZeroSize"),
        (["moments", "--pattern", "1|2|3|4|5|6", "--n", "8"], None, "SizeLimitExceeded"),
        (["var-poly", "--pattern", "1"], None, "PatternTooSmall"),
        (["depgraph", "--pattern", "2,1|3|4", "--n", "900"], None, "SizeLimitExceeded"),
        (["bounds", "--kind", "cumulant", "--r", "2", "--N", "0", "--D", "1"], None,
         "NonPositiveInput"),
        (["clt", "--pattern", "2,1", "--n", "10", "--samples", "50", "--threads", "1"], None,
         "DegenerateInput"),
        (["rate"], "100,0.3\n400,0.15\n", "DegenerateInput"),
        (["oracle", "--pattern", "2,1", "--n", "10"], None, "SizeLimitExceeded"),
    ]
    for args, stdin, error in cases:
        result = runner.invoke(main, args, input=stdin)
        assert result.exit_code == 1, (args, result.output)
        out = json.loads(result.output)
        assert set(out) == {"error"} and set(out["error"]) == {"type", "message"}, args
        assert out["error"]["type"] == error, args
        if args[0] == "moments":
            assert "exceeds" in out["error"]["message"]


def test_malformed_limit_is_a_json_error(runner):
    # --unsafe-size still parses the limit instead of ignoring it, and
    # clt reports it as moments does.
    for flag in ([], ["--unsafe-size"]):
        for args in (["moments", "--pattern", "2,1", "--n", "5"],
                     ["clt", "--pattern", "2,1", "--n", "5", "--samples", "100"]):
            result = runner.invoke(main, [*flag, *args], env={"VINCSTAT_MAX_K": "abc"})
            assert result.exit_code == 1, (flag, args)
            err = json.loads(result.output)["error"]
            assert err["type"] == "MalformedLimit"
            assert "VINCSTAT_MAX_K" in err["message"] and "'abc'" in err["message"]


def test_clt_default_threads_follow_the_affinity_mask(runner, monkeypatch):
    # Eight CPUs in the machine, one in this process's affinity mask: a
    # clt over two chunks without --threads starts no worker pool.
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    clt = ["clt", "--pattern", "2,1", "--n", "6", "--samples", str(_CHUNK + 1), "--seed", "3"]
    out = _ok(runner.invoke(main, clt))
    assert started == []
    # Where the OS reports no affinity mask, the CPU count is used.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _ok(runner.invoke(main, clt)) == out
    assert started == [2]


def test_negative_host_size_is_a_usage_error(runner):
    commands = [
        ["sample"],
        ["moments", "--pattern", "2,1"],
        ["depgraph", "--pattern", "2,1"],
        ["bounds", "--kind", "stein", "--pattern", "2,1"],
        ["clt", "--pattern", "2,1", "--samples", "200", "--threads", "1"],
        ["oracle", "--pattern", "2,1"],
    ]
    for args in commands:
        result = runner.invoke(main, [*args, "--n", "-5"])
        assert result.exit_code == 2, args
        assert "--n" in result.output, args
    # Zero is a host size; sampling one is a computation error, even when
    # no sample is asked for.
    for args in (["sample", "--n", "0"], ["sample", "--n", "0", "--count", "0"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 1, args
        assert json.loads(result.output)["error"]["type"] == "ZeroSize", args


def test_rate_malformed_csv_is_a_usage_error(runner):
    short_row = runner.invoke(main, ["rate"], input="n,d_K\n100\n")
    assert short_row.exit_code == 2
    assert "bad CSV input" in short_row.output
    no_n_column = runner.invoke(main, ["rate"], input="m,d_K\n100,0.1\n400,0.05\n")
    assert no_n_column.exit_code == 2
    assert "bad CSV input" in no_n_column.output


def test_rate_refuses_a_single_host_size(runner):
    result = runner.invoke(main, ["rate"], input="100,0.02\n100,0.03\n100,0.025\n")
    assert result.exit_code == 1
    error = json.loads(result.output)["error"]
    assert error["type"] == "DegenerateInput"
    assert "distinct n" in error["message"]


def test_rate_reads_concatenated_clt_csv(runner):
    # Every `clt --format csv` run repeats the header row; rate skips the
    # later copies.
    runs = ""
    for n in (20, 40, 80):
        result = runner.invoke(main, [
            "clt", "--pattern", "2,1", "--n", str(n), "--samples", "300",
            "--seed", "1", "--threads", "1", "--format", "csv",
        ])
        assert result.exit_code == 0, result.output
        runs += result.output
    out = _ok(runner.invoke(main, ["rate"], input=runs))
    assert [n for n, _ in out["points"]] == [20, 40, 80]


def test_options_a_mode_does_not_read_are_usage_errors(runner):
    cases = [
        (["bounds", "--kind", "saulis", "--gamma", "0", "--delta", "424.26",
          "--pattern", "1|2|3|4|5|6|7", "--n", "5"],
         "--kind saulis does not read --pattern, --n"),
        (["bounds", "--kind", "cumulant", "--r", "2", "--N", "5", "--D", "1",
          "--sigma2", "-3", "--n", "7", "--gamma", "9"],
         "--kind cumulant does not read --sigma2, --gamma"),
        (["bounds", "--kind", "saulis", "--gamma", "0", "--delta", "1", "--B", "1"],
         "--kind saulis does not read --B"),
        (["bounds", "--kind", "stein", "--N", "5", "--D", "1", "--sigma2", "1", "--r", "3"],
         "--kind stein does not read --r"),
        (["bounds", "--kind", "cumulant", "--r", "2", "--N", "5", "--D", "1", "--n", "7"],
         "--pattern and --n go together"),
        (["oracle", "--pattern", "2,1", "--n", "4", "--distribution", "--ltv", "1"],
         "--ltv cannot be combined with --distribution or --moments"),
        (["oracle", "--pattern", "2,1", "--n", "4", "--moments", "--ltv", "1"],
         "--ltv cannot be combined with --distribution or --moments"),
    ]
    for args, message in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert result.output.splitlines()[-1] == f"Error: {message}", args


def test_missing_inputs_are_usage_errors(runner):
    cases = [
        (["bounds", "--kind", "stein", "--N", "10", "--D", "3"], "",
         "kind=stein needs --sigma2 (or --pattern/--n)"),
        (["bounds", "--kind", "cumulant", "--N", "10", "--D", "3"], "",
         "kind=cumulant needs --r"),
        (["rate"], "", "empty CSV input"),
    ]
    for args, stdin, message in cases:
        result = runner.invoke(main, args, input=stdin)
        assert result.exit_code == 2, args
        assert result.output.splitlines()[-1] == f"Error: {message}", args


def test_unsafe_size_flag_unlocks_k6(runner):
    result = runner.invoke(
        main, ["--unsafe-size", "moments", "--pattern", "1|2|3|4|5|6", "--n", "8"]
    )
    out = _ok(result)
    assert out["variance"].count("/") == 1

    stein = ["bounds", "--kind", "stein", "--pattern", "1|2|3|4|5|6", "--n", "9"]
    assert runner.invoke(main, stein).exit_code == 1
    out = _ok(runner.invoke(main, ["--unsafe-size", *stein]))
    assert out["sigma2"] == float(exact_variance_at(parse_pattern("1|2|3|4|5|6"), 9, True))

    clt = ["clt", "--pattern", "1|2|3|4|5|6", "--n", "12", "--samples", "200", "--threads", "1"]
    assert _ok(runner.invoke(main, clt))["exact_moments"] is False
    assert _ok(runner.invoke(main, ["--unsafe-size", *clt]))["exact_moments"] is True

    # The flag only ever raises the limit: VINCSTAT_MAX_K=7 admits k=7
    # with or without it.
    k7 = ["moments", "--pattern", "1|2|3|4|5|6|7", "--n", "8"]
    plain = _ok(runner.invoke(main, k7, env={"VINCSTAT_MAX_K": "7"}))
    assert _ok(runner.invoke(main, ["--unsafe-size", *k7], env={"VINCSTAT_MAX_K": "7"})) == plain


def test_count_respects_listing_cap(runner):
    # 1|3|2 is not path-shaped, so count lists its C(8,3) = 56 position sets.
    perm = "3,1,4,8,5,7,2,6"
    result = runner.invoke(
        main, ["count", "--pattern", "1|3|2", "--perm", perm],
        env={"VINCSTAT_LISTING_CAP": "10"},
    )
    assert result.exit_code == 1
    assert json.loads(result.output)["error"]["type"] == "SizeLimitExceeded"
    assert _ok(runner.invoke(main, ["count", "--pattern", "1|3|2", "--perm", perm]))["count"] > 0


def test_sample_respects_listing_cap(runner, monkeypatch):
    # n * count entries above the cap are refused before any draw.
    import vincstat.cli

    drawn = []
    monkeypatch.setattr(vincstat.cli, "sample_uniform_batch", lambda *args: drawn.append(args))
    cap = {"VINCSTAT_LISTING_CAP": "10"}
    result = runner.invoke(main, ["sample", "--n", "6", "--count", "2"], env=cap)
    assert result.exit_code == 1
    assert json.loads(result.output)["error"]["type"] == "SizeLimitExceeded"
    assert drawn == []
    monkeypatch.undo()
    out = _ok(runner.invoke(main, ["sample", "--n", "6", "--count", "1"], env=cap))
    assert out["samples"] == [list(sample_uniform(6, 0, 0).values)]
    result = runner.invoke(main, ["sample", "--n", "0", "--count", "2"], env=cap)
    assert result.exit_code == 1
    assert json.loads(result.output)["error"]["type"] == "ZeroSize"


def _count(runner, pattern, values, env=None):
    perm = ",".join(str(v) for v in values)
    return runner.invoke(main, ["count", "--pattern", pattern, "--perm", perm], env=env)


def test_count_sweeps_path_and_window_shapes_up_to_the_window_starts(runner):
    # Path and window shapes need no listing: the cap bounds the n - k + 1
    # window starts instead, and the counts equal direct ones.
    cap = {"VINCSTAT_LISTING_CAP": "10"}
    rng = np.random.default_rng(3)
    row = [int(v) for v in rng.permutation(12) + 1]  # C(12,3) = 220 sets, 10 starts
    triples = sum(a < b < c for a, b, c in combinations(row, 3))
    assert _ok(_count(runner, "1|2|3", row, cap)) == {"count": triples}
    # Past n = 182, where the default cap refused to list 1|2|3: one rising
    # triple per middle entry, smaller entry before it and larger after.
    r = rng.permutation(200) + 1
    rises = r[:, None] < r[None, :]
    left = np.tril(rises.T, -1).sum(axis=1)  # smaller entries before each one
    right = np.triu(rises, 1).sum(axis=1)    # larger entries after each one
    assert _ok(_count(runner, "1|2|3", r))["count"] == int((left * right).sum())
    assert _ok(_count(runner, "2,1", r))["count"] == int((r[:-1] > r[1:]).sum())
    # A window pattern keeps its bound: n - 1 position sets at n = 11, not at 12.
    short = [int(v) for v in rng.permutation(11) + 1]
    descents = sum(a > b for a, b in zip(short, short[1:]))
    assert _ok(_count(runner, "2,1", short, cap)) == {"count": descents}
    result = _count(runner, "2,1", row, cap)
    assert result.exit_code == 1
    assert json.loads(result.output)["error"]["type"] == "SizeLimitExceeded"


def test_clt_counts_multi_block_patterns_past_the_position_listing(runner):
    # 1 122 751 position sets for 3|1,2 at n = 1500: the sweep needs no
    # position matrix, and the listing cap still bounds the host size.
    clt = ["clt", "--pattern", "3|1,2", "--n", "1500", "--samples", "100", "--threads", "1"]
    assert _ok(runner.invoke(main, clt))["exact_moments"] is True
    result = runner.invoke(main, clt, env={"VINCSTAT_LISTING_CAP": "1000"})
    assert result.exit_code == 1
    assert json.loads(result.output)["error"]["type"] == "SizeLimitExceeded"


def test_exit_code_two_on_usage_errors(runner):
    assert runner.invoke(main, ["moments", "--pattern", "2,1"]).exit_code == 2  # no --n
    assert runner.invoke(main, ["bounds", "--kind", "stein"]).exit_code == 2
    assert runner.invoke(main, ["bounds", "--kind", "saulis"]).exit_code == 2
    assert runner.invoke(main, ["rate"], input="not,numbers\nat,all\n").exit_code == 2
    assert runner.invoke(main, ["count", "--pattern", "2,1", "--perm", "1;2"]).exit_code == 2
    assert runner.invoke(main, ["nonsense"]).exit_code == 2


def test_non_finite_and_overflowing_bounds_are_json_errors(runner):
    stein = ["bounds", "--kind", "stein", "--N", "10", "--D", "3"]
    cases = [
        (stein + ["--sigma2", "nan"], "NonPositiveInput"),
        (stein + ["--sigma2", "inf"], "NonPositiveInput"),
        (stein + ["--sigma2", "1", "--B", "nan"], "NonPositiveInput"),
        (["bounds", "--kind", "saulis", "--gamma", "0", "--delta", "inf"], "NonPositiveDelta"),
        (["bounds", "--kind", "cumulant", "--r", "200", "--N", "10", "--D", "100000"],
         "BoundOverflow"),
    ]
    for args, error in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == 1, args
        assert json.loads(result.output)["error"]["type"] == error, args


def test_seed_threads_and_count_ranges_are_usage_errors(runner):
    # Seeds key Philox as one 64-bit word; out-of-range values used to alias.
    sample = ["sample", "--n", "4"]
    clt = ["clt", "--pattern", "2,1", "--n", "10", "--samples", "100"]
    for seed in ("-1", str(2**64)):
        assert runner.invoke(main, sample + ["--seed", seed]).exit_code == 2
        assert runner.invoke(main, clt + ["--seed", seed, "--threads", "1"]).exit_code == 2
    assert _ok(runner.invoke(main, sample + ["--seed", str(2**64 - 1)]))["samples"]
    assert runner.invoke(main, clt + ["--threads", "-4"]).exit_code == 2
    assert runner.invoke(main, clt + ["--threads", "0"]).exit_code == 2
    assert runner.invoke(main, sample + ["--count", "-3"]).exit_code == 2


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import vincstat, vincstat.cli
from click.testing import CliRunner
for args in (
    ["clt", "--pattern", "2,1", "--n", "20", "--samples", "200", "--seed", "1"],
    ["oracle", "--pattern", "2,1", "--n", "5"],
    ["bounds", "--kind", "stein", "--pattern", "3|1,2", "--n", "40"],
):
    result = CliRunner().invoke(vincstat.cli.main, args)
    assert result.exit_code == 0, (args, result.output)
"""


def test_package_and_cli_run_without_scipy():
    # scipy is a test dependency only; the package must import and run
    # without it.
    src = str(Path(vincstat.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + _WITHOUT_SCIPY],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_the_process_pool_unloaded():
    # Only clt with --threads > 1 starts a process pool, so importing the
    # CLI must not load concurrent.futures.process and multiprocessing.
    src = str(Path(vincstat.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "import vincstat.cli\n"
            "print('concurrent.futures.process' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
