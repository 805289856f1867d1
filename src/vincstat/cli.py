"""Command-line interface.

One executable, `vincstat`, with a subcommand per capability.  Output is
JSON on stdout (CSV where noted); exact rationals are always serialized
as "p/q" strings.  Exit codes: 0 success, 1 computation error (limits,
degenerate inputs — reported as a structured JSON error object), 2 usage
error (diagnostic on stderr, courtesy of the argument parser).

The group's `invoke` is the one error boundary: a VincstatError from any
subcommand becomes the JSON error object with exit code 1.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction

import click
from click.core import ParameterSource

from . import config
from .depgraph import cumulant_bound, graph_summary, saulis_bound, stein_bound
from .errors import SizeLimitExceeded, VincstatError
from .moments import exact_variance_at, expectation, variance_polynomial
from .montecarlo import fit_rate, run_experiment
from .oracle import brute_force_distribution, brute_force_moments, total_variance_check
from .patterns import Permutation, parse_pattern
from .positions import count_occurrences
from .sampling import sample_by_reduction_batch, sample_uniform_batch

CSV_COLUMNS = [
    "pattern", "n", "m", "seed", "d_K",
    "k1", "k2", "k3", "k4", "se3", "se4", "exact_moments",
]

# Philox keys take the seed as one 64-bit word.
SEED = click.IntRange(0, 2**64 - 1)
# Host sizes: a negative --n is a usage error.
SIZE = click.IntRange(min=0)


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _emit(payload: dict) -> None:
    click.echo(json.dumps(payload))


def _fail(err: VincstatError) -> None:
    _emit({"error": {"type": type(err).__name__, "message": str(err)}})
    sys.exit(1)


class _ErrorBoundary(click.Group):
    """Reports a VincstatError from any subcommand as the JSON error."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except VincstatError as err:
            _fail(err)


def _parse_perm(text: str) -> Permutation:
    try:
        values = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise click.UsageError(f"--perm {text!r} is not comma-separated integers")
    return Permutation(values)


@click.group(cls=_ErrorBoundary)
@click.option(
    "--unsafe-size", is_flag=True,
    help=f"Raise the exact-moment limit to k={config.UNSAFE_MAX_EXACT_K}; "
         "never lowers a larger VINCSTAT_MAX_K.",
)
@click.pass_context
def main(ctx: click.Context, unsafe_size: bool) -> None:
    """Vincular pattern statistics: exact moments, dependency-graph
    bounds, and Monte Carlo normality diagnostics."""
    ctx.obj = {"unsafe": unsafe_size}


@main.command()
@click.option("--pattern", "pattern_text", required=True)
@click.option("--perm", "perm_text", required=True,
              help="Host permutation, comma-separated one-line notation.")
def count(pattern_text: str, perm_text: str) -> None:
    """Count pattern occurrences in one permutation."""
    pattern = parse_pattern(pattern_text)
    sigma = _parse_perm(perm_text)
    _emit({"count": count_occurrences(sigma, pattern)})


@main.command()
@click.option("--n", type=SIZE, required=True)
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--count", "how_many", type=click.IntRange(min=0), default=1,
              show_default=True)
@click.option("--method", type=click.Choice(["shuffle", "reduction"]),
              default="shuffle", show_default=True)
def sample(n: int, seed: int, how_many: int, method: str) -> None:
    """Draw seeded uniform permutations."""
    cap = config.listing_cap()
    if n * how_many > cap:
        raise SizeLimitExceeded(
            f"{how_many} samples of size {n} hold {n * how_many} entries, "
            f"above the listing cap {cap}"
        )
    draw = sample_uniform_batch if method == "shuffle" else sample_by_reduction_batch
    samples = draw(n, seed, how_many).tolist()
    _emit({"n": n, "seed": seed, "method": method, "samples": samples})


@main.command()
@click.option("--pattern", "pattern_text", required=True)
@click.option("--n", type=SIZE, required=True)
@click.pass_context
def moments(ctx: click.Context, pattern_text: str, n: int) -> None:
    """Exact mean and variance of the occurrence count at size n."""
    pattern = parse_pattern(pattern_text)
    _emit({
        "pattern": pattern_text,
        "n": n,
        "mean": _frac(expectation(pattern, n)),
        "variance": _frac(exact_variance_at(pattern, n, ctx.obj["unsafe"])),
    })


@main.command("var-poly")
@click.option("--pattern", "pattern_text", required=True)
@click.pass_context
def var_poly(ctx: click.Context, pattern_text: str) -> None:
    """Exact variance polynomial in n (ascending coefficients)."""
    pattern = parse_pattern(pattern_text)
    poly = variance_polynomial(pattern, ctx.obj["unsafe"])
    _emit({
        "pattern": pattern_text,
        "coefficients": [_frac(c) for c in poly.coefficients],
        "valid_from": poly.valid_from,
        "degree": poly.degree,
        "leading_coefficient": _frac(poly.leading_coefficient),
    })


@main.command()
@click.option("--pattern", "pattern_text", required=True)
@click.option("--n", type=SIZE, required=True)
def depgraph(pattern_text: str, n: int) -> None:
    """Dependency-graph summary: N, D, edge count."""
    pattern = parse_pattern(pattern_text)
    g = graph_summary(n, pattern)
    _emit({
        "pattern": pattern_text, "n": g.n, "k": g.k, "j": g.j,
        "N": g.N, "D": g.D, "edge_count": g.edge_count,
    })


# The options each bound reads; giving any other one is a usage error.
_BOUND_INPUTS = {
    "stein": {"kind", "pattern_text", "n", "big_n", "big_d", "bound_b", "sigma2"},
    "cumulant": {"kind", "pattern_text", "n", "big_n", "big_d", "bound_b", "r"},
    "saulis": {"kind", "gamma", "delta"},
}


@main.command()
@click.option("--kind", type=click.Choice(["stein", "cumulant", "saulis"]), required=True)
@click.option("--pattern", "pattern_text", default=None,
              help="Compute N, D, sigma2 from this pattern at --n.")
@click.option("--n", type=SIZE, default=None)
@click.option("--N", "big_n", type=int, default=None)
@click.option("--D", "big_d", type=int, default=None)
@click.option("--B", "bound_b", type=float, default=1.0, show_default=True)
@click.option("--sigma2", type=float, default=None)
@click.option("--r", type=int, default=None, help="Cumulant order (kind=cumulant).")
@click.option("--gamma", type=float, default=None, help="kind=saulis")
@click.option("--delta", type=float, default=None, help="kind=saulis")
@click.pass_context
def bounds(ctx, kind, pattern_text, n, big_n, big_d, bound_b, sigma2, r, gamma, delta):
    """Evaluate a normal-approximation bound from supplied or computed
    inputs."""
    unread = [
        param.opts[0] for param in ctx.command.params
        if param.name not in _BOUND_INPUTS[kind]
        and ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT
    ]
    if unread:
        raise click.UsageError(f"--kind {kind} does not read {', '.join(unread)}")
    if (pattern_text is None) != (n is None):
        raise click.UsageError("--pattern and --n go together")
    if kind == "saulis":
        if gamma is None or delta is None:
            raise click.UsageError("kind=saulis needs --gamma and --delta")
        _emit({"kind": kind, "gamma": gamma, "delta": delta,
               "value": saulis_bound(gamma, delta)})
        return
    if pattern_text is not None:
        pattern = parse_pattern(pattern_text)
        summary = graph_summary(n, pattern)
        big_n = summary.N if big_n is None else big_n
        big_d = summary.D if big_d is None else big_d
        if sigma2 is None and kind == "stein":
            sigma2 = float(exact_variance_at(pattern, n, ctx.obj["unsafe"]))
    if big_n is None or big_d is None:
        raise click.UsageError("need --N and --D (or --pattern/--n)")
    if kind == "stein":
        if sigma2 is None:
            raise click.UsageError("kind=stein needs --sigma2 (or --pattern/--n)")
        value = stein_bound(big_n, big_d, bound_b, sigma2)
        _emit({"kind": kind, "N": big_n, "D": big_d, "B": bound_b,
               "sigma2": sigma2, "value": value})
    else:
        if r is None:
            raise click.UsageError("kind=cumulant needs --r")
        value = cumulant_bound(r, big_n, big_d, bound_b)
        _emit({"kind": kind, "r": r, "N": big_n, "D": big_d, "B": bound_b,
               "value": value})


@main.command()
@click.option("--pattern", "pattern_text", required=True)
@click.option("--n", type=SIZE, required=True)
@click.option("--samples", type=int, required=True)
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--threads", type=click.IntRange(min=1), default=None,
              help="Worker processes; default = available parallelism. "
                   "Output does not depend on this.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.pass_context
def clt(ctx, pattern_text, n, samples, seed, threads, fmt):
    """Sample the standardized statistic; report d_K and cumulants."""
    pattern = parse_pattern(pattern_text)
    # Without --threads, one worker per CPU this process may run on.
    threads = threads or config.available_cpus()
    rep = run_experiment(pattern, n, samples, seed, threads=threads, unsafe=ctx.obj["unsafe"])
    c = rep.cumulants
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        writer.writerow([
            rep.pattern, rep.n, rep.samples, rep.seed, repr(rep.d_K),
            repr(c.k1), repr(c.k2), repr(c.k3), repr(c.k4),
            repr(c.se3), repr(c.se4), str(rep.used_exact_moments).lower(),
        ])
        click.echo(buf.getvalue(), nl=False)
    else:
        _emit({
            "pattern": rep.pattern, "n": rep.n, "m": rep.samples,
            "seed": rep.seed, "d_K": rep.d_K,
            "cumulants": {"k1": c.k1, "k2": c.k2, "k3": c.k3, "k4": c.k4},
            "std_errors": {"se1": c.se1, "se2": c.se2, "se3": c.se3, "se4": c.se4},
            "exact_moments": rep.used_exact_moments,
        })


@main.command()
@click.argument("csv_file", type=click.File("r"), default="-")
def rate(csv_file) -> None:
    """Fit the log-log convergence rate from a CSV of (n, d_K) rows.

    Accepts a two-column n,d_K file or the output of `clt --format csv`,
    several runs concatenated: repeated header rows are skipped."""
    rows = [row for row in csv.reader(csv_file) if row]
    if not rows:
        raise click.UsageError("empty CSV input")
    header = [h.strip() for h in rows[0]]
    try:
        if "d_K" in header:
            n_col = header.index("n")
            d_col = header.index("d_K")
            rows = [row for row in rows[1:] if [h.strip() for h in row] != header]
        else:
            n_col, d_col = 0, 1
        points = [(float(row[n_col]), float(row[d_col])) for row in rows]
    except (ValueError, IndexError) as err:
        raise click.UsageError(f"bad CSV input: {err}")
    fit = fit_rate(points)
    _emit({
        "points": [[n, d] for n, d in fit.points],
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
    })


@main.command()
@click.option("--pattern", "pattern_text", required=True)
@click.option("--n", type=SIZE, required=True)
@click.option("--distribution", "mode", flag_value="distribution")
@click.option("--moments", "mode", flag_value="moments", default=True)
@click.option("--ltv", type=int, default=None,
              help="Total-variance decomposition conditioning on this many "
                   "trailing values.")
@click.pass_context
def oracle(ctx, pattern_text, n, mode, ltv) -> None:
    """Brute-force ground truth over all n! permutations."""
    if ltv is not None and ctx.get_parameter_source("mode") is not ParameterSource.DEFAULT:
        raise click.UsageError("--ltv cannot be combined with --distribution or --moments")
    pattern = parse_pattern(pattern_text)
    if ltv is not None:
        rep = total_variance_check(pattern, n, ltv)
        _emit({
            "pattern": pattern_text, "n": n, "c": rep.c,
            "terms": [
                {"label": label, "value": _frac(term)}
                for label, term in zip(rep.labels, rep.terms)
            ],
            "total": _frac(rep.total),
            "variance": _frac(rep.variance),
        })
    elif mode == "distribution":
        dist = brute_force_distribution(pattern, n)
        _emit({
            "pattern": pattern_text, "n": n,
            "distribution": {str(v): _frac(p) for v, p in sorted(dist.items())},
        })
    else:
        mean, variance = brute_force_moments(pattern, n)
        _emit({
            "pattern": pattern_text, "n": n,
            "mean": _frac(mean), "variance": _frac(variance),
        })


if __name__ == "__main__":
    main()
