"""Runtime limits, overridable through environment variables.

The limits are read at call time so test harnesses can adjust them with
plain environment manipulation; nothing is cached at import.
"""

from __future__ import annotations

import os

from .errors import MalformedLimit

# The exact variance sums over the unordered overlap classes of two
# intersecting k-sets (union size t <= 2k - 1): at most 716 for k = 5 and
# 4033 for k = 6.  The k limit caps that sum; VINCSTAT_MAX_K sets it,
# and the unsafe flag raises it to at least UNSAFE_MAX_EXACT_K.
DEFAULT_MAX_EXACT_K = 5
UNSAFE_MAX_EXACT_K = 6

# Brute-force oracles enumerate all n! permutations.
DEFAULT_ORACLE_MAX_N = 9

# Cap on materialized position listings / position matrices.
DEFAULT_LISTING_CAP = 10**6

# Cap on dependency-graph vertex counts for the gap-composition DP of
# patterns with neither a single block nor all blocks of size one (those
# two shapes have closed forms).
DEFAULT_VERTEX_CAP = 10**7


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise MalformedLimit(f"{name}={raw!r} is not an integer") from None


def max_exact_k(unsafe: bool = False) -> int:
    """Largest pattern size accepted by the exact-moment routines:
    VINCSTAT_MAX_K, raised (never lowered) to UNSAFE_MAX_EXACT_K by unsafe."""
    limit = _env_int("VINCSTAT_MAX_K", DEFAULT_MAX_EXACT_K)
    return max(limit, UNSAFE_MAX_EXACT_K) if unsafe else limit


def max_joint_t() -> int:
    """Largest union size at the exact-moment limit.  No longer enforced
    (a joint probability costs O(k) at any t); the benchmark records it."""
    return 2 * max_exact_k() - 1


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    reports one, else os.cpu_count()."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def oracle_max_n() -> int:
    """Largest host size n for full-S_n brute-force enumeration."""
    return _env_int("VINCSTAT_ORACLE_MAX_N", DEFAULT_ORACLE_MAX_N)


def listing_cap() -> int:
    """Largest position listing / position matrix that may be materialized."""
    return _env_int("VINCSTAT_LISTING_CAP", DEFAULT_LISTING_CAP)


def vertex_cap() -> int:
    """Largest dependency-graph vertex count for the gap-composition DP."""
    return _env_int("VINCSTAT_VERTEX_CAP", DEFAULT_VERTEX_CAP)
