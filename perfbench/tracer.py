"""In-memory span tracer that wraps vincstat's public functions from outside.

Each function is wrapped at the module attribute its caller looks it up
through (``vincstat.cli.run_experiment``, ``vincstat.moments.joint_probability``
and so on), so the program itself is not edited.  A span records its name,
the op it belongs to, its start and end, and the span that caused it.
Per-pair functions are aggregated into per-name totals instead of keeping
one span per call.  Self time is a span's duration minus the time its
wrapped children took, their wrappers included; calls are nested and
single-threaded, so children never overlap.  The wrappers' own
bookkeeping is summed apart, as wrapper_s.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (defining module, attribute, modules whose global the callers read,
#  traced name, aggregate instead of keeping spans)
WRAPS = [
    ("vincstat.sampling", "sample_uniform_batch", ["vincstat.montecarlo"],
     "sampling.sample_uniform_batch", False),
    ("vincstat.positions", "position_matrix", ["vincstat.montecarlo"],
     "positions.position_matrix", False),
    ("vincstat.positions", "count_occurrences_batch", ["vincstat.montecarlo"],
     "positions.count_occurrences_batch", False),
    ("vincstat.montecarlo", "run_experiment", ["vincstat.cli"],
     "montecarlo.run_experiment", False),
    ("vincstat.montecarlo", "sample_cumulants", ["vincstat.montecarlo"],
     "montecarlo.sample_cumulants", False),
    ("vincstat.montecarlo", "empirical_kolmogorov", ["vincstat.montecarlo"],
     "montecarlo.empirical_kolmogorov", False),
    ("vincstat.montecarlo", "fit_rate", ["vincstat.cli"],
     "montecarlo.fit_rate", False),
    ("vincstat.moments", "variance_polynomial", ["vincstat.cli", "vincstat.montecarlo"],
     "moments.variance_polynomial", False),
    ("vincstat.moments", "exact_variance_at",
     ["vincstat.cli", "vincstat.montecarlo", "vincstat.moments"],
     "moments.exact_variance_at", False),
    ("vincstat.moments", "joint_probability", ["vincstat.moments"],
     "moments.joint_probability", True),
    ("vincstat.depgraph", "graph_summary", ["vincstat.cli"],
     "depgraph.graph_summary", False),
]

ROOT = "cli"
_NOTHING = object()
NAMES = [ROOT] + [w[3] for w in WRAPS]


def _count_work(tracer: "Tracer", name: str, args, result) -> None:
    c = tracer.counters
    if name == "sampling.sample_uniform_batch":
        c["sampling.perms"] += int(result.shape[0])
    elif name == "positions.position_matrix":
        c["positions.sets"] += int(result.shape[0])
    elif name == "positions.count_occurrences_batch":
        perms, posmat = args[0], args[2]
        c["positions.cells"] += int(perms.shape[0]) * int(posmat.shape[0])
    elif name == "moments.joint_probability":
        cls, pi = args[0], args[1]
        # The swap-symmetric class key the joint-probability cache is
        # keyed by, recomputed here so no private cache is read.
        tracer.joint_keys.add(
            (pi.values, cls.t) + tuple(sorted((cls.i_mask, cls.j_mask)))
        )
    elif name == "depgraph.graph_summary":
        if 1 < result.j < result.k:
            c["depgraph.scan_vertices"] += int(result.N)


class Tracer:
    """Spans and per-name totals for one pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, parent id, op, name, start, end)
        self.totals = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in NAMES}
        self.counters = {
            "sampling.perms": 0,
            "positions.sets": 0,
            "positions.cells": 0,
            "depgraph.scan_vertices": 0,
        }
        self.joint_keys: set[tuple] = set()
        self.wrapper_s = 0.0           # bookkeeping time outside every span
        self.op = -1
        self._stack: list[list] = []   # open spans: [id, child seconds]
        self._next_id = 0
        self._unseen_s = 0.0           # per-call wrapper cost no timer sees

    def wrap(self, name: str, fn, aggregate: bool = False):
        """fn wrapped so that each call runs inside a span called name.

        The span covers fn alone.  The wrapper's own bookkeeping (span
        records, work counters, the joint-probability key) is timed too
        and goes to wrapper_s; the parent is charged the whole wrapper
        time as child time, so that bookkeeping never lands in any
        function's self time.
        """
        total = self.totals[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            result = _NOTHING
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                total["errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                total["calls"] += 1
                total["self_s"] += end - start - frame[1]
                if not aggregate:
                    self.spans.append((span_id, parent[0] if parent else None,
                                       self.op, name, start, end))
                if result is not _NOTHING:
                    _count_work(self, name, args, result)
                left = perf_counter()
                self.wrapper_s += (left - entered) - (end - start) + self._unseen_s
                if parent is not None:
                    parent[1] += left - entered + self._unseen_s
            return result

        return wrapper

    def _calibrate(self, rounds: int = 5, calls: int = 20_000) -> float:
        """Median per-call cost of entering and leaving a wrapper outside
        its first and last timer reading, measured on a no-op with a
        throwaway tracer: time seen from outside, minus the time charged
        to the parent, minus the bare loop."""
        probe = Tracer()
        wrapped = probe.wrap(ROOT, lambda a, b: None, aggregate=True)
        estimates = []
        for _ in range(rounds):
            probe._stack[:] = [[0, 0.0]]
            start = perf_counter()
            for _ in range(calls):
                wrapped(1, 2)
            outside = perf_counter() - start
            start = perf_counter()
            for _ in range(calls):
                pass
            loop = perf_counter() - start
            estimates.append((outside - probe._stack[0][1] - loop) / calls)
        return max(0.0, sorted(estimates)[rounds // 2])

    def install(self) -> None:
        """Replace each wrapped function at every lookup site."""
        self._unseen_s = self._calibrate()
        for module_name, attr, sites, name, aggregate in WRAPS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original, aggregate)
            for site in sites:
                setattr(importlib.import_module(site), attr, wrapper)

    def summary(self) -> dict:
        return {
            "totals": self.totals,
            "counters": self.counters,
            "joint_distinct": len(self.joint_keys),
            "wrapper_s": self.wrapper_s,
            "unseen_per_call_s": self._unseen_s,
            "spans": [list(s) for s in self.spans],
        }
