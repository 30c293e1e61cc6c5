"""Timing spans around the calls into each eppsim module, set from outside.

Nothing under ``src/`` is edited.  In the traced process only, the public
functions a workload reaches are replaced, in every eppsim module that holds
them, by wrappers that record a span (name, start, end, the span that caused
it, and what the call returned).  Spans stay in memory and are written out
when the run ends.  A layer's time is its self time: the span's duration
minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import eppsim.dynamics
import eppsim.montecarlo
import eppsim.recurrence
from eppsim.montecarlo import RoundStats
from eppsim.noisemodels import BinaryNoiseModel, NoiseModel


def _fixpoint_info(args, result):
    return {"iterations": result.iterations, "converged": result.converged,
            "failure": result.failure}


def _round_info(args, result):
    return {"pairs_in": len(args[0]), "pairs_out": len(result)}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._probe_starts: list[float] = []

    def _open(self, name: str, start: float) -> dict:
        span = {"id": len(self.spans), "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": start, "end": None}
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, perf_counter())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if info is not None:
                span.update(info(args, result))
            return result

        return traced

    def probed(self, family):
        """The family callable for ``find_critical``: each call starts a probe."""

        def probe(param):
            self._probe_starts.append(perf_counter())
            return family(param)

        return probe

    def end_probes(self):
        """Close the probes of one search; a probe lasts until the next call."""
        starts = self._probe_starts + [perf_counter()]
        for start, end in zip(starts, starts[1:]):
            self._open("dynamics.probe", start)["end"] = end
        self._probe_starts = []

    @contextmanager
    def installed(self):
        """Replace the traced functions for the duration of the block."""
        functions = [
            (eppsim.recurrence.generate_map, "recurrence.generate_map", None),
            (eppsim.dynamics.iterate_to_fixpoint, "dynamics.fixpoint", _fixpoint_info),
            (eppsim.montecarlo.init_ensemble, "montecarlo.init", None),
            (eppsim.montecarlo.purification_round, "montecarlo.round", _round_info),
        ]
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "eppsim"]
        saved = []
        for fn, name, info in functions:
            wrapper = self.wrap(name, fn, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        # Channel construction: the dataclass __init__ calls __post_init__,
        # which validates the table.
        for cls in (NoiseModel, BinaryNoiseModel):
            saved.append((cls, "__post_init__", cls.__dict__["__post_init__"]))
            cls.__post_init__ = self.wrap("noisemodels.build", cls.__post_init__)
        saved.append((RoundStats, "of", RoundStats.__dict__["of"]))
        RoundStats.of = classmethod(self.wrap("montecarlo.stats", RoundStats.of.__func__))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def self_times(self) -> dict[int, float]:
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        by_name: dict[str, list[dict]] = {}
        for s in self.spans:
            by_name.setdefault(s["name"], []).append(s)

        def calls(name):
            return len(by_name.get(name, []))

        def seconds(name):
            return float(sum(own[s["id"]] for s in by_name.get(name, [])))

        probes = [s["end"] - s["start"] for s in by_name.get("dynamics.probe", [])]
        fix = by_name.get("dynamics.fixpoint", [])
        iters = [s["iterations"] for s in fix]
        rounds = by_name.get("montecarlo.round", [])
        couples = sum(r["pairs_in"] // 2 for r in rounds)
        kept = sum(r["pairs_out"] - r["pairs_in"] % 2 for r in rounds)
        fixpoint_s = seconds("dynamics.fixpoint")
        return {
            "noisemodels.build_calls": calls("noisemodels.build"),
            "noisemodels.build_s": seconds("noisemodels.build"),
            "recurrence.generate_map_calls": calls("recurrence.generate_map"),
            "recurrence.generate_map_s": seconds("recurrence.generate_map"),
            "dynamics.probes": len(probes),
            "dynamics.probe_p50_s": float(np.median(probes)) if probes else 0.0,
            "dynamics.probe_max_s": max(probes, default=0.0),
            "dynamics.fixpoint_calls": len(fix),
            "dynamics.fixpoint_iters": sum(iters),
            "dynamics.fixpoint_iters_p99": float(np.percentile(iters, 99)) if iters else 0.0,
            "dynamics.fixpoint_s": fixpoint_s,
            "dynamics.ns_per_iter": 1e9 * fixpoint_s / sum(iters) if iters else 0.0,
            "dynamics.budget_hits": sum(
                not s["converged"] and s["failure"] is None for s in fix
            ),
            "dynamics.converged_frac": (
                sum(s["converged"] for s in fix) / len(fix) if fix else 0.0
            ),
            "montecarlo.init_s": seconds("montecarlo.init"),
            "montecarlo.round_calls": len(rounds),
            "montecarlo.round_s": seconds("montecarlo.round"),
            "montecarlo.stats_s": seconds("montecarlo.stats"),
            "montecarlo.pair_rounds": sum(r["pairs_in"] for r in rounds),
            "montecarlo.keep_frac": kept / couples if couples else 0.0,
        }
