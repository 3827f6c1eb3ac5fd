"""Spans recorded around the package's public functions, from outside it.

The tracer wraps each function named in LAYERS and installs the wrapper on
every ``addmeta`` module attribute that holds the original, because modules
import one another's names directly (``bias_study`` calls its own
``sim_effect`` binding, ``simulate`` its own ``substream``).  The package
itself is not modified.  Spans stay in memory until ``write``.

A span is ``[name, start, end, parent, op, work]``: ``parent`` is the index
of the enclosing span (-1 for none), ``op`` the operation the benchmark was
running, and ``work`` a count read from the call's arguments or result.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

IO_READS = ("read_study_summaries", "read_effects", "read_or_records", "read_scenario")
IO_WRITES = ("write_effects", "write_meta_result", "write_combined_ors", "write_bias_reports")

# layer name -> (module, function)
LAYERS = {
    "cli.main": ("addmeta.cli", "main"),
    "simulate.sim_effect": ("addmeta.simulate", "sim_effect"),
    "simulate.additive_regression": ("addmeta.simulate", "additive_regression"),
    "rng.substream": ("addmeta._rng", "substream"),
    "rng.derive_seed": ("addmeta._rng", "derive_seed"),
    "bias_study.run_scenario": ("addmeta.bias_study", "run_scenario"),
    "bias_study.sample_standardized": ("addmeta.bias_study", "sample_standardized"),
    "bias_study.perturb_study_params": ("addmeta.bias_study", "perturb_study_params"),
    "effects.crude_effect": ("addmeta.effects", "crude_effect"),
    "effects.effect_from_d": ("addmeta.effects", "effect_from_d"),
    "pooling.pool_random_effects": ("addmeta.pooling", "pool_random_effects"),
    "odds_recovery.recover_tables": ("addmeta.odds_recovery", "recover_tables"),
    "odds_recovery.combined_or": ("addmeta.odds_recovery", "combined_or"),
    **{f"io.{name}": ("addmeta.io", name) for name in IO_READS + IO_WRITES},
}


def _iterations_subjects(args, kwargs, result):
    summary, config = args[0], args[1] if len(args) > 1 else kwargs["config"]
    return (config.iterations, config.iterations * summary.n_total)


def _rows(records) -> int:
    return len(records) if isinstance(records, list) else 1


# layer name -> work count taken from (args, kwargs, result)
WORK = {
    "simulate.sim_effect": _iterations_subjects,
    "bias_study.run_scenario": lambda a, k, r: (r.retries, r.scenario.mc_reps),
    "odds_recovery.recover_tables": lambda a, k, r: len(r),
    "odds_recovery.combined_or": lambda a, k, r: r.iterations_used,
    **{f"io.{name}": (lambda a, k, r: _rows(r)) for name in IO_READS},
    **{f"io.{name}": (lambda a, k, r: _rows(a[1])) for name in IO_WRITES},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _wrap(self, name, function):
        work = WORK.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "addmeta" or n.startswith("addmeta.")]
        for name, (module_name, attribute) in LAYERS.items():
            original = getattr(importlib.import_module(module_name), attribute)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - origin, e - origin, p, op, w] for n, s, e, p, op, w in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op", "work"],
                                    "spans": rows}), encoding="utf-8")


def layer_totals(spans: list[list], first: int) -> dict[str, dict]:
    """Self time, wall time, calls and work counts per span name over ``spans[first:]``.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because calls are nested.
    """
    child = {}
    for span in spans[first:]:
        if span[3] >= first:
            child[span[3]] = child.get(span[3], 0.0) + span[2] - span[1]
    totals: dict[str, dict] = {}
    for index in range(first, len(spans)):
        name, start, end, _, _, work = spans[index]
        entry = totals.setdefault(name, {"self_s": 0.0, "wall_s": 0.0, "calls": 0, "work": []})
        entry["self_s"] += end - start - child.get(index, 0.0)
        entry["wall_s"] += end - start
        entry["calls"] += 1
        if work is not None:
            entry["work"].append(work)
    return totals
