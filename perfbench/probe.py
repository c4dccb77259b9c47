"""Spans and counters around swan_aircomp's public functions.

A Probe swaps module attributes for wrappers, so every call is seen as its
caller sees it: ``swan_aircomp.optimizers.segment_gain_matrix`` is the name
the optimizers look up, ``swan_aircomp.harness.sa2_ao`` the one the harness
calls.  Nothing under ``src/`` changes, and private helpers (``_ao_engine``,
``_mse_of_matrix``, ``_closed_form_phase``) are not wrapped: their cost is
the self time of the public function that calls them.

A timed probe records one span per call, aggregated as it closes: calls,
busy time (span duration) and self time (duration minus the spans it
caused), plus per-layer counters read from the arguments and results.  An
untimed probe only captures the optimizer records, one per results.csv
cell, for the correctness gate.  Leaving the context puts every original
back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (consumer module, attribute) pairs wrapped in a traced run.
TRACED = (
    ("harness", "run_experiment"),
    ("harness", "aggregate"),
    ("harness", "emit_csv"),
    ("harness", "emit_plot"),
    ("harness", "write_metadata"),
    ("harness", "sample_users"),
    ("harness", "ss_two_stage"),
    ("harness", "pass_baseline"),
    ("harness", "sa1_ao"),
    ("harness", "sa2_ao"),
    ("harness", "sa1_joint_exhaustive"),
    ("harness", "sa2_joint_exhaustive"),
    ("optimizers", "segment_gain_matrix"),
    ("optimizers", "feasible_grid"),
    ("channel", "segment_gain_matrix"),
)

# Optimizer entry points the harness calls once per results.csv row.
CELLS = (
    "ss_two_stage",
    "pass_baseline",
    "sa1_ao",
    "sa2_ao",
    "sa1_joint_exhaustive",
    "sa2_joint_exhaustive",
)

class Probe:
    """Wraps the public layer functions; use as a context manager."""

    def __init__(self, timed: bool):
        self.timed = timed
        # layer name ("channel.segment_gain_matrix") -> counter -> value
        self.layers: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        # (layer, cfg, scene, RunRecord) per optimizer call, in call order
        self.cells: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        # distinct gain rows: (layout key, kappa, segment) -> psi values,
        # kept for the current user drop only
        self._rows: dict[tuple, set] = {}
        self._users = None
        self._scene = None
        self._layout_key = None

    def __enter__(self) -> "Probe":
        names = TRACED if self.timed else [("harness", name) for name in CELLS]
        for module_name, attr in names:
            module = importlib.import_module(f"swan_aircomp.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._flush_rows()

    def _wrap(self, fn):
        name = fn.__name__
        layer = f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"
        cell = name in CELLS

        if not self.timed:
            @functools.wraps(fn)
            def capture(cfg, scene, *args, **kwargs):
                rec = fn(cfg, scene, *args, **kwargs)
                self.cells.append((layer, cfg, scene, rec))
                return rec
            return capture

        stats = self.layers[layer]
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            entered = clock()
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
            stats["calls"] += 1
            stats["busy_ns"] += t1 - t0
            stats["self_ns"] += t1 - t0 - child
            if hook is not None:
                hook(self, stats, result, signature.bind(*args, **kwargs))
            if cell:
                self.cells.append((layer, args[0], args[1], result))
            if stack:
                # The caller's self time excludes this call and its bookkeeping.
                stack[-1] += clock() - entered
            return result

        return span

    def _note_rows(self, scene, kappa: float, segment: int, psi) -> None:
        if scene is not self._scene:
            users = scene.users.positions.tobytes()
            if users != self._users:
                self._flush_rows()
                self._users = users
            layout = scene.layout
            self._scene = scene
            self._layout_key = (layout.feed_x.tobytes(), layout.seg_length, layout.height)
        key = (self._layout_key, kappa, segment)
        values = np.atleast_1d(np.asarray(psi, dtype=float)).tolist()
        self._rows.setdefault(key, set()).update(values)

    def _flush_rows(self) -> None:
        if self._rows:
            gains = self.layers["channel.segment_gain_matrix"]
            gains["distinct_rows"] += sum(len(v) for v in self._rows.values())
            self._rows.clear()
        self._users = None
        self._scene = None


def _gain_hook(probe: Probe, stats, result, bound) -> None:
    a = bound.arguments
    stats["rows"] += result.shape[0]
    stats["elems"] += result.size
    probe._note_rows(a["scene"], a["cfg"].kappa, a["segment"], a["psi"])


def _record_hook(probe: Probe, stats, rec, bound) -> None:
    stats["evaluations"] += rec.evaluations
    trace = rec.mse_trace
    stats["trace_rises"] += int(any(y > x for x, y in zip(trace, trace[1:])))


def _ao_hook(probe: Probe, stats, rec, bound) -> None:
    bound.apply_defaults()
    a = bound.arguments
    stats["evaluations"] += rec.evaluations
    stats["sweeps"] += rec.iterations
    stats["cap_hits"] += int(rec.iterations >= a["max_iters"])
    trace = rec.mse_trace
    stats["useful_sweeps"] += sum(1 for x, y in zip(trace, trace[1:]) if x - y >= a["tol"])


def _csv_hook(probe: Probe, stats, result, bound) -> None:
    """Bytes written, less the wall-clock ``elapsed`` column so the count repeats."""
    a = bound.arguments
    if a.get("include_elapsed"):
        lines = Path(a["path"]).read_text().splitlines()
        stats["bytes"] += sum(len(line.rsplit(",", 1)[0]) + 1 for line in lines)
    else:
        stats["bytes"] += os.path.getsize(a["path"])


_HOOKS = {
    "segment_gain_matrix": _gain_hook,
    "ss_two_stage": _record_hook,
    "pass_baseline": _record_hook,
    "sa1_joint_exhaustive": _record_hook,
    "sa2_joint_exhaustive": _record_hook,
    "sa1_ao": _ao_hook,
    "sa2_ao": _ao_hook,
    "emit_csv": _csv_hook,
}


def counters(probe: Probe) -> dict[str, int]:
    """Every exact counter, flattened as ``layer.counter`` (no times)."""
    return {
        f"{layer}.{name}": value
        for layer, stats in sorted(probe.layers.items())
        for name, value in sorted(stats.items())
        if not name.endswith("_ns")
    }
