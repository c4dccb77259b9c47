"""Layered benchmark of the swan_aircomp experiment harness.

Each workload is a CLI experiment kind driven through the public API
(``parse_config`` then ``execute``) in batches of a few user drops.  Batch b
of a run with ``--seed s`` uses master seed ``s + BATCH_SEED_STRIDE * b``, so
batch 0 of seed 1 is the harness default.  The first ``fixed_batches`` of a
workload run on every run whatever the time budget; the quality metrics, the
reference comparison and the traced run all use exactly that set, so they
repeat for a given seed however fast the code is.

``--trace 0`` times untraced batches until ``--seconds`` of ``execute`` wall
time are spent and reports the end-to-end metrics; only the fixed set's rows
are kept, so the process's peak memory does not grow with the number of
batches a run gets through.  ``--trace 1`` runs the
fixed set once under a timed Probe and once without, repeating the pair
while another fits in ``--seconds``, and reports the per-layer metrics.  The
last stdout line is one JSON object; the exit code is 1 when the
correctness gate fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from swan_aircomp import evaluate_placement, harness, parse_config
from probe import TRACED, Probe, counters

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

BATCH_SEED_STRIDE = 1_000_003
# Reference aggregates may move by this relative amount (last-bit changes
# from reordered float arithmetic); a coarser search moves them far more.
REFERENCE_RTOL = 1e-6
# final_mse against an independent evaluate_placement recomputation.
RECOMPUTE_RTOL = 1e-9
# An SA1 joint oracle may undercut its AO run by no more than this.
ORACLE_ATOL = 1e-12
# Optimizers whose mse_trace is an accept-only descent, one entry per sweep.
# ss_two_stage's two entries are its stage-1 midpoint probe and its stage-2
# grid minimum, which may lie above the probe; it is counted, not failed
# (optimizers.ss_two_stage.trace_rises).
DESCENT_LAYERS = ("optimizers.sa1_ao", "optimizers.sa2_ao")
# Fresh interpreters timed per run for setup_s, spread evenly over the run.
# setup_s is the fastest of them: set-up is short, fixed work, and a busy
# shared host only ever adds to it.  On a 2-core shared host, four rounds of
# 21 had medians of 71-105 ms but minima of 65-74 ms.
SETUP_REPEATS = 21


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    overrides: dict
    drops_per_batch: int
    fixed_batches: int

    def spec(self, seed: int, batch: int):
        values = dict(self.overrides)
        values["n_drops"] = self.drops_per_batch
        values["master_seed"] = seed + BATCH_SEED_STRIDE * batch
        return parse_config(kind=self.kind, overrides=values)


# Why each workload exists is in README.md.  Fixed sets hold at least 100
# drop units so that drop_ms_tail10 averages at least ten of them.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-k-lossy", "sweep-k", {"m_segments": 5, "kappa_db_per_m": "0,0.08"}, 2, 7),
        Workload("oracle-check", "oracle-check", {}, 20, 15),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("drops_per_s", "1/s"),
    ("drop_ms_tail10", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
    ("mse_mean.SA1", "mse"),
    ("mse_mean.SA2", "mse"),
)

_AO_STATS = (
    ("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("evaluations", "count"),
    ("sweeps", "count"), ("cap_hits", "count"), ("useful_sweep_ratio", "ratio"),
)
PER_LAYER = (
    ("channel.segment_gain_matrix.calls", "count"),
    ("channel.segment_gain_matrix.elems", "count"),
    ("channel.segment_gain_matrix.busy_s", "s"),
    ("channel.segment_gain_matrix.ns_per_elem", "ns"),
    ("channel.segment_gain_matrix.distinct_ratio", "ratio"),
    ("geometry.feasible_grid.calls", "count"),
    ("geometry.feasible_grid.busy_s", "s"),
    *((f"optimizers.{fn}.{stat}", unit) for fn in ("sa1_ao", "sa2_ao") for stat, unit in _AO_STATS),
    *((f"optimizers.{fn}.{stat}", unit)
      for fn in ("ss_two_stage", "pass_baseline")
      for stat, unit in (("busy_s", "s"), ("evaluations", "count"))),
    ("optimizers.ss_two_stage.trace_rises", "count"),
    *((f"optimizers.{fn}.{stat}", unit)
      for fn in ("sa1_joint_exhaustive", "sa2_joint_exhaustive")
      for stat, unit in (("busy_s", "s"), ("self_s", "s"), ("evaluations", "count"))),
    ("geometry.sample_users.busy_s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.aggregate.busy_s", "s"),
    ("harness.emit_csv.busy_s", "s"),
    ("harness.emit_plot.busy_s", "s"),
    ("harness.write_metadata.busy_s", "s"),
    ("harness.emit_csv.bytes", "B"),
    ("trace.overhead_s", "s"),
    ("mse_mean.SS", "mse"),
    ("mse_mean.PASS", "mse"),
    ("oracle_gap.SA1", "ratio"),
    ("oracle_gap.SA2", "ratio"),
)


@dataclass
class Batch:
    """One ``execute`` call: its wall time, rows and gate findings."""

    wall: float
    attempted: int
    failures: list = field(default_factory=list)
    # Set when the batch raised or its rows do not match its optimizer runs.
    all_failed: bool = False
    rows: list = field(default_factory=list)
    units_ms: list = field(default_factory=list)
    csv_bytes: bytes = b""

    @property
    def failed(self) -> int:
        return self.attempted if self.all_failed else len(self.failures)

    def drop_outputs(self) -> None:
        """Forget the rows and CSV bytes once the batch has been gated."""
        self.rows = []
        self.csv_bytes = b""


def expected_cells(spec) -> int:
    per_run = 2 if spec.kind == "oracle-check" else 1
    return len(spec.sweep) * spec.n_drops * len(spec.schemes) * len(spec.kappa_db_per_m) * per_run


def _strip_last_column(text: str) -> str:
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def run_batch(workload: Workload, seed: int, index: int, out_dir: Path, probe: Probe,
              recompute: bool = False) -> Batch:
    """Execute one batch under ``probe`` and apply the correctness gate to it."""
    spec = workload.spec(seed, index)
    batch = Batch(wall=0.0, attempted=expected_cells(spec))
    with probe:
        t0 = time.perf_counter()
        try:
            harness.execute(spec, out_dir, quiet=True, include_elapsed=True)
        except Exception as exc:  # a batch that raised fails all its cells
            batch.failures.append(f"batch {index} raised {type(exc).__name__}: {exc}")
            batch.all_failed = True
        batch.wall = time.perf_counter() - t0
    cells, probe.cells = probe.cells, []
    if batch.failures:
        return batch

    results = (out_dir / "results.csv").read_text()
    batch.rows = list(csv.DictReader(results.splitlines()))
    batch.csv_bytes = (_strip_last_column(results) + (out_dir / "aggregates.csv").read_text()).encode()
    units: dict[tuple, float] = {}
    for row in batch.rows:
        key = (row["sweep_value"], row["drop"])
        units[key] = units.get(key, 0.0) + float(row["elapsed"])
    batch.units_ms = [v * 1e3 for v in units.values()]

    if not (len(cells) == len(batch.rows) == batch.attempted):
        batch.failures.append(
            f"batch {index}: {len(batch.rows)} rows and {len(cells)} optimizer runs,"
            f" expected {batch.attempted}"
        )
        batch.all_failed = True
        batch.drop_outputs()
        return batch
    for i, ((layer, cfg, scene, rec), row) in enumerate(zip(cells, batch.rows)):
        problem = _check_cell(layer, rec, scene.k, float(row["final_mse"]))
        if problem is None and recompute:
            problem = _check_recompute(cfg, scene, rec)
        if problem is None and recompute and layer == "optimizers.sa1_joint_exhaustive":
            ao_layer, _, _, ao = cells[i - 1]
            if ao_layer == "optimizers.sa1_ao" and rec.final_mse > ao.final_mse + ORACLE_ATOL:
                problem = f"SA1 oracle {rec.final_mse!r} worse than its AO run {ao.final_mse!r}"
        if problem is not None:
            batch.failures.append(f"batch {index} {row['scheme']} drop {row['drop']}"
                                  f" sweep {row['sweep_value']}: {problem}")
    return batch


def _check_cell(layer: str, rec, k: int, final: float):
    if not math.isfinite(final):
        return f"final_mse {final!r} is not finite"
    if not 0.0 <= final <= k:
        return f"final_mse {final!r} outside [0, {k}]"
    if layer in DESCENT_LAYERS and _rises(rec.mse_trace):
        return "MSE trace increases"
    return None


def _rises(trace) -> bool:
    return any(y > x for x, y in zip(trace, trace[1:]))


def _check_recompute(cfg, scene, rec):
    again = evaluate_placement(cfg, scene, rec.placement)
    if abs(again - rec.final_mse) > RECOMPUTE_RTOL * abs(again):
        return f"final_mse {rec.final_mse!r} but evaluate_placement gives {again!r}"
    return None


def measure_untraced(workload: Workload, seed: int, seconds: float, out_dir: Path) -> tuple:
    """Fresh batches until the fixed set is done and ``seconds`` of execute time are spent.

    The ``SETUP_REPEATS`` set-up timings are taken between batches, spread
    evenly over the same ``seconds``, so that setup_s and the batch times see
    the host at the same speed.  Returns the batches and the set-up timings.
    """
    batches: list[Batch] = []
    setups: list[float] = []
    spent = 0.0
    while len(batches) < workload.fixed_batches or spent < seconds:
        while len(setups) < SETUP_REPEATS * min(1.0, spent / seconds):
            setups.append(setup_seconds(workload, seed))
        batch = run_batch(workload, seed, len(batches), out_dir, Probe(timed=False))
        if len(batches) >= workload.fixed_batches:
            batch.drop_outputs()
        batches.append(batch)
        spent += batch.wall
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(workload, seed))
    return batches, setups


def run_fixed_set(workload: Workload, seed: int, out_dir: Path, probe: Probe, recompute: bool) -> list:
    return [run_batch(workload, seed, b, out_dir, probe, recompute)
            for b in range(workload.fixed_batches)]


def measure_traced(workload: Workload, seed: int, seconds: float, out_dir: Path) -> list:
    """(timed probe, traced batches, untraced batches) per pass over the fixed set."""
    passes = []
    start = time.perf_counter()
    pair = 0.0
    while not passes or time.perf_counter() - start + pair <= seconds:
        t0 = time.perf_counter()
        probe = Probe(timed=True)
        traced = run_fixed_set(workload, seed, out_dir, probe, recompute=True)
        plain = run_fixed_set(workload, seed, out_dir, Probe(timed=False), recompute=False)
        passes.append((probe, traced, plain))
        pair = time.perf_counter() - t0
    return passes


# --- metrics ---------------------------------------------------------------


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def mse_mean(batches: list, scheme: str) -> float:
    return _mean([float(r["final_mse"]) for b in batches for r in b.rows if r["scheme"] == scheme])


def oracle_gap(batches: list, scheme: str) -> float:
    """Mean (AO - oracle) / oracle over the drops that ran both."""
    gaps = []
    for b in batches:
        by_key = {(r["scheme"], r["kappa"], r["drop"]): float(r["final_mse"]) for r in b.rows}
        for (name, kappa, drop), ao in by_key.items():
            oracle = by_key.get((name + "-oracle", kappa, drop))
            if name == scheme and oracle is not None:
                gaps.append((ao - oracle) / oracle)
    return _mean(gaps)


def reference_aggregates(batches: list) -> dict:
    """Mean final_mse per (scheme, kappa, sweep value) over the fixed set."""
    groups: dict[str, list] = {}
    for b in batches:
        for r in b.rows:
            key = f"{r['scheme']}|{float(r['kappa']):g}|{float(r['sweep_value']):g}"
            groups.setdefault(key, []).append(float(r["final_mse"]))
    return {key: statistics.fmean(v) for key, v in groups.items()}


def check_reference(workload: Workload, seed: int, batches: list) -> list:
    path = REFERENCE_DIR / f"{workload.name}.json"
    if not path.exists():
        return [f"no reference aggregates at {path.name}"]
    ref = json.loads(path.read_text())
    if seed != ref["seed"]:
        return []
    got = reference_aggregates(batches)
    want = ref["aggregates"]
    if set(got) != set(want):
        return [f"reference groups differ: {sorted(set(got) ^ set(want))[:5]}"]
    return [f"aggregate {key}: {got[key]!r} vs reference {want[key]!r}"
            for key in want
            if abs(got[key] - want[key]) > ref["rtol"] * abs(want[key])]


def write_reference(workload: Workload, seed: int, batches: list) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload.name}.json"
    body = {"workload": workload.name, "seed": seed, "fixed_batches": workload.fixed_batches,
            "drops_per_batch": workload.drops_per_batch, "rtol": REFERENCE_RTOL,
            "aggregates": reference_aggregates(batches)}
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    return path


def sha256_of(batches: list) -> str:
    h = hashlib.sha256()
    for b in batches:
        h.update(b.csv_bytes)
    return h.hexdigest()


# Layouts are resolved the way run_experiment resolves them.
_SETUP_SCRIPT = """
import time
t0 = time.perf_counter()
import json, sys
from swan_aircomp import ServiceRegion, build_layout, harness, parse_config
spec = parse_config(kind=sys.argv[1], overrides=json.loads(sys.argv[2]))
for value in spec.sweep:
    m, length, _ = harness._sweep_scene_params(spec, value)
    build_layout(m, length, ServiceRegion(spec.d_x, spec.d_y), spec.height)
print(time.perf_counter() - t0)
"""


def setup_seconds(workload: Workload, seed: int) -> float:
    """Seconds a fresh interpreter takes to import the package and lay out a spec.

    The child times itself from its first statement, so the spawn and the
    interpreter's own start-up, which the package cannot change, are left out.
    """
    values = dict(workload.overrides, n_drops=workload.drops_per_batch, master_seed=seed)
    cmd = [sys.executable, "-c", _SETUP_SCRIPT, workload.kind, json.dumps(values)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120,
                          capture_output=True, text=True)
    return float(done.stdout.split()[-1])


def end_to_end_metrics(workload: Workload, batches: list, setups: list,
                       failed: int, attempted: int) -> dict:
    units = sorted(u for b in batches for u in b.units_ms)
    fixed = batches[: workload.fixed_batches]
    values = {
        "setup_s": min(setups),
        "drops_per_s": len(units) / sum(b.wall for b in batches),
        # Mean of the slowest tenth, not its 90th percentile: on sweep-k-lossy
        # about a tenth of the units (mostly K = 2) are far slower than the rest,
        # so the percentile jumps across that gap from run to run.
        "drop_ms_tail10": statistics.fmean(units[-(len(units) // 10):]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - failed / attempted,
        "mse_mean.SA1": mse_mean(fixed, "SA1"),
        "mse_mean.SA2": mse_mean(fixed, "SA2"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _layer_value(name: str, probes: list) -> float:
    layer, stat = name.rsplit(".", 1)
    per_pass = [p.layers.get(layer, {}) for p in probes]

    def ratio(num: str, den: str) -> float:
        return statistics.median(s.get(num, 0) / s[den] if s.get(den) else 0.0 for s in per_pass)

    if stat in ("busy_s", "self_s"):
        return statistics.median(s.get(stat[:-2] + "_ns", 0) for s in per_pass) / 1e9
    if stat == "ns_per_elem":
        return ratio("busy_ns", "elems")
    if stat == "distinct_ratio":
        return ratio("distinct_rows", "rows")
    if stat == "useful_sweep_ratio":
        return ratio("useful_sweeps", "sweeps")
    return per_pass[0].get(stat, 0)


def per_layer_metrics(passes: list) -> dict:
    probes = [p for p, _, _ in passes]
    traced = passes[0][1]
    overhead = statistics.median(
        sum(b.wall for b in t) - sum(b.wall for b in u) for _, t, u in passes
    )
    values = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = overhead
        elif name.startswith("mse_mean."):
            value = mse_mean(traced, name.split(".", 1)[1])
        elif name.startswith("oracle_gap."):
            value = oracle_gap(traced, name.split(".", 1)[1])
        else:
            value = _layer_value(name, probes)
        values[name] = {"value": value, "unit": unit}
    return values


def trace_findings(passes: list, originals: dict) -> list:
    """Traced runs must write the untraced bytes, repeat counters and restore every wrap."""
    problems = []
    first = counters(passes[0][0])
    for i, (probe, traced, plain) in enumerate(passes):
        if sha256_of(traced) != sha256_of(plain):
            problems.append(f"pass {i}: traced CSVs differ from untraced CSVs")
        if counters(probe) != first:
            problems.append(f"pass {i}: counters differ from pass 0")
    for (module_name, attr), fn in originals.items():
        if getattr(importlib.import_module(f"swan_aircomp.{module_name}"), attr) is not fn:
            problems.append(f"swan_aircomp.{module_name}.{attr} was not restored")
    return problems


def traced_originals() -> dict:
    return {(m, a): getattr(importlib.import_module(f"swan_aircomp.{m}"), a) for m, a in TRACED}


# --- reporting ---------------------------------------------------------------


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(workload: Workload, seed: int, batches: list, trace: int) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "batches": len(batches),
        "drops": len(batches) * workload.drops_per_batch,
        "fixed_drops": workload.fixed_batches * workload.drops_per_batch,
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's fixed-set aggregates as the reference")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_out"))
    try:
        if args.trace:
            originals = traced_originals()
            passes = measure_traced(workload, args.seed, args.seconds, out_dir)
            batches = [b for _, traced, plain in passes for b in traced + plain]
            fixed = passes[0][1]
            problems = trace_findings(passes, originals)
        else:
            batches, setups = measure_untraced(workload, args.seed, args.seconds, out_dir)
            fixed = batches[: workload.fixed_batches]
            problems = []
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    if args.write_reference:
        print(f"wrote {write_reference(workload, args.seed, fixed)}", file=sys.stderr)
    elif not failed:
        problems += check_reference(workload, args.seed, fixed)
    if args.trace:
        metrics = per_layer_metrics(passes)
    else:
        metrics = end_to_end_metrics(workload, batches, setups, failed, attempted)

    for message in [f for b in batches for f in b.failures][:20] + problems:
        print(f"FAIL {message}", file=sys.stderr)
    info = {"env": environment(workload, args.seed, batches, args.trace),
            "sha256_fixed_csv": sha256_of(fixed), "problems": len(problems)}
    print(json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1
