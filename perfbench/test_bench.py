"""Tests of the benchmark itself, on workloads small enough to run in seconds.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import dataclasses
import functools
import importlib
import json
from pathlib import Path

import pytest

import bench
from probe import CELLS, Probe, counters

SMALL = (
    bench.Workload("small-sweep-k", "sweep-k",
                   {"sweep": "2,4", "m_segments": 3, "q_grid": 60, "kappa_db_per_m": "0,0.08"},
                   1, 2),
    bench.Workload("small-oracle", "oracle-check", {"q_grid": 8}, 2, 1),
)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_counters_and_hashes_repeat_exactly(workload, tmp_path):
    runs = []
    for _ in range(2):
        probe = Probe(timed=True)
        batches = bench.run_fixed_set(workload, 5, tmp_path, probe, recompute=True)
        assert [f for b in batches for f in b.failures] == []
        runs.append((counters(probe), bench.sha256_of(batches)))
    assert runs[0] == runs[1]
    exact = runs[0][0]
    assert exact["channel.segment_gain_matrix.calls"] > 0
    assert exact["channel.segment_gain_matrix.elems"] > 0
    assert exact["optimizers.sa1_ao.evaluations"] > 0
    assert exact["optimizers.sa2_ao.sweeps"] > 0


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_run_writes_untraced_bytes_and_restores(workload, tmp_path):
    originals = bench.traced_originals()
    probe = Probe(timed=True)
    traced = bench.run_fixed_set(workload, 3, tmp_path, probe, recompute=True)
    plain = bench.run_fixed_set(workload, 3, tmp_path, Probe(timed=False), recompute=False)
    assert bench.sha256_of(traced) == bench.sha256_of(plain)
    assert bench.trace_findings([(probe, traced, plain)], originals) == []
    for (module_name, attr), fn in originals.items():
        assert getattr(importlib.import_module(f"swan_aircomp.{module_name}"), attr) is fn


def test_untraced_run_keeps_rows_of_the_fixed_set_only(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 2)
    workload = dataclasses.replace(SMALL[1], fixed_batches=1)
    batches, setups = bench.measure_untraced(workload, 1, 0.3, tmp_path)
    assert len(batches) > 1 and len(setups) == 2 and min(setups) > 0
    assert batches[0].rows and batches[0].csv_bytes
    assert all(b.rows == [] and b.csv_bytes == b"" and b.units_ms for b in batches[1:])
    assert sum(b.failed for b in batches) == 0


def test_gate_fails_an_ao_cell_whose_trace_increases(tmp_path, monkeypatch):
    harness = importlib.import_module("swan_aircomp.harness")
    real = harness.sa2_ao

    @functools.wraps(real)
    def rising(*args, **kwargs):
        rec = real(*args, **kwargs)
        return dataclasses.replace(rec, mse_trace=(rec.final_mse - 1.0, rec.final_mse))

    monkeypatch.setattr(harness, "sa2_ao", rising)
    batch = bench.run_batch(SMALL[0], 1, 0, tmp_path, Probe(timed=False))
    assert batch.failed == batch.attempted // 4  # every SA2 cell, nothing else
    assert all("MSE trace increases" in f for f in batch.failures)


def test_gate_fails_a_cell_outside_zero_to_k(tmp_path, monkeypatch):
    harness = importlib.import_module("swan_aircomp.harness")
    real = harness.pass_baseline

    @functools.wraps(real)
    def negative(*args, **kwargs):
        rec = real(*args, **kwargs)
        return dataclasses.replace(rec, final_mse=-1e-3, mse_trace=(-1e-3,))

    monkeypatch.setattr(harness, "pass_baseline", negative)
    batch = bench.run_batch(SMALL[0], 1, 0, tmp_path, Probe(timed=False))
    assert batch.failed == batch.attempted // 4
    assert all("outside [0," in f for f in batch.failures)


def test_gate_fails_every_cell_of_a_batch_that_raised(tmp_path, monkeypatch):
    harness = importlib.import_module("swan_aircomp.harness")

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "sa2_ao", broken)
    batch = bench.run_batch(SMALL[1], 1, 0, tmp_path, Probe(timed=False))
    assert batch.failed == batch.attempted > 0


def test_reference_check_flags_moved_aggregates(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "REFERENCE_DIR", tmp_path / "reference")
    workload = SMALL[0]
    batches = bench.run_fixed_set(workload, 1, tmp_path, Probe(timed=False), recompute=False)
    path = bench.write_reference(workload, 1, batches)
    assert bench.check_reference(workload, 1, batches) == []
    ref = json.loads(path.read_text())
    key = sorted(ref["aggregates"])[0]
    ref["aggregates"][key] *= 1 + 10 * ref["rtol"]
    path.write_text(json.dumps(ref))
    assert len(bench.check_reference(workload, 1, batches)) == 1
    assert bench.check_reference(workload, 2, batches) == []  # only its own seed is compared


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert set(CELLS) == {name.split(".")[1] for name, _ in bench.PER_LAYER
                          if name.endswith(".busy_s") and name.startswith("optimizers.")}
