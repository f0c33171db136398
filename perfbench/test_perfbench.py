"""Tests of the benchmark itself: wrappers, span accounting, names, smoke."""

from __future__ import annotations

import json
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_uninstall_restores_every_wrapped_attribute():
    recorder = spans.Recorder()
    originals = [(t.owner, t.name, vars(t.owner)[t.name]) for t in recorder.targets]
    recorder.install()
    try:
        assert all(vars(owner)[name] is not original
                   for owner, name, original in originals)
    finally:
        recorder.uninstall()
    for owner, name, original in originals:
        assert vars(owner)[name] is original, f"{owner}.{name} not restored"


def test_every_protocol_kernel_is_wrapped():
    from repro.mac.registry import available_protocols, protocol_class

    wrapped = {t.owner for t in spans.targets() if t.label == "mac"}
    for name in available_protocols():
        owner = next(c for c in protocol_class(name).__mro__
                     if "run_frame_batch" in vars(c))
        assert owner in wrapped, name


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10]; a [1, 4] with grandchild [2, 3]; b [3, 6] overlaps a;
    # c [8, 12] sticks out of the root and is clipped to [8, 10].
    t0 = np.array([0.0, 1.0, 2.0, 3.0, 8.0])
    t1 = np.array([10.0, 4.0, 3.0, 6.0, 12.0])
    parent = np.array([-1, 0, 1, 0, 0])
    assert np.allclose(spans.self_times(t0, t1, parent), [3.0, 2.0, 1.0, 3.0, 4.0])


def test_self_time_of_sequential_children():
    t0 = np.array([0.0, 1.0, 2.0, 6.0])
    t1 = np.array([10.0, 2.0, 5.0, 6.5])
    parent = np.array([-1, 0, 0, 0])
    assert np.allclose(spans.self_times(t0, t1, parent), [5.5, 1.0, 3.0, 0.5])


class _Engine:
    def step(self):
        time.sleep(0.002)
        self.kernel()
        self.kernel()

    def kernel(self):
        time.sleep(0.001)


class _Shard:
    def __init__(self, beam):
        self.beam = beam

    def run_frames(self, n_frames):
        time.sleep(0.001 * (1 + self.beam % 3))


def _synthetic_recorder():
    return spans.Recorder([
        spans.Target(_Engine, "step", "sim.step"),
        spans.Target(_Engine, "kernel", "mac"),
        spans.Target(_Shard, "run_frames", "constellation.shard_step",
                     work=lambda a, k: float(a[1]), tag=lambda a, k: float(a[0].beam)),
    ])


def test_layer_times_add_up_to_the_traced_wall():
    recorder = _synthetic_recorder()
    with recorder.recording(0):
        engine = _Engine()
        for _ in range(3):
            engine.step()
        shards = [_Shard(beam) for beam in range(4)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _block in range(2):
                futures = [pool.submit(shard.run_frames, 8) for shard in shards]
                for future in futures:
                    future.result()
    m = spans.run_metrics(recorder, 0)
    layers = sum(m[f"{name}.self_s"] for name in spans.LAYERS)
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], abs=1e-12)
    assert m["trace.unattributed_s"] >= 0.0
    assert m["sim.steps"] == 3 and m["mac.calls"] == 6
    assert m["constellation.shard_steps"] == 8 and m["constellation.barriers"] == 2
    assert m["constellation.barrier_wait_s"] > 0.0
    assert m["constellation.load_imbalance"] > 1.0
    assert m["trace.spans"] == 3 + 6 + 8


def test_metric_names_units_and_counts_match_the_benchmark_file():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    e2e, layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in e2e + layer] + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(m["name"] for m in e2e + layer)) == len(e2e) + len(layer)
    assert all(UNIT.match(m["unit"]) for m in e2e + layer)
    assert all(m["better"] in ("lower", "higher") for m in e2e + layer)
    assert set(spans.SHOULD_MOVE) == {m["name"] for m in layer}
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_checker_flags_a_wrong_golden_digest(monkeypatch):
    monkeypatch.setattr(harness, "expected", lambda: {
        "recorded_seed": 7, "golden": {"grid_default": {"tiny": "0" * 64}},
    })
    checker = harness.Checker("grid_default", 7, "tiny")
    rep = harness.Rep(digests=["a" * 64, "b" * 64])
    checker.check(rep)
    assert rep.failed == {0, 1}
    again = harness.Rep(digests=["a" * 64, "c" * 64])
    checker.check(again)
    assert 1 in again.failed


def test_conservation_rejects_more_outcomes_than_packets():
    def result(delivered):
        return SimpleNamespace(
            voice=SimpleNamespace(generated=10, delivered=delivered, errored=1,
                                  dropped=1, loss_rate=0.2, dropping_rate=0.1,
                                  error_rate=0.1),
            data=SimpleNamespace(generated=5, delivered=5, retransmissions=0,
                                 delivery_ratio=1.0),
            mac=SimpleNamespace(slot_utilisation=0.5),
        )

    assert harness.conserved(result(8))
    assert not harness.conserved(result(9))


def test_compare_verdicts():
    assert compare.verdict([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "lower", 0.1) == "worse"
    assert compare.verdict([1.0, 1.01, 0.99], [1.02, 1.01, 1.0], "lower", 0.1) == "no worse"
    assert compare.verdict([1.0, 1.01, 0.99], [0.8, 0.81, 0.79], "lower", 0.1) == "better"
    assert compare.verdict([1.0, 2.0, 0.5, 1.5], [1.0, 1.1, 0.9], "lower", 0.1) == "unresolved"


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_tiny_workload_passes_every_check(workload, trace, tmp_path):
    seed = harness.expected()["recorded_seed"]
    record = harness.measure(workload, seed, 0.0, trace, size="tiny", out_dir=tmp_path)
    assert record["correct"], record["errors"]
    assert record["failed"] == 0 and record["attempted"] > 0
    if not trace:
        assert set(record["metrics"]) == set(harness.E2E_METRICS) | set(harness.RAW_METRICS)
        assert all(entry["value"] > 0 for entry in record["metrics"].values())
        return
    assert set(record["metrics"]) == set(harness.LAYER_METRICS)
    walls = record["samples"]["trace.wall_s"]
    for index, wall in enumerate(walls):
        layers = sum(record["samples"][f"{name}.self_s"][index] for name in spans.LAYERS)
        unattributed = record["samples"]["trace.unattributed_s"][index]
        assert layers + unattributed == pytest.approx(wall, abs=1e-9)
    assert record["metrics"]["sim.setups"]["value"] > 0
    assert (tmp_path / record["spans_file"]).is_file()
