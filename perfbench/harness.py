"""Workloads, correctness checks and the measuring loop of the benchmark.

Three workloads, each built from its seed alone (the program only receives
the generated scenarios):

* ``grid_default`` -- the paper's Figs. 11-13 grid as users run it today:
  6 protocols x n_voice {30, 90, 150} x request queue {off, on}, n_data=10,
  parity RNG and per-frame stepping, 1.25 s measured after 1.5 s warm-up
  per point, through ``repro.api.run`` with a serial executor and a fresh
  result store (the ``benchmarks/bench_utils.run_figure`` path);
* ``grid_fast_macro`` -- the same 36 points with ``rng_mode="fast"``,
  ``macro_frames=64`` and 2.5 s points (the settings recommended for
  paper-scale sweeps), which runs every protocol's inline macro style and,
  at the queue-on overload points, per-frame fallback frames;
* ``constellation_100x100`` -- 100 beams x (80 voice + 20 data) CHARISMA,
  fast RNG, ``macro_frames=64``, handover and co-channel interference on,
  stepped by 2 shard threads.

A repetition is one in-process set-up (store/executor or runner
construction, untimed) followed by the timed phase.  ``setup_s`` is
measured separately, from a fresh interpreter to ready-to-step, by probes
run between the repetitions.
"""

from __future__ import annotations

import hashlib
import json
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import envinfo
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The benchmark's definition: workloads, and the name, unit, direction and
#: bound of every metric.
SPEC: Dict[str, Any] = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Bounded end-to-end metrics: name -> unit.  The ``_cal`` metrics are the
#: timed phase in calibrated seconds, because a shared host's speed drifts
#: by tens of percent over minutes and raw times then spread wider than any
#: useful bound: on the grids, measured seconds scaled by the speed of a
#: fixed calibration kernel (``envinfo.Calibrator``) sampled after every
#: point of the same repetition; on the constellation, and for ``setup_s``,
#: scaled by the speed of fresh-interpreter import probes
#: (:func:`probe_setup`) taken during the run.
E2E_METRICS: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: Per-layer metrics of a traced run: name -> unit.
LAYER_METRICS: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Raw end-to-end metrics, printed and recorded next to the bounded ones;
#: ``failed_ratio`` is printed too (it is 0 on a correct tree).
RAW_METRICS: Dict[str, str] = {
    "wall_s": "s",
    "terminal_frames_per_s": "1/s",
    "terminal_frames_per_cpu_s": "1/s",
    "setup_raw_s": "s",
}

PROTOCOLS = ("charisma", "dtdma_vr", "dtdma_fr", "drma", "rama", "rmav")

#: Run id of the traced warm-store re-run (traced repetitions use 0, 1, ...).
WARM_RUN = 1_000_000


def expected() -> Dict[str, Any]:
    """Committed golden digests (see ``expected.json``)."""
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class GridSize:
    voices: Tuple[int, ...]
    duration_s: float
    warmup_s: float


@dataclass(frozen=True)
class ConstellationSize:
    n_beams: int
    n_voice: int
    n_data: int
    duration_s: float
    warmup_s: float
    macro_frames: int
    reuse_factor: int


#: ``full`` is the benchmark; ``tiny`` is the smoke size its tests run.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "grid_default": GridSize((30, 90, 150), 1.25, 1.5),
        "grid_fast_macro": GridSize((30, 90, 150), 2.5, 1.5),
        "constellation_100x100": ConstellationSize(100, 80, 20, 0.8, 0.16, 64, 4),
    },
    "tiny": {
        "grid_default": GridSize((3, 12), 0.1, 0.05),
        "grid_fast_macro": GridSize((3, 12), 0.2, 0.05),
        "constellation_100x100": ConstellationSize(4, 8, 2, 0.16, 0.04, 16, 2),
    },
}

#: Fresh-interpreter set-ups per run, spread between the repetitions;
#: ``setup_s`` is the median of their calibrated times.
SETUP_PROBES = {"full": 4, "tiny": 1}

#: Shard threads of the constellation workload.
CONSTELLATION_WORKERS = 2


# ------------------------------------------------------------------ checks
def result_digest(result: Any) -> str:
    """SHA-256 of a result's full serialised payload."""
    from repro.store.serialization import result_to_payload

    blob = json.dumps(result_to_payload(result), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def combined_digest(digests: Sequence[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def conserved(result: Any) -> bool:
    """Packet conservation and rate ranges of one point or beam."""
    voice, data, mac = result.voice, result.data, result.mac
    counts = (voice.generated, voice.delivered, voice.errored, voice.dropped,
              data.generated, data.delivered, data.retransmissions)
    if min(counts) < 0:
        return False
    if voice.delivered + voice.errored + voice.dropped > voice.generated:
        return False
    if data.delivered > data.generated:
        return False
    rates = (voice.loss_rate, voice.dropping_rate, voice.error_rate,
             data.delivery_ratio, mac.slot_utilisation)
    return all(0.0 <= rate <= 1.0 for rate in rates)


def merged_is_sum(merged: Any, beams: Sequence[Any]) -> bool:
    """The constellation's merged counters equal the sum over its beams."""
    def total(part: str, name: str) -> int:
        return sum(getattr(getattr(beam, part), name) for beam in beams)

    for part, names in (
        ("voice", ("generated", "delivered", "errored", "dropped")),
        ("data", ("generated", "delivered", "retransmissions")),
        ("mac", ("contention_attempts", "contention_collisions",
                 "idle_request_slots", "allocated_slots", "info_slots_per_frame")),
    ):
        for name in names:
            if getattr(getattr(merged, part), name) != total(part, name):
                return False
    delays = sorted(d for beam in beams for d in beam.data.delay_frames)
    return sorted(merged.data.delay_frames) == delays


# --------------------------------------------------------------- workloads
@dataclass
class Prepared:
    """State built by a repetition's in-process set-up."""

    inputs: Any
    target: Any
    store_dir: Optional[Path] = None


class GridWorkload:
    """36 grid points through ``repro.api.run`` with a fresh result store."""

    unit = "point"
    #: Calibrated by the kernel, which ``repro.api.run``'s progress callback
    #: samples after every point.
    kernel_calibrated = True

    def __init__(self, name: str, fast: bool) -> None:
        self.name = name
        self.fast = fast

    def inputs(self, seed: int, size: GridSize) -> Any:
        from repro.api import ExperimentSpec, SweepAxis
        from repro.sim.scenario import Scenario

        engine = {"rng_mode": "fast", "macro_frames": 64} if self.fast else {}
        base = Scenario(
            protocol=PROTOCOLS[0], n_voice=0, n_data=10,
            duration_s=size.duration_s, warmup_s=size.warmup_s, seed=seed,
            **engine,
        )
        return ExperimentSpec(
            protocols=PROTOCOLS,
            base_scenario=base,
            axes=(SweepAxis("n_voice", size.voices),
                  SweepAxis("use_request_queue", (False, True))),
            seeds=(seed,),
            name=self.name,
        )

    def prepare(self, spec: Any, workdir: Path) -> Prepared:
        from repro.api import SerialExecutor
        from repro.store import CachingExecutor, ResultStore

        spec.expand()
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))
        executor = CachingExecutor(ResultStore(store_dir), inner=SerialExecutor())
        return Prepared(spec, executor, store_dir)

    def execute(self, prepared: Prepared,
                progress: Any = None) -> Tuple[List[Any], Optional[Any]]:
        import repro.api

        results = repro.api.run(prepared.inputs, executor=prepared.target,
                                progress=progress)
        units = [record.result if record.ok else None for record in results]
        return units, None

    def terminal_frames(self, spec: Any) -> int:
        total = 0
        for point in spec.expand():
            scenario = point.scenario
            params = point.resolved_params(spec.params)
            frames = scenario.warmup_frames(params) + scenario.measured_frames(params)
            total += frames * scenario.n_terminals
        return total

    def n_units(self, spec: Any) -> int:
        return spec.n_runs

    def warm_rerun(self, prepared: Prepared) -> Tuple[List[Any], int]:
        """Re-run the grid against the repetition's now-warm store."""
        import repro.api
        from repro.api import SerialExecutor
        from repro.store import CachingExecutor, ResultStore

        executor = CachingExecutor(ResultStore(prepared.store_dir), inner=SerialExecutor())
        results = repro.api.run(prepared.inputs, executor=executor)
        return [r.result if r.ok else None for r in results], executor.hits


class ConstellationWorkload:
    """One 100-beam constellation run through ``ConstellationRunner``."""

    unit = "beam"
    #: Calibrated by the import probes of the run's ``setup_s`` probes: over
    #: 30 seeded runs its wall time (two shard threads) followed their speed
    #: (correlation 0.93), and not the single-thread kernel's (0.26).
    kernel_calibrated = False

    def __init__(self, name: str) -> None:
        self.name = name

    def inputs(self, seed: int, size: ConstellationSize) -> Any:
        from repro.constellation import ConstellationScenario

        return ConstellationScenario(
            protocol="charisma", n_beams=size.n_beams, n_voice=size.n_voice,
            n_data=size.n_data, duration_s=size.duration_s,
            warmup_s=size.warmup_s, seed=seed, rng_mode="fast",
            macro_frames=size.macro_frames, handover_rate=0.01,
            coupling_db=1.0, reuse_factor=size.reuse_factor,
        )

    def prepare(self, scenario: Any, workdir: Path) -> Prepared:
        from repro.constellation import ConstellationRunner

        runner = ConstellationRunner(scenario, n_workers=CONSTELLATION_WORKERS)
        return Prepared(scenario, runner)

    def execute(self, prepared: Prepared,
                progress: Any = None) -> Tuple[List[Any], Optional[Any]]:
        result = prepared.target.run()
        return list(result.beams), result.merged

    def terminal_frames(self, scenario: Any) -> int:
        from repro.config import SimulationParameters

        params = SimulationParameters()
        frames = scenario.warmup_frames(params) + scenario.measured_frames(params)
        return frames * scenario.n_terminals

    def n_units(self, scenario: Any) -> int:
        return scenario.n_beams


#: The workloads; why each was chosen, and the layer that dominates it, is
#: recorded in ``BENCHMARK.json``.
WORKLOADS: Dict[str, Any] = {
    "grid_default": GridWorkload("grid_default", fast=False),
    "grid_fast_macro": GridWorkload("grid_fast_macro", fast=True),
    "constellation_100x100": ConstellationWorkload("constellation_100x100"),
}


# -------------------------------------------------------------- repetition
@dataclass
class Rep:
    """One repetition's timings, outputs and correctness outcome."""

    window_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    scale: float = 1.0
    cpu_scale: float = 1.0
    digests: List[Optional[str]] = field(default_factory=list)
    failed: set = field(default_factory=set)
    errors: List[str] = field(default_factory=list)
    prepared: Optional[Prepared] = None


def run_rep(workload: Any, inputs: Any, workdir: Path, recorder: Any = None,
            run_id: int = 0, calibrator: Any = None) -> Rep:
    """In-process set-up plus the timed phase; traced when ``recorder``.

    With a ``calibrator`` the calibration kernel is sampled after every
    point of a grid; the time the samples take is subtracted from the
    timed phase.
    """
    rep = Rep()
    n_units = workload.n_units(inputs)
    tracing = recorder.recording(run_id) if recorder is not None else nullcontext()
    progress = calibrator.sample if calibrator is not None else None
    try:
        with tracing:
            started = time.perf_counter()
            rep.prepared = workload.prepare(inputs, workdir)
            timed = time.perf_counter()
            cpu = time.process_time()
            units, merged = workload.execute(rep.prepared, progress)
            rep.cpu_s = time.process_time() - cpu
            done = time.perf_counter()
    except Exception:  # a raising program counts as failed units
        rep.errors.append(traceback.format_exc())
        rep.failed = set(range(n_units))
        return rep
    rep.wall_s = done - timed
    rep.window_s = done - started
    if calibrator is not None:
        rep.wall_s -= sum(calibrator.wall)
        rep.cpu_s -= sum(calibrator.cpu)
        rep.scale = calibrator.scale()
        rep.cpu_scale = calibrator.cpu_scale()
    for index, result in enumerate(units):
        if result is None:
            rep.digests.append(None)
            rep.failed.add(index)
            rep.errors.append(f"{workload.unit} {index} raised")
            continue
        rep.digests.append(result_digest(result))
        if not conserved(result):
            rep.failed.add(index)
            rep.errors.append(f"{workload.unit} {index} breaks conservation")
    if merged is not None and not merged_is_sum(merged, units):
        rep.failed.update(range(n_units))
        rep.errors.append("merged counters differ from the sum over beams")
    return rep


def release(rep: Rep) -> None:
    """Drop a repetition's set-up state and delete its result store."""
    if rep.prepared is not None and rep.prepared.store_dir is not None:
        shutil.rmtree(rep.prepared.store_dir, ignore_errors=True)
    rep.prepared = None


class Checker:
    """Cross-repetition checks: repeat digests and the golden digest."""

    def __init__(self, name: str, seed: int, size: str) -> None:
        self.reference: Optional[List[Optional[str]]] = None
        golden = expected()
        self.golden = (
            golden["golden"].get(name, {}).get(size)
            if seed == golden["recorded_seed"] else None
        )

    def check(self, rep: Rep) -> None:
        if rep.errors and not rep.digests:
            return
        if self.reference is None:
            self.reference = list(rep.digests)
        for index, (got, want) in enumerate(zip(rep.digests, self.reference)):
            if got != want:
                rep.failed.add(index)
                rep.errors.append(f"unit {index} digest differs between repetitions")
        if self.golden is not None and None not in rep.digests:
            if combined_digest(rep.digests) != self.golden:
                rep.failed.update(range(len(rep.digests)))
                rep.errors.append("grid digest differs from the committed golden digest")


# ------------------------------------------------------------------- setup
def setup_probe(name: str, seed: int, size: str) -> None:
    """Child side of a ``setup_s`` probe: build, report ready, clean up."""
    workload = WORKLOADS[name]
    workdir = work_dir()
    inputs = workload.inputs(seed, SIZES[size][name])
    prepared = workload.prepare(inputs, workdir)
    print("ready", flush=True)
    release(Rep(prepared=prepared))


def time_setup(name: str, seed: int, size: str, timeout_s: float = 60.0) -> float:
    """Seconds from spawning a fresh interpreter to its ready line."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", name, "--seed", str(seed), "--size", size,
    ]
    started = time.perf_counter()
    child = subprocess.Popen(
        command, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready, _, _ = select.select([child.stdout], [], [], timeout_s)
        line = child.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - started
        _, err = child.communicate(timeout=timeout_s)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({child.returncode}): {err.strip()}")
    return elapsed


def time_import(timeout_s: float = 60.0) -> float:
    """Seconds a fresh interpreter takes to run ``envinfo.IMPORT_PROBE``."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", envinfo.IMPORT_PROBE], cwd=str(ROOT), check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout_s,
    )
    return time.perf_counter() - started


def probe_setup(name: str, seed: int, size: str) -> Tuple[float, float]:
    """One set-up probe between two import probes: (set-up, import) seconds.

    Set-up is mostly importing the program and its libraries, which runs at
    the host's speed of the moment; the mean of the import probes, timed
    just before and after, measures that speed on the same kind of work.
    """
    before = time_import()
    raw = time_setup(name, seed, size)
    after = time_import()
    return raw, (before + after) / 2


# ----------------------------------------------------------------- measure
def work_dir() -> Path:
    path = ROOT / ".perfbench_work"
    path.mkdir(exist_ok=True)
    return path


def peak_rss_mb() -> float:
    """Peak resident megabytes of this process, less the calibration table."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - envinfo.gather_mb()


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full", out_dir: Optional[Path] = None) -> Dict[str, Any]:
    """Run one workload for ``seconds`` and return its full record."""
    workload = WORKLOADS[name]
    workdir = work_dir()
    env = envinfo.fingerprint(ROOT)
    inputs = workload.inputs(seed, SIZES[size][name])
    frames = workload.terminal_frames(inputs)
    probes = 0 if trace else SETUP_PROBES[size]
    setups: List[Tuple[float, float]] = []
    checker = Checker(name, seed, size)
    recorder = spans.Recorder() if trace else None
    untraced: List[Rep] = []
    traced: List[Rep] = []
    last: Optional[Rep] = None
    started = time.perf_counter()
    paused = 0.0  # set-up probes run between repetitions, off the clock
    pair = 0
    while True:
        order = (False, True) if pair % 2 == 0 else (True, False)
        for with_trace in (order if trace else (False,)):
            if last is not None:
                release(last)  # keeps one repetition's state alive at a time
            last = run_rep(workload, inputs, workdir,
                           recorder if with_trace else None, run_id=pair,
                           calibrator=(envinfo.Calibrator()
                                       if workload.kernel_calibrated and not trace
                                       else None))
            checker.check(last)
            (traced if with_trace else untraced).append(last)
        pair += 1
        if len(setups) < probes:
            probe_started = time.perf_counter()
            setups.append(probe_setup(name, seed, size))
            paused += time.perf_counter() - probe_started
        if time.perf_counter() - started - paused >= seconds:
            break
    while len(setups) < probes:
        setups.append(probe_setup(name, seed, size))
    if setups and not workload.kernel_calibrated:
        scale = envinfo.REFERENCE_IMPORT_S / statistics.median(i for _, i in setups)
        for rep in untraced:
            rep.scale = rep.cpu_scale = scale
    reps = untraced + traced

    warm: Dict[str, float] = {}
    if isinstance(workload, GridWorkload) and not last.errors:
        tracing = recorder.recording(WARM_RUN) if recorder is not None else nullcontext()
        try:
            with tracing:
                warm_started = time.perf_counter()
                results, hits = workload.warm_rerun(last.prepared)
                warm["store.warm_rerun_s"] = time.perf_counter() - warm_started
            warm["store.warm_hit_ratio"] = hits / len(results)
            for index, result in enumerate(results):
                digest = result_digest(result) if result is not None else None
                if digest != last.digests[index]:
                    last.failed.add(index)
                    last.errors.append(f"point {index} differs on the warm-store re-run")
        except Exception:
            last.failed.update(range(len(last.digests)))
            last.errors.append(traceback.format_exc())
    release(last)

    n_units = workload.n_units(inputs)
    attempted = n_units * len(reps)
    failed = sum(len(rep.failed) for rep in reps)
    samples: Dict[str, List[float]] = {}
    metrics: Dict[str, Dict[str, Any]] = {}
    if not trace:
        good = [rep for rep in untraced if not rep.errors]
        samples = {
            "wall_cal_s": [rep.wall_s * rep.scale for rep in good],
            "terminal_frames_per_cal_s": [frames / (rep.wall_s * rep.scale) for rep in good],
            "terminal_frames_per_cpu_cal_s": [frames / (rep.cpu_s * rep.cpu_scale) for rep in good],
            "setup_s": [raw * envinfo.REFERENCE_IMPORT_S / imported
                        for raw, imported in setups],
            "setup_raw_s": [raw for raw, _imported in setups],
            "peak_rss_mb": [peak_rss_mb()],
            "wall_s": [rep.wall_s for rep in good],
            "terminal_frames_per_s": [frames / rep.wall_s for rep in good],
            "terminal_frames_per_cpu_s": [frames / rep.cpu_s for rep in good],
        }
        for metric, unit in {**E2E_METRICS, **RAW_METRICS}.items():
            values = samples[metric] or [0.0]
            metrics[metric] = {"value": statistics.median(values), "unit": unit}
    else:
        per_rep = [spans.run_metrics(recorder, r) for r in range(pair)
                   if r in recorder.windows]
        for metric, unit in LAYER_METRICS.items():
            values = [m[metric] for m in per_rep if metric in m]
            if metric in warm:
                values = [warm[metric]]
            elif metric == "trace.overhead_ratio":
                plain = [rep.window_s for rep in untraced if not rep.errors]
                timed = [rep.window_s for rep in traced if not rep.errors]
                values = ([statistics.median(timed) / statistics.median(plain)]
                          if plain and timed else [])
            samples[metric] = values
            metrics[metric] = {
                "value": statistics.median(values) if values else 0.0,
                "unit": unit,
            }

    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "unit": workload.unit,
        "terminal_frames": frames,
        "repetitions": len(untraced),
        "traced_repetitions": len(traced),
        "env": env,
        "samples": samples,
        "metrics": metrics,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for rep in reps for e in rep.errors][:20],
        "digest": (combined_digest(reps[0].digests)
                   if reps[0].digests and None not in reps[0].digests else None),
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
        if recorder is not None:
            spans.save_spans(recorder, str(out_dir / f"{stem}.spans.npz"))
            record["spans_file"] = f"{stem}.spans.npz"
        (out_dir / f"{stem}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
        )
    return record
