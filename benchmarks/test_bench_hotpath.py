"""Hot-path benchmark: stepping modes, MAC paths and RNG modes, frames per second.

Times the 100-terminal reference workload (the ROADMAP's "hot-path
profiling" item) for every protocol and, with ``UPDATE_BASELINES=1`` in
the environment, records the result in ``BENCH_engine.json`` at the
repository root, appending to a history list so the frames/sec trajectory
accumulates across recordings.  Without the switch every measurement and
assertion still runs, and the committed record is left untouched::

    UPDATE_BASELINES=1 python -m pytest benchmarks/test_bench_hotpath.py

Methodology
-----------
Measurements are interleaved and the best of several repetitions is kept,
using CPU time, which cancels machine-load drift between the compared
sides; the per-frame/macro quotient is the median over adjacent pairs.

The *reference workload* is RMAV on 100 terminals: RMAV's MAC layer is the
thinnest of the six protocols (one competitive slot per frame, no request
queue), so its frames/sec is the purest measure of the frame-loop cost —
traffic generation, deadline expiry, channel advance, grant execution and
metrics accumulation.

Sections of a record:

* the per-protocol table carries ``columnar_fps`` (per-frame stepping) and
  ``macro_fps`` / ``macro_over_columnar`` — the macro-stepped frame loop
  (``Scenario.macro_frames=64``, bit identical to per-frame in parity
  mode) against per-frame stepping, interleaved.  Every protocol's
  lookahead engages in parity mode, so each pair is parity over parity
  (recorded per protocol as ``macro_rng_mode``, with the per-frame base
  as ``macro_base_fps``).  Records up to 2026-10-17 also carry
  ``object_fps`` / ``speedup`` / ``macro_over_object`` against the
  per-terminal object engine, which has since been removed;
* ``dispatches_per_frame`` — measured ``@kernel(batch=True)`` entries per
  frame per phase (``enable_phase_timing(count_dispatches=True)``, backed
  by ``repro.obs.dispatch``'s entry wrappers and the ``kernel.dispatches``
  metrics counter) for the per-frame and macro-stepped modes, so the
  dispatch floor the macro mode attacks is tracked, not inferred.

* ``mac_kernels`` — the array-native ``run_frame_batch`` kernels (parity
  and fast RNG modes) against the view-walking ``run_frame`` path on the
  same engine, interleaved in-session.  This is the clean
  architecture comparison: absolute fps on this machine drifts by tens of
  percent between sessions (CPU frequency phases), so the kernels' gain is
  only meaningful measured side by side.  A fast-mode run draws a
  *different* traffic realisation than a parity run under the same seed
  (the draw partitioning differs), so the section aggregates throughput
  over several seeds per configuration, which averages the realisation
  difference out.
* ``phase_split`` — the engine's own per-phase timers (traffic / channel /
  MAC / PHY / metrics fractions per protocol, parity mode, per-frame
  stepping), so the next bottleneck is machine-readable;
  ``python -m repro profile --json`` reports the same split for arbitrary
  scenarios.

Parity-mode runs block-step by default, so ``_build_engine`` pins
``MACRO_BLOCK_FRAMES = 1`` for ``macro_frames=1``: every per-frame leg here
(``_run_timed``, the columnar side of the dispatch comparison, the phase
split) keeps stepping frame by frame.

``vs_pr3`` compares this tree's columnar fps against the most recent
PR 3-era record found in the file's history (entries without a
``mac_kernels`` section) — indicative only, across-session machine drift
applies.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.config import SimulationParameters
from repro.mac.registry import available_protocols
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.scenario import Scenario

pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_engine.json"
#: Rewrite ``BENCH_engine.json`` only when asked to (see module doc).
UPDATE = os.environ.get("UPDATE_BASELINES") == "1"

PARAMS = SimulationParameters()

#: The reference workload: 100 terminals at the paper's 80/20 voice/data mix.
N_VOICE = 80
N_DATA = 20
SEED = 1
DURATION_S = 1.0
WARMUP_S = 0.25
#: Interleaved per-frame/macro pairs per protocol (see ``measure``).
REPETITIONS = 20

#: Seeds over which the parity/fast comparison aggregates (see module doc).
RNG_MODE_SEEDS = (1, 2, 3, 4, 5, 6)

REFERENCE_PROTOCOL = "rmav"


#: Macro block size the ``macro`` section measures (the CLI's recommended
#: "large block" setting; bit-identical to per-frame in parity mode).
MACRO_FRAMES = 64

#: Protocols whose macro lookahead is a hard performance contract: each
#: must beat per-frame stepping by >1.5x in-session.
LOOKAHEAD_PROTOCOLS = (
    "charisma", "drma", "dtdma_fr", "dtdma_vr", "rama", "rmav",
)


def _build_engine(protocol: str, rng_mode: str, seed: int,
                  use_batch_mac: bool = True, macro_frames: int = 1):
    scenario = Scenario(
        protocol=protocol,
        n_voice=N_VOICE,
        n_data=N_DATA,
        duration_s=DURATION_S,
        warmup_s=WARMUP_S,
        seed=seed,
        rng_mode=rng_mode,
        macro_frames=macro_frames,
    )
    engine = UplinkSimulationEngine(scenario, PARAMS, use_batch_mac=use_batch_mac)
    if macro_frames == 1:
        engine.MACRO_BLOCK_FRAMES = 1  # per-frame stepping in parity mode too
    return engine


def _run_timed(protocol: str, rng_mode: str = "parity",
               seed: int = SEED, use_batch_mac: bool = True,
               macro_frames: int = 1) -> tuple:
    """Run once; return (frames, cpu_seconds).

    ``macro_frames=1`` steps frame by frame in either RNG mode; larger
    values run the engine's block-stepped default.
    """
    engine = _build_engine(protocol, rng_mode, seed, use_batch_mac,
                           macro_frames)
    start = time.process_time()
    engine.run()
    return engine.frame_index, time.process_time() - start


def _frames_per_second(protocol: str, macro_frames: int = 1) -> float:
    frames, elapsed = _run_timed(protocol, macro_frames=macro_frames)
    return frames / elapsed


def measure() -> dict:
    """Interleaved frames/sec per protocol: per-frame vs macro-stepped.

    Each repetition is one adjacent per-frame/macro pair, run in
    alternating order, and the ``macro_over_columnar`` quotient is the
    median of the per-pair quotients.  CPU speed on a shared machine swings
    by up to 2x within one loop, so a quotient of the two sides' bests
    would often divide samples taken under different machine states; the
    paired median compares runs that share one.  The quotient compares
    parity macro-stepped against parity per-frame stepping — bit-identical
    runs — for every protocol; ``columnar_fps`` / ``macro_fps`` keep the
    best of each side, the per-frame base is also recorded as
    ``macro_base_fps`` and the mode as ``macro_rng_mode``.
    """
    protocols = {}
    for protocol in available_protocols():
        best = {"columnar": 0.0, "macro": 0.0}
        quotients = []
        for repetition in range(REPETITIONS):
            pair = {}
            for side in (("columnar", "macro") if repetition % 2 == 0
                         else ("macro", "columnar")):
                pair[side] = _frames_per_second(
                    protocol,
                    macro_frames=MACRO_FRAMES if side == "macro" else 1,
                )
                best[side] = max(best[side], pair[side])
            quotients.append(pair["macro"] / pair["columnar"])
        protocols[protocol] = {
            "columnar_fps": round(best["columnar"], 1),
            "macro_fps": round(best["macro"], 1),
            "macro_base_fps": round(best["columnar"], 1),
            "macro_rng_mode": "parity",
            "macro_over_columnar": round(statistics.median(quotients), 3),
        }
    return protocols


def measure_dispatches() -> dict:
    """Measured batch-kernel dispatches per frame, per phase, per mode.

    A short instrumented pass on a separate engine (the per-kernel entry
    wrappers installed by ``repro.obs.dispatch`` are cheap but not free,
    so counting never contaminates the fps numbers) — the frame loop's
    dispatch floor tracked, not inferred.  Counts are entries into
    ``@kernel(batch=True)`` functions, not raw NumPy C calls, so they are
    stable across NumPy versions.
    """
    dispatches = {}
    for protocol in available_protocols():
        row = {}
        for label, macro_frames in (("columnar", 1), ("macro", MACRO_FRAMES)):
            engine = _build_engine(protocol, "parity", SEED,
                                   macro_frames=macro_frames)
            engine.enable_phase_timing(count_dispatches=True)
            try:
                engine.run_frames(512)
                counts = dict(engine.dispatch_counts)
            finally:
                engine.disable_phase_timing()
            per_phase = {
                phase: round(calls / 512, 2) for phase, calls in counts.items()
            }
            per_phase["total"] = round(sum(counts.values()) / 512, 2)
            row[label] = per_phase
        dispatches[protocol] = row
    return dispatches


#: The in-session MAC-architecture comparison configurations:
#: (label, rng_mode, use_batch_mac).
_KERNEL_CONFIGS = (
    ("view_fps", "parity", False),
    ("batch_fps", "parity", True),
    ("fast_fps", "fast", True),
)


def measure_mac_kernels() -> dict:
    """Seed-aggregated view-path vs batch-kernel vs fast-mode throughput.

    The three configurations are interleaved seed by seed so
    machine-frequency drift hits them equally; fps is total frames over
    total CPU seconds per configuration.
    """
    kernels = {}
    for protocol in available_protocols():
        totals = {label: [0, 0.0] for label, _, _ in _KERNEL_CONFIGS}
        for seed in RNG_MODE_SEEDS:
            for label, mode, batch in _KERNEL_CONFIGS:
                frames, elapsed = _run_timed(
                    protocol, mode, seed, use_batch_mac=batch
                )
                totals[label][0] += frames
                totals[label][1] += elapsed
        fps = {
            label: round(frames / elapsed, 1)
            for label, (frames, elapsed) in totals.items()
        }
        fps["batch_over_view"] = round(fps["batch_fps"] / fps["view_fps"], 3)
        fps["fast_over_view"] = round(fps["fast_fps"] / fps["view_fps"], 3)
        kernels[protocol] = fps
    return kernels


def measure_phase_split() -> dict:
    """Per-protocol traffic/channel/MAC/PHY/metrics fractions (parity mode,
    per-frame stepping)."""
    split = {}
    for protocol in available_protocols():
        engine = _build_engine(protocol, "parity", SEED)
        phases = engine.enable_phase_timing()
        engine.run()
        total = sum(phases.values()) or 1.0
        split[protocol] = {
            name: round(seconds / total, 4) for name, seconds in phases.items()
        }
    return split


def _previous_latest() -> dict:
    if not RECORD_PATH.exists():
        return {}
    try:
        return json.loads(RECORD_PATH.read_text())
    except (json.JSONDecodeError, OSError):
        return {}


def _pr3_era_protocols(previous: dict) -> dict:
    """The most recent record without a ``mac_kernels`` section (PR 3 era)."""
    candidates = []
    latest = previous.get("latest")
    if latest:
        candidates.append(latest)
    candidates.extend(reversed(previous.get("history", [])))
    for entry in candidates:
        if "mac_kernels" not in entry and "protocols" in entry:
            return entry["protocols"]
    return {}


def test_bench_hotpath_backends():
    previous = _previous_latest()
    protocols = measure()
    kernels = measure_mac_kernels()
    phase_split = measure_phase_split()
    dispatches = measure_dispatches()
    reference = protocols[REFERENCE_PROTOCOL]

    # Trajectory vs the PR 3-era record, per protocol: how much *additional*
    # columnar throughput this tree delivers on the identical workload.
    # Indicative only — absolute fps drifts between sessions on this
    # machine; the in-session `mac_kernels` ratios are the clean comparison.
    vs_pr3 = {}
    for name, row in protocols.items():
        then = _pr3_era_protocols(previous).get(name, {}).get("columnar_fps")
        if then:
            # The fast estimate scales the like-for-like parity comparison
            # (both interleaved best-of-N on the same seed) by the
            # in-session fast/batch ratio (both seed-aggregated) — never
            # mixing the two timing methodologies in one quotient.
            fast_over_batch = (
                kernels[name]["fast_fps"] / kernels[name]["batch_fps"]
            )
            additional = row["columnar_fps"] / then
            vs_pr3[name] = {
                "pr3_columnar_fps": then,
                "columnar_fps": row["columnar_fps"],
                "additional_speedup": round(additional, 3),
                "additional_speedup_fast": round(
                    additional * fast_over_batch, 3
                ),
            }

    record = {
        "workload": {
            "n_terminals": N_VOICE + N_DATA,
            "n_voice": N_VOICE,
            "n_data": N_DATA,
            "seed": SEED,
            "measured_s": DURATION_S,
            "warmup_s": WARMUP_S,
            "repetitions": REPETITIONS,
            "timer": "process_time, interleaved best-of-N, median paired quotient",
            "rng_mode_seeds": list(RNG_MODE_SEEDS),
        },
        "reference": {
            "protocol": REFERENCE_PROTOCOL,
            "why": "thinnest MAC layer; isolates the frame-loop cost",
            **reference,
        },
        "protocols": protocols,
        "macro_frames": MACRO_FRAMES,
        "mac_kernels": kernels,
        "phase_split": phase_split,
        "dispatches_per_frame": dispatches,
        "vs_pr3": vs_pr3,
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }

    if UPDATE:
        history = previous.get("history", [])
        if "latest" in previous:
            history = history + [previous["latest"]]
        RECORD_PATH.write_text(
            json.dumps({"latest": record, "history": history[-19:]}, indent=2)
            + "\n"
        )

    table = "\n".join(
        f"  {name:10s} columnar {row['columnar_fps']:9.0f} fps   "
        f"macro {row['macro_fps']:9.0f} fps "
        f"({row['macro_over_columnar']:.2f}x)   "
        f"kernels view {kernels[name]['view_fps']:8.0f} "
        f"batch {kernels[name]['batch_fps']:8.0f} "
        f"fast {kernels[name]['fast_fps']:8.0f}"
        for name, row in protocols.items()
    )
    print(f"\nhot-path frame loop @ {N_VOICE + N_DATA} terminals:\n{table}")

    # The MAC phase must no longer dwarf the frame loop on the MAC-heavy
    # protocols: the kernelised MAC keeps it under three quarters.
    for name, split in phase_split.items():
        assert split["mac"] < 0.75, (name, split)
    # Every current protocol now carries a macro lookahead (inline
    # contended-frame replay for DRMA/RAMA, batched CSI for CHARISMA), so
    # the macro-stepped mode must decisively beat per-frame stepping across
    # the board; 0.9 stays as the never-lose floor for any future protocol
    # that lands without a lookahead (fallback frames still enjoy fused
    # traffic, so macro mode must not cost them anything real).
    for name in LOOKAHEAD_PROTOCOLS:
        assert protocols[name]["macro_over_columnar"] > 1.5, (
            name, protocols[name],
        )
    for name, row in protocols.items():
        assert row["macro_over_columnar"] > 0.9, (name, row)
    # The RAMA batch kernel must pay for itself again (the small-pool
    # columnar round-tripping regression).
    assert kernels["rama"]["batch_over_view"] > 1.0, kernels["rama"]
    # The macro mode must actually lower the measured dispatch floor on the
    # lookahead protocols.
    for name in ("rmav", "dtdma_vr"):
        assert (
            dispatches[name]["macro"]["total"]
            < dispatches[name]["columnar"]["total"]
        ), (name, dispatches[name])


# ---------------------------------------------------------------------------
# Constellation scale-out (PR 10): 100 beams x 100 terminals on one machine.
# ---------------------------------------------------------------------------

#: The constellation demo workload: the ISSUE's scale target is 100 beams of
#: the 100-terminal reference cell (10k terminals total) sustained at >=500
#: aggregate frames/sec on one machine.
CONSTELLATION_BEAMS = 100
CONSTELLATION_WORKER_COUNTS = (1, 4, 8)
CONSTELLATION_DURATION_S = 0.25
CONSTELLATION_WARMUP_S = 0.05
#: Aggregate (summed-over-beams) frames/sec the demo must sustain.
CONSTELLATION_FPS_FLOOR = 500.0


def _constellation_scenario():
    from repro.constellation import ConstellationScenario

    return ConstellationScenario(
        protocol=REFERENCE_PROTOCOL,
        n_beams=CONSTELLATION_BEAMS,
        n_voice=N_VOICE,
        n_data=N_DATA,
        duration_s=CONSTELLATION_DURATION_S,
        warmup_s=CONSTELLATION_WARMUP_S,
        seed=SEED,
        rng_mode="fast",
        macro_frames=MACRO_FRAMES,
    )


def _constellation_fps(n_workers: int) -> float:
    """Aggregate frames/sec of one full constellation run.

    Wall-clock, not CPU time: worker threads are the thing being measured,
    and summed CPU time would cancel the very parallelism the thread-scaling
    row records.  Aggregate fps is total frames stepped across all beams
    over the run's wall seconds.
    """
    from repro.constellation import ConstellationRunner

    runner = ConstellationRunner(_constellation_scenario(), PARAMS,
                                 n_workers=n_workers)
    start = time.perf_counter()
    runner.run()
    elapsed = time.perf_counter() - start
    frames = sum(shard.engine.frame_index for shard in runner.shards)
    return frames / elapsed


def test_bench_constellation():
    """Record the 100-beam demo: aggregate fps and thread scaling.

    With ``UPDATE_BASELINES=1``, merges a ``constellation`` section into
    ``BENCH_engine.json``'s ``latest`` record (preserving every other section) with the aggregate
    and per-beam frames/sec at each worker count and the scaling ratios
    against the serial run.  On a single-core box the ratios sit near 1.0 —
    ``cpu_count`` is recorded alongside so the numbers read honestly.
    """
    best = {}
    for n_workers in CONSTELLATION_WORKER_COUNTS:
        fps = 0.0
        for _ in range(2):
            fps = max(fps, _constellation_fps(n_workers))
        best[n_workers] = fps

    aggregate = max(best.values())
    serial = best[CONSTELLATION_WORKER_COUNTS[0]]
    section = {
        "workload": {
            "n_beams": CONSTELLATION_BEAMS,
            "n_voice_per_beam": N_VOICE,
            "n_data_per_beam": N_DATA,
            "n_terminals_total": CONSTELLATION_BEAMS * (N_VOICE + N_DATA),
            "protocol": REFERENCE_PROTOCOL,
            "rng_mode": "fast",
            "macro_frames": MACRO_FRAMES,
            "seed": SEED,
            "measured_s": CONSTELLATION_DURATION_S,
            "warmup_s": CONSTELLATION_WARMUP_S,
            "timer": "perf_counter (wall), best-of-2 per worker count",
        },
        "aggregate_fps": round(aggregate, 1),
        "per_beam_fps": round(aggregate / CONSTELLATION_BEAMS, 1),
        "threads": {
            str(n): round(fps, 1) for n, fps in best.items()
        },
        "thread_scaling": {
            str(n): round(fps / serial, 3) for n, fps in best.items()
        },
        "cpu_count": os.cpu_count(),
    }

    if UPDATE:
        previous = _previous_latest()
        latest = previous.get("latest", {})
        latest["constellation"] = section
        previous["latest"] = latest
        RECORD_PATH.write_text(json.dumps(previous, indent=2) + "\n")

    rows = "  ".join(
        f"{n}w {fps:8.0f} fps" for n, fps in best.items()
    )
    print(
        f"\nconstellation @ {CONSTELLATION_BEAMS} beams x "
        f"{N_VOICE + N_DATA} terminals: {rows}"
    )

    assert aggregate >= CONSTELLATION_FPS_FLOOR, section
