"""Step N beam shards in lockstep groups with cross-beam coupling at barriers.

The :class:`ConstellationRunner` owns one :class:`~repro.constellation.shard.
BeamShard` per beam.  Beams split into ``n_workers`` contiguous, equal
groups, one per shard thread, and each group advances its beams through a
:class:`~repro.sim.macro.LockstepGroup`: all of the group's beams walk
through each macro block together, frame by frame, so the per-frame vector
work every beam repeats on a few rows (CHARISMA's CSI ranking, fast-mode
contention comparisons, the PHY flushes) runs once per frame for the whole
group, while each beam keeps its own random streams, allocation walk and
channel.  Between macro blocks — and only there — the runner applies the
cross-beam couplings (interference offsets, terminal handover) and gauges
the shard threads' step-time imbalance through :mod:`repro.obs.metrics`.
Groups share no mutable state between barriers, and the handover RNG is
consumed serially by the coordinator, so results do not depend on the
worker count.

The shard threads buy no concurrency: the frame loop is interpreter work
on small arrays, which holds the interpreter lock, and every per-beam
random draw hands the lock to the other thread.  On a shared 2-vCPU box
the 100-beam x 100-terminal CHARISMA demo (fast RNG, 64-frame blocks,
handover and interference on; median of five alternating runs) took
5.5 s with one worker and 6.8 s with two when every beam stepped on its
own, and takes 3.6 s and 3.9 s in lockstep groups.

When no coupling is active (one beam, or ``handover_rate == 0`` and
``coupling_db == 0``) each group advances whole warm-up/measured phases in
the blocks ``UplinkSimulationEngine.run()`` would use, which is what makes
the single-beam degenerate case bit-identical to the plain
:class:`~repro.sim.scenario.Scenario` path in parity RNG mode.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, cast

import numpy as np

from repro.config import SimulationParameters
from repro.constellation.coupling import interference_offsets, plan_handovers
from repro.constellation.scenario import ConstellationScenario
from repro.constellation.shard import BeamShard
from repro.metrics.collector import MacStats
from repro.metrics.data import DataMetrics
from repro.metrics.voice import VoiceMetrics
from repro.obs import clock as _clock
from repro.obs import metrics as _metrics
from repro.sim.macro import LockstepGroup
from repro.sim.results import SimulationResult
from repro.sim.rng import child_stream

__all__ = [
    "ConstellationResult",
    "ConstellationRunner",
    "resolve_workers",
    "run_constellation",
    "WORKERS_ENV",
]

#: Environment override for the shard-stepping worker-thread count.
WORKERS_ENV = "REPRO_CONSTELLATION_WORKERS"


def resolve_workers(
    scenario: ConstellationScenario, n_workers: Optional[int] = None
) -> int:
    """Worker-thread count: explicit arg, else env, else a machine default."""
    if n_workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            n_workers = int(env)
    if n_workers is None:
        n_workers = min(scenario.n_beams, os.cpu_count() or 1, 8)
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    return min(int(n_workers), scenario.n_beams)


@dataclass(frozen=True)
class ConstellationResult:
    """Merged plus per-beam results of one constellation run.

    Attributes
    ----------
    scenario:
        The constellation that was simulated.
    merged:
        Constellation-aggregate :class:`SimulationResult` (counters summed,
        delay samples concatenated, shared frame window).  This is what
        flows into the store/serialization path.
    beams:
        One per-beam :class:`SimulationResult`, in beam order.
    handovers:
        Total terminal migrations executed across the whole run.
    n_workers:
        Worker threads (one lockstep beam group each) used to step the
        shards.
    """

    scenario: ConstellationScenario
    merged: SimulationResult
    beams: Tuple[SimulationResult, ...]
    handovers: int
    n_workers: int

    def summary(self) -> Dict[str, object]:
        """Flat summary of the merged result plus constellation extras."""
        summary: Dict[str, object] = dict(self.merged.summary())
        summary["n_beams"] = self.scenario.n_beams
        summary["handovers"] = self.handovers
        return summary


class ConstellationRunner:
    """Advance every beam shard through warm-up and measurement."""

    def __init__(
        self,
        scenario: ConstellationScenario,
        params: Optional[SimulationParameters] = None,
        n_workers: Optional[int] = None,
    ) -> None:
        self.scenario = scenario
        self.params = params if params is not None else SimulationParameters()
        self.n_workers = resolve_workers(scenario, n_workers)
        self.shards: List[BeamShard] = [
            BeamShard(beam, scenario, self.params)
            for beam in range(scenario.n_beams)
        ]
        # Contiguous, equal beam groups, one per worker thread.
        n_beams = scenario.n_beams
        bounds = [
            index * n_beams // self.n_workers
            for index in range(self.n_workers + 1)
        ]
        self.groups: List[LockstepGroup] = [
            LockstepGroup(shard.engine for shard in self.shards[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        self._group_seconds = [0.0] * len(self.groups)
        # Handover decisions are drawn serially by the coordinator from a
        # dedicated labelled stream — independent of every beam's streams
        # and of the worker count.
        self._handover_rng = child_stream(
            np.random.SeedSequence(scenario.seed),  # master-seed child, labelled below; no ambient entropy. lint: allow[RNG001]
            "constellation.handover",
        )
        self.handovers = 0
        self._blocks_done = 0
        self._pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------ API
    def run(self) -> ConstellationResult:
        """Run warm-up plus the measured period on every shard."""
        scenario = self.scenario
        warmup = scenario.warmup_frames(self.params)
        measured = scenario.measured_frames(self.params)
        try:
            if scenario.has_coupling:
                self._run_phase(warmup)
                for shard in self.shards:
                    shard.begin_measurement()
                self._run_phase(measured)
            else:
                # Uncoupled shards advance whole phases in one call each —
                # the exact frame chunking of ``engine.run()``, preserving
                # single-beam bit-identity with the plain Scenario path.
                self._step_all(warmup)
                for shard in self.shards:
                    shard.begin_measurement()
                self._step_all(measured)
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
        beams = tuple(shard.result() for shard in self.shards)
        merged = self._merge(beams)
        self._report_load()
        metrics = _metrics.METRICS
        metrics.gauge("constellation.handovers", float(self.handovers))
        return ConstellationResult(
            scenario=scenario,
            merged=merged,
            beams=beams,
            handovers=self.handovers,
            n_workers=self.n_workers,
        )

    # ------------------------------------------------------------- phases
    def _run_phase(self, n_frames: int) -> None:
        """Advance a phase block by block, coupling at each barrier."""
        block = self.scenario.macro_frames
        remaining = n_frames
        while remaining > 0:
            if self._blocks_done > 0:
                self._apply_coupling()
            step = block if block < remaining else remaining
            self._step_all(step)
            remaining -= step
            self._blocks_done += 1

    def _step_all(self, n_frames: int) -> None:
        """Advance every beam by ``n_frames``, one thread per beam group."""
        if n_frames <= 0:
            return
        groups = self.groups
        if len(groups) == 1:
            self._step_group(0, n_frames)
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=len(groups),
                thread_name_prefix="constellation",
            )
        futures = [
            self._pool.submit(self._step_group, index, n_frames)
            for index in range(len(groups))
        ]
        for future in futures:
            future.result()

    def _step_group(self, index: int, n_frames: int) -> None:
        started = _clock.now()
        self.groups[index].run_frames(n_frames)
        self._group_seconds[index] += _clock.now() - started

    # ----------------------------------------------------------- coupling
    def _apply_coupling(self) -> None:
        """Exchange cross-beam state at a macro-block barrier."""
        scenario = self.scenario
        if scenario.coupling_db > 0.0 and scenario.n_beams > 1:
            loads = np.array(
                [shard.busy_load() for shard in self.shards], dtype=np.float64
            )
            offsets = interference_offsets(
                loads, scenario.reuse_factor, scenario.coupling_db
            )
            for shard, offset in zip(self.shards, offsets):
                shard.set_interference_db(float(offset))
        if scenario.handover_rate > 0.0 and scenario.n_beams > 1:
            eligible = [shard.eligible_handover_ids() for shard in self.shards]
            swaps = plan_handovers(
                eligible, scenario.handover_rate, self._handover_rng
            )
            for (beam_a, local_a), (beam_b, local_b) in swaps:
                state_a = self.shards[beam_a].export_terminal(local_a)
                state_b = self.shards[beam_b].export_terminal(local_b)
                self.shards[beam_a].import_terminal(local_a, state_b)
                self.shards[beam_b].import_terminal(local_b, state_a)
            self.handovers += len(swaps)
            if swaps:
                _metrics.METRICS.inc("constellation.handovers.block", len(swaps))

    def _report_load(self) -> None:
        """Gauge the shard threads' step-time imbalance (max over mean)."""
        seconds = np.array(self._group_seconds)
        mean = float(seconds.mean())
        imbalance = float(seconds.max()) / mean if mean > 0.0 else 1.0
        _metrics.METRICS.gauge("constellation.load_imbalance", imbalance)

    # -------------------------------------------------------------- merge
    def _merge(self, beams: Tuple[SimulationResult, ...]) -> SimulationResult:
        """Fold per-beam results into one constellation-wide result."""
        return SimulationResult(
            scenario=cast(Any, self.scenario),
            voice=VoiceMetrics.combine([beam.voice for beam in beams]),
            data=DataMetrics.combine([beam.data for beam in beams]),
            mac=MacStats.combine([beam.mac for beam in beams]),
        )


def run_constellation(
    scenario: ConstellationScenario,
    params: Optional[SimulationParameters] = None,
    n_workers: Optional[int] = None,
) -> ConstellationResult:
    """Build a :class:`ConstellationRunner`, run it, return its result."""
    return ConstellationRunner(scenario, params, n_workers=n_workers).run()
