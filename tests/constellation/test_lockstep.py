"""Lockstep beam groups are bit-identical to stepping every shard alone.

The constellation runner advances its beams in lockstep groups
(:class:`repro.sim.macro.LockstepGroup`), fusing the per-frame vector work
of a group's beams.  The oracle here is the per-shard path: every beam's
engine advanced on its own by ``BeamShard.run_frames`` through the same
coupling barriers.  For every protocol, RNG mode, request-queue setting,
coupling setting and worker count (3 workers split 7 beams 2/2/3) the two
must agree on:

* merged results, per-beam results and handover counts;
* every beam's grant trace — the transmissions its macro runner deferred
  to the PHY, in order, with their packet counts, modes and channels;
* every beam's final random-stream states and per-terminal counters.

Two dense CHARISMA cases (24 beams of the benchmark's 100-terminal cell)
give the group ranking hundreds of rows per frame, where an unstable
cross-beam sort would reorder tied requests.
"""

import contextlib
import functools
import math

import pytest

from repro.config import SimulationParameters
from repro.constellation import ConstellationRunner, ConstellationScenario
from repro.mac.registry import available_protocols
from repro.obs.metrics import MetricsRegistry, recording
from repro.phy.error_model import PacketErrorModel
from repro.sim import macro

PARAMS = SimulationParameters()

COUPLING = {
    "coupled": dict(macro_frames=8, handover_rate=0.1, coupling_db=2.0,
                    reuse_factor=2),
    "uncoupled": dict(macro_frames=16),
}

CASES = [
    (protocol, rng_mode, queue, coupling)
    for protocol in available_protocols()
    for rng_mode in ("parity", "fast")
    for queue in (False, True)
    for coupling in COUPLING
]


def case_id(protocol, rng_mode, queue, coupling):
    return f"{protocol}/{rng_mode}/{'queue' if queue else 'noqueue'}/{coupling}"


def scenario(protocol, rng_mode, queue, coupling) -> ConstellationScenario:
    return ConstellationScenario(
        protocol=protocol, n_beams=7, n_voice=12, n_data=4,
        use_request_queue=queue, duration_s=0.3, warmup_s=0.1, seed=11,
        rng_mode=rng_mode, **COUPLING[coupling],
    )


def dense_scenario(rng_mode) -> ConstellationScenario:
    return ConstellationScenario(
        protocol="charisma", n_beams=24, n_voice=80, n_data=20,
        duration_s=0.25, warmup_s=0.05, seed=3, rng_mode=rng_mode,
        macro_frames=16, handover_rate=0.02, coupling_db=1.0, reuse_factor=4,
    )


class PerShardRunner(ConstellationRunner):
    """The oracle: each beam steps alone between the coupling barriers."""

    def _step_all(self, n_frames: int) -> None:
        for shard in self.shards:
            shard.run_frames(n_frames)


@contextlib.contextmanager
def grant_traces():
    """Record, per beam, every transmission its macro runner resolves."""
    traces = {}
    original = macro._flush_runners

    def recording_flush(runners, clock):
        for runner in runners:
            traces.setdefault(runner._engine_ref().beam, []).extend(zip(
                runner._phy_tids,
                runner._phy_counts,
                [None if math.isnan(t) else t for t in runner._phy_thrs],
                runner._phy_chans,
            ))
        return original(runners, clock)

    macro._flush_runners = recording_flush
    try:
        yield traces
    finally:
        macro._flush_runners = original


def end_state(runner):
    """Every beam's final stream states and per-terminal counters."""
    states = []
    for shard in runner.shards:
        engine = shard.engine
        generators = [engine.streams[name] for name in engine.streams.names]
        generators.append(engine.protocol.contention_rng)
        estimator = getattr(engine.protocol, "csi_estimator", None)
        if estimator is not None:
            generators.append(estimator.noise_rng)
        population = engine.population
        states.append((
            [repr(g.bit_generator.state) for g in generators],
            [getattr(population, name).tolist() for name in (
                "occupancy", "head_created", "voice_delivered",
                "voice_errored", "voice_dropped", "data_delivered",
            )],
            engine.protocol.reservations.holders(),
        ))
    return states


def run(runner_cls, constellation, n_workers):
    with grant_traces() as traces:
        runner = runner_cls(constellation, PARAMS, n_workers=n_workers)
        result = runner.run()
    return result, traces, end_state(runner)


@functools.lru_cache(maxsize=None)
def per_shard(constellation):
    return run(PerShardRunner, constellation, 1)


def assert_matches_per_shard(constellation, n_workers):
    result, traces, state = run(ConstellationRunner, constellation, n_workers)
    oracle, oracle_traces, oracle_state = per_shard(constellation)
    assert result.beams == oracle.beams
    assert result.merged == oracle.merged
    assert result.handovers == oracle.handovers
    assert traces == oracle_traces
    assert state == oracle_state


@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("case", CASES, ids=[case_id(*case) for case in CASES])
def test_lockstep_matches_per_shard(case, n_workers):
    assert_matches_per_shard(scenario(*case), n_workers)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("rng_mode", ["parity", "fast"])
def test_dense_lockstep_matches_per_shard(rng_mode, n_workers):
    assert_matches_per_shard(dense_scenario(rng_mode), n_workers)


def test_groups_are_contiguous_and_equal():
    runner = ConstellationRunner(scenario("rama", "fast", False, "coupled"),
                                 PARAMS, n_workers=3)
    engines = [shard.engine for shard in runner.shards]
    grouped = [engine for group in runner.groups for engine in group.engines]
    assert grouped == engines
    assert [len(group.engines) for group in runner.groups] == [2, 2, 3]


def test_queue_cases_exercise_fallback_frames():
    registry = MetricsRegistry()
    with recording(registry):
        ConstellationRunner(scenario("charisma", "fast", True, "coupled"),
                            PARAMS, n_workers=2).run()
    assert registry.snapshot()["counters"]["macro.fallback_frames.queue"] > 0


@pytest.mark.parametrize("rng_mode", ["parity", "fast"])
def test_group_flushes_fuse_phy_calls(monkeypatch, rng_mode):
    """A group resolves its beams' transmissions in shared PHY calls."""
    calls = []
    original = PacketErrorModel.transmit_batch

    def counting(self, *args, **kwargs):
        calls.append(kwargs.get("streams"))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PacketErrorModel, "transmit_batch", counting)
    case = ("charisma", rng_mode, False, "coupled")
    PerShardRunner(scenario(*case), PARAMS, n_workers=1).run()
    per_shard_calls = len(calls)
    calls.clear()
    ConstellationRunner(scenario(*case), PARAMS, n_workers=1).run()
    assert len(calls) * 2 < per_shard_calls
    assert any(streams is not None and len(streams) > 1 for streams in calls)
