"""Macro-stepping correctness: lookahead truncation edges and machinery.

The parity suite (``test_backend_parity.py``) asserts whole-run
bit-identity across block sizes; this module pins the specific events that
truncate or re-align a lookahead block — a contention success mid-block, a
reservation expiring at a block boundary, parity CHARISMA's live CSI draws,
queue-backed frames and the fallbacks that remain — plus the
roll-back/replay pool and the compiled-kernel seam themselves.

Parity-mode runs always block-step, so every reference here is driven one
``engine.step()`` per frame through a block size of 1, and every block size
is set on the engine (``blocked_engine``).
"""

import dataclasses

import numpy as np
import pytest

from repro.accel import HAS_NUMBA, contention_round_scan, voice_generation_offsets
from repro.config import SimulationParameters
from repro.core.charisma import CharismaProtocol
from repro.mac.registry import build_modem
from repro.obs import metrics
from repro.phy.csi import CSIEstimator
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.macro import RandomPool
from repro.sim.rng import RandomStreams
from repro.sim.scenario import Scenario
from tests.utils import blocked_engine

PARAMS = SimulationParameters()
FALLBACK_REASONS = ("queue", "no_lookahead", "contended")


def _per_frame(**kwargs):
    return blocked_engine(Scenario(**kwargs), 1).run()


def _pair(block_frames, **kwargs):
    reference = _per_frame(**kwargs)
    macro = blocked_engine(Scenario(**kwargs), block_frames).run()
    return reference, macro


class TestLookaheadTruncation:
    def test_contention_success_mid_block(self):
        """Winners inside a block truncate the pre-drawn pool exactly.

        A loaded scenario resolves contention successes in nearly every
        block; the per-frame metric streams (not just totals) must align
        across the roll-back/replay boundaries.
        """
        base = dict(protocol="dtdma_fr", n_voice=20, n_data=6,
                    duration_s=0.6, warmup_s=0.1, seed=5)
        engine = blocked_engine(Scenario(**base), 1)
        engines = {1: (engine, engine.run())}
        engine = blocked_engine(Scenario(**base), 16)
        engines[16] = (engine, engine.run())
        reference = engines[1][1]
        macro = engines[16][1]
        # The workload must actually exercise the truncation path:
        # contention happened and produced reservations (winners).
        assert reference.mac.contention_attempts > 0
        assert reference.voice.delivered > 0
        assert reference.summary() == macro.summary()
        assert (
            engines[1][0].collector.voice_loss_events_per_frame
            == engines[16][0].collector.voice_loss_events_per_frame
        )

    @pytest.mark.parametrize("block_frames", (2, 3, 5, 7, 8, 9, 16))
    def test_reservation_boundaries_across_block_phases(self, block_frames):
        """Talkspurt ends / reservation releases land on every possible
        position relative to block boundaries as the block size varies;
        each must re-align the holder set without drift."""
        base = dict(protocol="rmav", n_voice=14, n_data=0,
                    duration_s=0.5, warmup_s=0.1, seed=2)
        reference, macro = _pair(block_frames, **base)
        assert reference.summary() == macro.summary()

    def test_macro_frames_exceeding_measured_frames(self):
        """Blocks clamp to the remaining warm-up/measured frame counts."""
        base = dict(protocol="dtdma_vr", n_voice=8, n_data=2,
                    duration_s=0.1, warmup_s=0.025, seed=4)
        reference, macro = _pair(64, **base)
        assert reference.summary() == macro.summary()
        engine = blocked_engine(Scenario(**base), 64)
        engine.run()
        scenario = Scenario(**base)
        assert engine.frame_index == (
            scenario.warmup_frames(PARAMS) + scenario.measured_frames(PARAMS)
        )

    def test_queue_pressure_toggles_fallback(self):
        """With the request queue enabled, queue-backed frames run the
        inline FCFS backlog service and drained-queue frames the generic
        inline frame — the switches between the two stay exact."""
        base = dict(protocol="dtdma_fr", n_voice=40, n_data=10,
                    use_request_queue=True, duration_s=0.4, warmup_s=0.1,
                    seed=13)
        reference, macro = _pair(16, **base)
        assert reference.mac.mean_queue_length > 0  # queue actually used
        assert reference.summary() == macro.summary()

    def test_large_talking_population_uses_batched_schedule(self):
        """Populations with >=64 simultaneous talkspurts route gap
        generation through the accel kernel — still bit-identical to
        sequential advancing."""
        from repro.traffic.population import TerminalPopulation

        def build():
            population = TerminalPopulation(
                PARAMS, 120, 0, np.random.default_rng(17)
            )
            # Force a large talking set with staggered phases and spread
            # the next source events out so gap processing engages.
            rng = np.random.default_rng(99)
            population.in_talkspurt[:100] = True
            population.frames_since_packet[:100] = rng.integers(0, 40, 100)
            population.countdown[:] = rng.integers(3, 60, 120)
            return population

        sequential = build()
        planned = build()
        n_frames = 48
        for frame in range(n_frames):
            sequential.advance_frame(frame)
        plan = planned.plan_frames(0, n_frames)
        for frame in range(n_frames):
            planned.apply_planned_frame(plan, frame)
        assert sequential.voice_generated.sum() > 200  # schedule was busy
        for name in ("occupancy", "voice_generated", "in_talkspurt",
                     "countdown", "frames_since_packet", "head_created"):
            assert np.array_equal(
                getattr(sequential, name), getattr(planned, name)
            ), name
        assert sequential._segments == planned._segments

    def test_interleaved_step_calls_resync_mirrors(self):
        """Frames advanced through engine.step() between run_frames calls
        invalidate the runner's incremental mirrors — the mixed schedule
        must still be bit-identical to pure per-frame stepping."""
        base = dict(protocol="dtdma_fr", n_voice=16, n_data=4,
                    duration_s=0.6, warmup_s=0.0, seed=8)
        mixed = blocked_engine(Scenario(**base), 16)
        mixed.run_frames(96)
        for _ in range(40):
            mixed.step()
        mixed.run_frames(104)
        pure = UplinkSimulationEngine(Scenario(**base), PARAMS)
        for _ in range(240):
            pure.step()
        assert mixed.collect_results().summary() == pure.collect_results().summary()

    def test_large_population_path_stays_json_safe(self):
        """Above the bulk-tolist threshold (>256 terminals) the fast path
        reads occupancy from the array; stat records must stay plain ints
        (JSON/store safety) and results bit-identical."""
        import json

        base = dict(protocol="dtdma_vr", n_voice=240, n_data=40,
                    duration_s=0.15, warmup_s=0.05, seed=3)
        reference, macro = _pair(16, **base)
        assert reference.summary() == macro.summary()
        json.dumps(macro.summary())  # would raise on numpy scalar leakage

    def test_record_block_rejects_negative_counters(self):
        from repro.metrics.collector import MetricsCollector

        collector = MetricsCollector(PARAMS, 8)
        with pytest.raises(ValueError, match="non-negative"):
            collector.record_block([[0, 0, 0, 0, 0, -1, 0]])

    def test_macro_frames_validation(self):
        with pytest.raises(ValueError, match="macro_frames"):
            Scenario(protocol="rmav", n_voice=1, n_data=0, macro_frames=0)


def _run_counting_fallbacks(engine):
    """Run ``engine``; return its result and fallback frames per reason."""
    with metrics.recording() as registry:
        result = engine.run()
    counts = {reason: registry.counter("macro.fallback_frames." + reason)
              for reason in FALLBACK_REASONS}
    assert sum(counts.values()) == registry.counter("macro.fallback_frames")
    return result, counts


def _assert_same_run(reference_engine, reference, engine, result):
    """Same results, same per-frame streams, same generator positions."""
    assert reference.summary() == result.summary()
    assert (reference_engine.collector.voice_loss_events_per_frame
            == engine.collector.voice_loss_events_per_frame)
    assert (reference_engine.collector.data_delivered_per_frame
            == engine.collector.data_delivered_per_frame)
    for stream in ("rng", "contention_rng"):
        assert (getattr(reference_engine.protocol, stream).bit_generator.state
                == getattr(engine.protocol, stream).bit_generator.state)


class TestInlineFrames:
    """Parity CHARISMA frames and queue-backed FCFS frames run inside the
    macro block, and still match per-frame stepping exactly."""

    CHARISMA = dict(protocol="charisma", n_voice=40, n_data=10,
                    duration_s=0.75, warmup_s=0.25, seed=9)

    @pytest.mark.parametrize("queue", (False, True))
    @pytest.mark.parametrize("block_frames", (2, 16, 64))
    def test_parity_charisma_runs_inline(self, block_frames, queue):
        # Three information slots keep winners waiting, so the queue-on
        # leg really exercises CHARISMA's queue-backed (fallback) frames.
        params = dataclasses.replace(PARAMS, n_info_slots=3)
        scenario = Scenario(use_request_queue=queue, **self.CHARISMA)
        reference_engine = blocked_engine(scenario, 1, params)
        reference = reference_engine.run()
        engine = blocked_engine(scenario, block_frames, params)
        result, fallbacks = _run_counting_fallbacks(engine)
        assert engine._macro._supported
        assert engine._macro._csi_pool is None  # live parity draws
        assert reference.mac.contention_attempts > 0
        assert reference.voice.delivered > 0
        _assert_same_run(reference_engine, reference, engine, result)
        # Only queue-backed CHARISMA frames still fall back.
        assert fallbacks["no_lookahead"] == fallbacks["contended"] == 0
        if queue:
            assert reference.mac.mean_queue_length > 0
            assert 0 < fallbacks["queue"] < engine.frame_index
        else:
            assert fallbacks["queue"] == 0

    def test_parity_charisma_perfect_csi_runs_inline(self):
        """With noiseless estimates the inline frame draws no CSI noise at
        all — still exactly what the per-frame kernel does."""
        scenario = Scenario(**self.CHARISMA)
        engines = [blocked_engine(scenario, block) for block in (1, 16)]
        for engine in engines:
            engine.protocol.csi_estimator._perfect = True
        reference = engines[0].run()
        result, fallbacks = _run_counting_fallbacks(engines[1])
        assert engines[1]._macro._supported
        assert engines[1]._macro._csi_std == 0.0
        assert sum(fallbacks.values()) == 0
        _assert_same_run(engines[0], reference, engines[1], result)

    def test_custom_csi_estimator_falls_back(self):
        """The inline frame computes estimates itself, so a caller-supplied
        estimator keeps every frame on the protocol's own kernel."""
        scenario = Scenario(**self.CHARISMA)

        def custom_engine():
            streams = RandomStreams(scenario.seed)
            rng = streams["mac"]
            estimator = CSIEstimator(
                n_pilot_symbols=PARAMS.pilot_symbols_per_request,
                mean_snr_db=PARAMS.mean_snr_db,
                validity_frames=PARAMS.csi_validity_frames,
                rng=rng,
            )
            protocol = CharismaProtocol(
                PARAMS, build_modem("charisma", PARAMS), rng,
                csi_estimator=estimator,
            )
            return UplinkSimulationEngine(scenario, PARAMS, protocol=protocol,
                                          streams=streams)

        engine = custom_engine()
        engine.MACRO_BLOCK_FRAMES = 16
        result, fallbacks = _run_counting_fallbacks(engine)
        assert not engine._macro._supported
        assert fallbacks == {"queue": 0, "no_lookahead": engine.frame_index,
                             "contended": 0}
        # The custom estimator equals the default one, so the fallback run
        # also matches the default engine stepped per frame.
        reference_engine = blocked_engine(scenario, 1)
        _assert_same_run(reference_engine, reference_engine.run(), engine,
                         result)

    @pytest.mark.parametrize("capacity", (PARAMS.request_queue_capacity, 2))
    @pytest.mark.parametrize("block_frames", (2, 16, 64))
    @pytest.mark.parametrize("protocol", ("dtdma_vr", "dtdma_fr", "rama"))
    def test_queue_backed_fcfs_frames_run_inline(self, protocol, block_frames,
                                                 capacity):
        """Backlog service, re-queueing, expiry pruning and (at capacity
        2) rejected requests, all inside the block.  Two information slots
        against twenty request minislots keep requests queued past their
        voice deadlines."""
        params = dataclasses.replace(PARAMS, n_info_slots=2,
                                     n_request_slots=20,
                                     request_queue_capacity=capacity)
        scenario = Scenario(protocol=protocol, n_voice=40, n_data=10,
                            use_request_queue=True, duration_s=1.0,
                            warmup_s=0.25, seed=9)
        engines = [blocked_engine(scenario, block, params)
                   for block in (1, block_frames)]
        spies = [self._spy_queue(engine) for engine in engines]
        reference = engines[0].run()
        result, fallbacks = _run_counting_fallbacks(engines[1])
        assert reference.mac.mean_queue_length > 1.0
        assert sum(fallbacks.values()) == 0
        _assert_same_run(engines[0], reference, engines[1], result)
        assert spies[0] == spies[1]
        assert spies[0]["expired"] > 0
        assert (spies[0]["rejected"] > 0) == (capacity == 2)

    @staticmethod
    def _spy_queue(engine):
        """Tally the requests the engine's queue rejects and expires."""
        queue = engine.protocol.request_queue
        extend, drop_expired = queue.extend, queue.drop_expired
        tally = {"rejected": 0, "expired": 0}

        def counting_extend(requests):
            requests = list(requests)
            accepted = extend(requests)
            tally["rejected"] += len(requests) - accepted
            return accepted

        def counting_drop_expired(frame):
            dropped = drop_expired(frame)
            tally["expired"] += dropped
            return dropped

        queue.extend = counting_extend
        queue.drop_expired = counting_drop_expired
        return tally


class TestMidBlockTruncationProperty:
    """Property: a mid-block contention win truncates the pre-drawn pool to
    exactly the consumed prefix.

    DRMA and RAMA resolve contended frames inline (winners re-enter the
    same frame's pending pool, deep data winners span several converted
    slots), so a block's pool consumption is data-dependent and truncation
    happens constantly.  If the roll-back/replay ever returned one draw too
    many or too few, the shared generator would leave the run in a state no
    per-frame execution can reach — so beyond summary bit-identity, the
    *generator states themselves* must converge for every block size.
    """

    @pytest.mark.parametrize("block_frames", (4, 16, 64))
    @pytest.mark.parametrize("protocol", ("drma", "rama"))
    def test_winner_reentry_reconsumes_exactly_the_used_prefix(
        self, protocol, block_frames
    ):
        base = dict(protocol=protocol, n_voice=24, n_data=6,
                    duration_s=0.5, warmup_s=0.1, seed=11)
        reference_engine = blocked_engine(Scenario(**base), 1)
        reference = reference_engine.run()
        macro_engine = blocked_engine(Scenario(**base), block_frames)
        macro = macro_engine.run()
        # The workload must actually exercise winner re-entry: the macro
        # path engaged, contention resolved winners and voice flowed.
        assert macro_engine._macro is not None
        assert macro_engine._macro._supported
        assert reference.mac.contention_attempts > 0
        assert reference.voice.delivered > 0
        assert reference.summary() == macro.summary()
        # The property itself: after the run, the pooled generator sits at
        # exactly the position the live per-frame draws leave it — the
        # block's unconsumed suffix was returned, the consumed prefix
        # replayed, nothing more.
        assert (
            reference_engine.protocol.contention_rng.bit_generator.state
            == macro_engine.protocol.contention_rng.bit_generator.state
        )
        # And both streams keep producing identical draws from here on.
        assert np.array_equal(
            reference_engine.protocol.contention_rng.random(16),
            macro_engine.protocol.contention_rng.random(16),
        )


class TestRandomPool:
    def test_partitioned_takes_match_direct_draws(self):
        pool_rng = np.random.default_rng(42)
        direct_rng = np.random.default_rng(42)
        pool = RandomPool(pool_rng, chunk=16)
        taken = np.concatenate([pool.take(5), pool.take(30), pool.take(7)])
        assert np.array_equal(taken, direct_rng.random(42))

    def test_close_replays_exactly_the_consumed_prefix(self):
        pool_rng = np.random.default_rng(7)
        direct_rng = np.random.default_rng(7)
        pool = RandomPool(pool_rng, chunk=64)
        pool.take(10)
        pool.close()
        direct_rng.random(10)
        # After closing, both generators must continue identically.
        assert np.array_equal(pool_rng.random(20), direct_rng.random(20))

    def test_unwind_returns_draws_to_the_stream(self):
        pool_rng = np.random.default_rng(3)
        direct_rng = np.random.default_rng(3)
        pool = RandomPool(pool_rng, chunk=64)
        first = pool.take(12)
        pool.unwind(4)  # last 4 were never really consumed
        expected_first = direct_rng.random(12)
        assert np.array_equal(first, expected_first)
        pool.close()
        # Only 8 draws were consumed; the direct stream re-aligns by
        # rewinding its own position equivalently.
        aligned = np.random.default_rng(3)
        aligned.random(8)
        assert np.array_equal(pool_rng.random(5), aligned.random(5))

    def test_close_without_use_is_a_noop(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        RandomPool(rng).close()
        assert rng.bit_generator.state == state


class TestAccelKernels:
    def test_contention_round_scan_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rows = int(rng.integers(1, 12))
            k = int(rng.integers(1, 30))
            draws = rng.random((rows, k))
            probs = rng.random(k)
            counts, row, col = contention_round_scan(draws, probs)
            hits = draws < probs
            expected_counts = hits.sum(axis=1)
            singles = np.nonzero(expected_counts == 1)[0]
            expected_row = int(singles[0]) if singles.shape[0] else -1
            if expected_row >= 0:
                assert row == expected_row
                assert col == int(np.argmax(hits[expected_row]))
                assert np.array_equal(
                    counts[: row + 1], expected_counts[: row + 1]
                )
            else:
                assert (row, col) == (-1, -1)
                assert np.array_equal(counts, expected_counts)

    def test_voice_generation_offsets_matches_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(0, 20))
            period = int(rng.integers(1, 10))
            gap = int(rng.integers(1, 40))
            since = rng.integers(0, 100, size=n)
            offsets, rows = voice_generation_offsets(since, period, gap)
            expected = []
            for i in range(n):
                o = (-int(since[i])) % period
                while o < gap:
                    expected.append((o, i))
                    o += period
            got = sorted(zip(offsets.tolist(), rows.tolist()), key=lambda t: (t[1], t[0]))
            assert got == sorted(expected, key=lambda t: (t[1], t[0]))

    def test_numba_is_optional(self):
        # The container ships without numba; the fallback must be active
        # and the flag accurate either way.
        import repro.accel.kernels as kernels

        assert kernels.HAS_NUMBA == (kernels.numba is not None)


class TestDispatchCounter:
    def test_counts_per_phase_and_floor_drops_under_macro(self):
        counts = {}
        scenario = Scenario(protocol="rmav", n_voice=16, n_data=4,
                            duration_s=0.25, warmup_s=0.0, seed=1)
        for label in ("per_frame", "macro"):
            engine = blocked_engine(scenario, 16)
            engine.enable_phase_timing(count_dispatches=True)
            try:
                if label == "per_frame":
                    for _ in range(100):
                        engine.step()
                else:
                    engine.run_frames(100)
                counts[label] = dict(engine.dispatch_counts)
            finally:
                engine.disable_phase_timing()
        assert counts["per_frame"]["traffic"] > 0
        assert counts["per_frame"]["phy"] > 0
        total_per_frame = sum(counts["per_frame"].values())
        total_macro = sum(counts["macro"].values())
        assert total_macro < total_per_frame
