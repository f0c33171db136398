"""Differential tests: the columnar and object engine backends must agree.

The columnar backend's kernels preserve the object backend's RNG call order
everywhere (batched draws are stream-compatible with their scalar
equivalents), so the two backends are required to produce **identical**
``SimulationResult`` values under a common seed — not merely statistically
equivalent ones.  Every protocol, both queue variants, and several seeds are
exercised.

Parity-mode runs block-step by default, so the per-frame legs here drive
``engine.step()`` through a block size of 1 and every block size is set on
the engine (``blocked_engine``).
"""

import pytest

from repro.config import SimulationParameters
from repro.mac.registry import available_protocols
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.runner import run_simulation
from repro.sim.scenario import Scenario
from tests.utils import blocked_engine

PARAMS = SimulationParameters()


def run_pair(**kwargs):
    """Object and columnar backends, both stepped frame by frame."""
    results = {}
    for backend in ("object", "columnar"):
        scenario = Scenario(engine_backend=backend, **kwargs)
        results[backend] = blocked_engine(scenario, 1).run()
    return results["object"], results["columnar"]


class TestBackendParity:
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_identical_results_per_protocol(self, protocol):
        obj, col = run_pair(
            protocol=protocol, n_voice=12, n_data=3,
            use_request_queue=(protocol != "rmav"),
            duration_s=0.6, warmup_s=0.2, seed=7,
        )
        assert obj.voice == col.voice
        assert obj.mac == col.mac
        assert obj.data.generated == col.data.generated
        assert obj.data.delivered == col.data.delivered
        assert obj.data.retransmissions == col.data.retransmissions
        assert obj.data.delay_frames == col.data.delay_frames

    @pytest.mark.parametrize("seed", [0, 3, 12345])
    def test_identical_across_seeds(self, seed):
        obj, col = run_pair(
            protocol="charisma", n_voice=10, n_data=4,
            use_request_queue=True, duration_s=0.5, warmup_s=0.15, seed=seed,
        )
        assert obj.summary() == col.summary()

    def test_identical_without_queue(self):
        obj, col = run_pair(
            protocol="dtdma_vr", n_voice=14, n_data=2,
            use_request_queue=False, duration_s=0.5, warmup_s=0.1, seed=2,
        )
        assert obj.summary() == col.summary()

    def test_identical_voice_only_and_data_only(self):
        for n_voice, n_data in ((10, 0), (0, 4)):
            obj, col = run_pair(
                protocol="dtdma_fr", n_voice=n_voice, n_data=n_data,
                duration_s=0.4, warmup_s=0.1, seed=5,
            )
            assert obj.summary() == col.summary()

    def test_empty_population(self):
        obj, col = run_pair(
            protocol="charisma", n_voice=0, n_data=0,
            duration_s=0.3, warmup_s=0.0, seed=0,
        )
        assert obj.summary() == col.summary()

    def test_stepwise_frame_outcomes_match(self):
        """Per-frame MAC decisions agree, not only the final aggregates."""
        engines = {
            backend: UplinkSimulationEngine(
                Scenario(protocol="charisma", n_voice=8, n_data=2,
                         duration_s=0.5, warmup_s=0.1, seed=4,
                         engine_backend=backend),
                PARAMS,
            )
            for backend in ("object", "columnar")
        }
        for _ in range(150):
            a = engines["object"].step()
            b = engines["columnar"].step()
            assert a.frame_index == b.frame_index
            assert a.allocations == b.allocations
            assert a.acknowledgements == b.acknowledgements
            assert a.contention_attempts == b.contention_attempts
            assert a.contention_collisions == b.contention_collisions
            assert a.queued_requests == b.queued_requests


class TestMacroStepParity:
    """Macro-stepped blocks must be bit-identical to per-frame stepping.

    The macro engine re-partitions every random stream's draws (traffic
    plans, contention pools, deferred PHY batches) without re-ordering any
    stream, so in parity mode the results — and the object backend's —
    must match exactly for every block size, the default one included.
    """

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_macro_block_sizes_bit_identical(self, protocol):
        scenario = Scenario(
            protocol=protocol, n_voice=12, n_data=3,
            use_request_queue=(protocol != "rmav"),
            duration_s=0.6, warmup_s=0.2, seed=7,
        )
        reference = blocked_engine(scenario, 1).run()
        default = run_simulation(scenario, PARAMS)
        assert default.summary() == reference.summary(), protocol
        for block_frames in (4, 16):
            result = blocked_engine(scenario, block_frames).run()
            assert result.summary() == reference.summary(), (
                protocol, block_frames,
            )

    @pytest.mark.parametrize("protocol", ("rmav", "dtdma_vr", "drma"))
    def test_macro_matches_object_backend(self, protocol):
        base = dict(
            protocol=protocol, n_voice=10, n_data=4,
            use_request_queue=(protocol != "rmav"),
            duration_s=0.5, warmup_s=0.15, seed=3,
        )
        obj = run_simulation(
            Scenario(**base, engine_backend="object"), PARAMS
        )
        macro = blocked_engine(Scenario(**base), 16).run()
        assert obj.summary() == macro.summary()

    def test_macro_per_frame_collector_streams_match(self):
        """Not just the aggregates: the per-frame metric streams align,
        so every lookahead truncation lands losses in the right frame."""
        base = dict(protocol="dtdma_vr", n_voice=16, n_data=4,
                    duration_s=0.6, warmup_s=0.1, seed=11)
        per_frame = blocked_engine(Scenario(**base), 1)
        per_frame.run()
        macro = blocked_engine(Scenario(**base), 16)
        macro.run()
        engines = {1: per_frame.collector, 16: macro.collector}
        assert (
            engines[1].data_delivered_per_frame
            == engines[16].data_delivered_per_frame
        )
        assert (
            engines[1].voice_loss_events_per_frame
            == engines[16].voice_loss_events_per_frame
        )


class TestColumnarMeasurementWindow:
    """The PR-2 warm-up epoch-tagging semantics must hold on array counters."""

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_outcome_conservation_with_warmup_backlog(self, protocol):
        scenario = Scenario(
            protocol=protocol, n_voice=10, n_data=4,
            use_request_queue=(protocol != "rmav"),
            duration_s=0.4, warmup_s=0.5, seed=9,
            engine_backend="columnar",
        )
        result = run_simulation(scenario, PARAMS)
        voice, data = result.voice, result.data
        assert voice.delivered + voice.errored + voice.dropped <= voice.generated
        assert data.delivered <= data.generated
        assert len(data.delay_frames) == data.delivered
        assert all(delay >= 0 for delay in data.delay_frames)

    def test_window_reset_clears_columnar_counters(self):
        engine = UplinkSimulationEngine(
            Scenario(protocol="dtdma_fr", n_voice=8, n_data=2,
                     duration_s=0.5, warmup_s=0.0, seed=3,
                     engine_backend="columnar"),
            PARAMS,
        )
        for _ in range(120):
            engine.step()
        population = engine.population
        assert population.voice_generated.sum() > 0
        population.begin_measurement(engine.frame_index)
        assert population.voice_generated.sum() == 0
        assert population.voice_loss_total == 0
        assert population.all_data_delays() == []
        # Pre-window backlog may still be buffered — its later outcomes must
        # not be counted against the fresh window.
        engine.collector.reset()
        for _ in range(120):
            engine.step()
        result = engine.collect_results()
        voice = result.voice
        assert voice.delivered + voice.errored + voice.dropped <= voice.generated


class TestDenseIdValidation:
    def test_engine_rejects_sparse_terminal_ids(self):
        import numpy as np

        from repro.traffic.terminal import VoiceTerminal

        scenario = Scenario(protocol="dtdma_fr", n_voice=2, n_data=0,
                            duration_s=0.1, warmup_s=0.0,
                            engine_backend="object")
        engine = UplinkSimulationEngine(scenario, PARAMS)
        sparse = [VoiceTerminal(5, PARAMS, np.random.default_rng(0))]
        with pytest.raises(ValueError, match="dense 0..n-1"):
            engine._validate_dense_ids(sparse)

    def test_snapshot_rejects_out_of_range_ids(self):
        from tests.utils import make_snapshot

        snapshot = make_snapshot([1.0, 2.0, 0.5])
        assert snapshot.amplitude_of(2) == 0.5
        with pytest.raises(IndexError, match="dense"):
            snapshot.amplitude_of(3)
        with pytest.raises(IndexError, match="dense"):
            snapshot.amplitude_of(-1)
        with pytest.raises(IndexError, match="dense"):
            snapshot.snr_db_of(17)

    def test_scenario_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="engine_backend"):
            Scenario(protocol="charisma", n_voice=1, n_data=0,
                     engine_backend="gpu")
