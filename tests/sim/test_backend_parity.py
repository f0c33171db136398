"""Small-scenario parity checks against committed golden digests.

Every scenario here was once run on two engines — the columnar one and an
independently written per-terminal object engine — and required to give
**identical** ``SimulationResult`` values.  The object engine is gone; its
role as reference passed to the digests in ``golden_digests_differential.json``,
recorded from per-frame stepping while both engines still agreed (see
``test_golden_digests.py``).  Every protocol, both queue variants, several
seeds, single-class and empty populations and one frame-by-frame outcome
stream are pinned.

Parity-mode runs block-step by default, so the per-frame legs here drive
``engine.step()`` through a block size of 1 and every block size is set on
the engine (``blocked_engine``); the macro checks compare block-stepped
runs against the same per-frame digests.
"""

import pytest

from repro.config import SimulationParameters
from repro.mac.registry import available_protocols
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.runner import run_simulation
from repro.sim.scenario import Scenario
from tests.sim.test_golden_digests import (
    differential_cases,
    differential_digest,
    differential_digests,
    result_digest,
)
from tests.utils import blocked_engine

PARAMS = SimulationParameters()


def scenario_of(key: str) -> Scenario:
    return Scenario(**differential_cases()[key])


def assert_per_frame_golden(key: str) -> None:
    """A case's per-frame digest equals the committed one."""
    assert differential_digest(key, scenario_of(key)) == differential_digests()[key], key


class TestBackendParity:
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_identical_results_per_protocol(self, protocol):
        assert_per_frame_golden(f"per_protocol/{protocol}")

    @pytest.mark.parametrize("seed", [0, 3, 12345])
    def test_identical_across_seeds(self, seed):
        assert_per_frame_golden(f"charisma/seed{seed}")

    def test_identical_without_queue(self):
        assert_per_frame_golden("dtdma_vr/noqueue")

    def test_identical_voice_only_and_data_only(self):
        assert_per_frame_golden("dtdma_fr/nv10_nd0")
        assert_per_frame_golden("dtdma_fr/nv0_nd4")

    def test_empty_population(self):
        assert_per_frame_golden("charisma/empty")

    def test_stepwise_frame_outcomes_match(self):
        """Per-frame MAC decisions match, not only the final aggregates."""
        assert_per_frame_golden("stepwise/charisma")


class TestMacroStepParity:
    """Macro-stepped blocks must be bit-identical to per-frame stepping.

    The macro engine re-partitions every random stream's draws (traffic
    plans, contention pools, deferred PHY batches) without re-ordering any
    stream, so in parity mode the results must match exactly for every
    block size, the default one included.
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
    def test_macro_matches_golden_digest(self, protocol):
        key = f"macro/{protocol}"
        macro = blocked_engine(scenario_of(key), 16).run()
        assert result_digest(macro) == differential_digests()[key]

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
    """The warm-up epoch-tagging semantics must hold on array counters."""

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_outcome_conservation_with_warmup_backlog(self, protocol):
        scenario = Scenario(
            protocol=protocol, n_voice=10, n_data=4,
            use_request_queue=(protocol != "rmav"),
            duration_s=0.4, warmup_s=0.5, seed=9,
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
                     duration_s=0.5, warmup_s=0.0, seed=3),
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
        with pytest.raises(ValueError, match="'object' was removed"):
            Scenario(protocol="charisma", n_voice=1, n_data=0,
                     engine_backend="object")
