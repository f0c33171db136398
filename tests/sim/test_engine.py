"""Integration tests of the frame-synchronous engine and the runner."""

import gc
import weakref

import pytest

from repro.config import SimulationParameters
from repro.mac.registry import available_protocols
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.runner import run_simulation
from repro.sim.scenario import Scenario

PARAMS = SimulationParameters()
SHORT = dict(duration_s=1.0, warmup_s=0.25)


def scenario(protocol="charisma", n_voice=8, n_data=2, queue=False, seed=1, **kw):
    merged = {**SHORT, **kw}
    return Scenario(protocol=protocol, n_voice=n_voice, n_data=n_data,
                    use_request_queue=queue, seed=seed, **merged)


class TestEngineBasics:
    def test_step_advances_frame_counter(self):
        engine = UplinkSimulationEngine(scenario(), PARAMS)
        engine.step()
        engine.step()
        assert engine.frame_index == 2

    def test_run_returns_consistent_result(self):
        result = run_simulation(scenario(), PARAMS)
        assert 0.0 <= result.voice.loss_rate <= 1.0
        assert result.data.throughput_packets_per_frame >= 0.0
        assert result.mac.n_frames == scenario().measured_frames(PARAMS)

    def test_reproducible_with_same_seed(self):
        a = run_simulation(scenario(seed=5), PARAMS)
        b = run_simulation(scenario(seed=5), PARAMS)
        assert a.summary() == b.summary()

    def test_different_seeds_differ(self):
        a = run_simulation(scenario(seed=5, n_voice=20), PARAMS)
        b = run_simulation(scenario(seed=6, n_voice=20), PARAMS)
        assert a.summary() != b.summary()

    def test_zero_population_runs(self):
        result = run_simulation(scenario(n_voice=0, n_data=0), PARAMS)
        assert result.voice.generated == 0
        assert result.data.generated == 0

    def test_speed_override_used(self):
        fast = UplinkSimulationEngine(scenario(mobile_speed_kmh=80.0), PARAMS)
        assert fast.doppler.speed_kmh == 80.0
        default = UplinkSimulationEngine(scenario(), PARAMS)
        assert default.doppler.speed_kmh == PARAMS.mobile_speed_kmh


class TestEngineInvariants:
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_every_protocol_runs_and_accounts_packets(self, protocol):
        queue = protocol != "rmav"
        result = run_simulation(
            scenario(protocol=protocol, n_voice=12, n_data=3, queue=queue), PARAMS
        )
        voice = result.voice
        # every generated voice packet is eventually delivered, errored,
        # dropped, or still sitting in a buffer at the end of the run
        assert voice.delivered + voice.errored + voice.dropped <= voice.generated + 12
        assert 0.0 <= voice.loss_rate <= 1.0
        data = result.data
        assert data.delivered <= data.generated
        assert data.mean_delay_s >= 0.0
        assert 0.0 <= result.mac.slot_utilisation <= 1.0

    def test_loss_grows_with_overload(self):
        light = run_simulation(scenario(n_voice=10, protocol="dtdma_fr"), PARAMS)
        heavy = run_simulation(
            scenario(n_voice=220, protocol="dtdma_fr", duration_s=1.5), PARAMS
        )
        assert heavy.voice.loss_rate > light.voice.loss_rate

    def test_charisma_beats_fixed_rate_baseline_under_load(self):
        """The headline qualitative claim on a small workload."""
        kwargs = dict(n_voice=60, n_data=5, duration_s=2.0, warmup_s=1.0, seed=3)
        charisma = run_simulation(scenario(protocol="charisma", **kwargs), PARAMS)
        fixed = run_simulation(scenario(protocol="dtdma_fr", **kwargs), PARAMS)
        assert charisma.voice.loss_rate <= fixed.voice.loss_rate
        assert charisma.data.mean_delay_s <= fixed.data.mean_delay_s


class TestEngineRelease:
    """A finished engine is freed by reference counting alone.

    The engine owns its macro runner; a strong reference back from the
    runner would form a cycle that keeps the whole engine (population,
    channel, snapshot buffers, pools) alive until the cyclic GC runs.
    """

    @pytest.mark.parametrize("queue", [False, True])
    @pytest.mark.parametrize("rng_mode,macro_frames",
                             [("parity", 1), ("fast", 16)])
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_engine_dies_without_gc(self, protocol, rng_mode, macro_frames,
                                    queue):
        engine = UplinkSimulationEngine(
            scenario(protocol, queue=queue, duration_s=0.2, warmup_s=0.05,
                     rng_mode=rng_mode, macro_frames=macro_frames),
            PARAMS,
        )
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            engine.run()
            assert engine._macro is not None  # the runner was built
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()


class TestRunner:
    """The sweep helpers moved to repro.api; runner keeps the single run."""

    def test_run_simulation_independent_seeds(self):
        results = [run_simulation(scenario(seed=s), PARAMS) for s in (1, 2)]
        assert len(results) == 2
        assert results[0].summary() != results[1].summary()

    def test_sweep_spec_shapes(self):
        from repro.api import SerialExecutor, run, sweep_spec

        spec = sweep_spec(
            ("charisma",), "n_voice", [4, 8],
            base_scenario=scenario(n_voice=0, n_data=0), params=PARAMS,
        )
        sweep = run(spec, executor=SerialExecutor()).to_sweep_result("n_voice")
        assert sweep.values == [4, 8]
        assert len(sweep.results) == 2
        assert sweep.results[1].scenario.n_voice == 8

    def test_sweep_spec_invalid_parameter(self):
        from repro.api import sweep_spec

        with pytest.raises(ValueError, match="sweepable"):
            sweep_spec(("charisma",), "n_bogus", [1],
                       base_scenario=scenario(n_voice=0, n_data=0))

    def test_protocol_comparison_keys(self):
        from repro.api import SerialExecutor, run, sweep_spec

        spec = sweep_spec(
            ("charisma", "rama"), "n_voice", [4],
            base_scenario=scenario(n_voice=0, n_data=0), params=PARAMS,
        )
        sweeps = run(spec, executor=SerialExecutor()).to_sweep_results("n_voice")
        assert set(sweeps) == {"charisma", "rama"}
