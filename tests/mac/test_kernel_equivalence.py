"""Differential tests: array-native MAC kernels vs the view-walking paths.

Every protocol's ``run_frame_batch`` must be **bit-identical** to its
``run_frame`` in parity RNG mode: same allocations (materialised from grant
columns), same acknowledgements, same contention statistics, same queue
state, frame by frame — and therefore identical end-of-run results.  The
engines below share one scenario and differ only in ``use_batch_mac``.
"""

import pytest

from repro.config import SimulationParameters
from repro.mac.registry import available_protocols
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.scenario import Scenario

PARAMS = SimulationParameters()


def engine_pair(protocol, queue, seed, n_voice=12, n_data=4, duration_s=0.5):
    scenario = Scenario(
        protocol=protocol, n_voice=n_voice, n_data=n_data,
        use_request_queue=queue, duration_s=duration_s, warmup_s=0.1,
        seed=seed,
    )
    return (
        UplinkSimulationEngine(scenario, PARAMS, use_batch_mac=True),
        UplinkSimulationEngine(scenario, PARAMS, use_batch_mac=False),
    )


class TestKernelEquivalence:
    @pytest.mark.parametrize("queue", [False, True])
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_frame_outcomes_bit_identical(self, protocol, queue):
        batch, view = engine_pair(protocol, queue, seed=7)
        for _ in range(180):
            a = batch.step()
            b = view.step()
            assert a == b, (protocol, queue, a.frame_index)
        assert (
            batch.collect_results().summary() == view.collect_results().summary()
        )

    @pytest.mark.parametrize("protocol", ["charisma", "drma"])
    @pytest.mark.parametrize("seed", [0, 5, 1234])
    def test_mac_heavy_protocols_across_seeds(self, protocol, seed):
        batch, view = engine_pair(protocol, True, seed=seed, n_voice=14, n_data=6)
        assert batch.run().summary() == view.run().summary()

    def test_voice_only_and_data_only_populations(self):
        for n_voice, n_data in ((10, 0), (0, 6)):
            batch, view = engine_pair(
                "charisma", True, seed=3, n_voice=n_voice, n_data=n_data
            )
            assert batch.run().summary() == view.run().summary()

    def test_batch_kernel_emits_grant_columns(self):
        """The kernels must actually run columnar (grants, not objects)."""
        batch, _ = engine_pair("dtdma_vr", False, seed=2)
        saw_grants = False
        for _ in range(120):
            outcome = batch.step()
            if outcome.grants is not None and len(outcome.grants):
                saw_grants = True
                # Materialisation is consistent with the columns.
                allocations = outcome.allocations
                assert [a.terminal_id for a in allocations] == list(
                    outcome.grants.terminal_ids
                )
                assert sum(a.n_slots for a in allocations) == (
                    outcome.grants.total_slots
                )
        assert saw_grants

    @pytest.mark.parametrize("use_batch_mac", [True, False],
                             ids=["batch", "views"])
    def test_timed_step_mirrors_untimed_step(self, use_batch_mac):
        """The instrumented ``_step_timed`` body must stay in sync with the
        real step path: identical per-frame outcomes and final results on
        both MAC paths, with every phase accumulating time."""
        scenario = Scenario(protocol="charisma", n_voice=8, n_data=3,
                            use_request_queue=True, duration_s=0.4,
                            warmup_s=0.1, seed=6)
        timed = UplinkSimulationEngine(scenario, PARAMS,
                                       use_batch_mac=use_batch_mac)
        plain = UplinkSimulationEngine(scenario, PARAMS,
                                       use_batch_mac=use_batch_mac)
        phases = timed.enable_phase_timing()
        for _ in range(150):
            assert timed.step() == plain.step()
        assert (
            timed.collect_results().summary() == plain.collect_results().summary()
        )
        assert set(phases) == {"traffic", "channel", "mac", "phy", "metrics"}
        assert all(seconds > 0.0 for seconds in phases.values())

    def test_base_class_fallback_delegates_to_run_frame(self):
        """Protocols without a batch kernel keep working on the engine:
        the MACProtocol default drives their run_frame over the
        population's views and produces the exact view-path outcome."""
        from repro.mac.base import MACProtocol

        scenario = Scenario(protocol="dtdma_fr", n_voice=6, n_data=2,
                            duration_s=0.3, warmup_s=0.1, seed=4)
        via_default = UplinkSimulationEngine(scenario, PARAMS)
        via_view = UplinkSimulationEngine(scenario, PARAMS, use_batch_mac=False)
        # Route the first engine through the base-class fallback instead of
        # the protocol's own kernel.
        via_default.protocol.run_frame_batch = (
            lambda frame, population, snapshot: MACProtocol.run_frame_batch(
                via_default.protocol, frame, population, snapshot
            )
        )
        for _ in range(100):
            assert via_default.step() == via_view.step()
