"""Threaded and serial shard stepping must produce identical results.

Shards share no mutable state between block barriers and the handover RNG
is consumed serially by the coordinator, so the worker count is a pure
performance knob — every per-beam result, the merged result and the
handover count must be independent of it.
"""

import pytest

from repro.config import SimulationParameters
from repro.constellation import ConstellationScenario, run_constellation

PARAMS = SimulationParameters()


COUPLED = ConstellationScenario(
    protocol="charisma", n_beams=5, n_voice=10, n_data=3,
    duration_s=0.6, warmup_s=0.1, seed=13, macro_frames=8,
    handover_rate=0.1, coupling_db=2.0, reuse_factor=2,
)

UNCOUPLED = ConstellationScenario(
    protocol="drma", n_beams=4, n_voice=8, n_data=2,
    duration_s=0.5, warmup_s=0.1, seed=21, macro_frames=16,
)


@pytest.mark.parametrize("scenario", [COUPLED, UNCOUPLED],
                         ids=["coupled", "uncoupled"])
@pytest.mark.parametrize("n_workers", [2, 4])
def test_threaded_matches_serial(scenario, n_workers):
    serial = run_constellation(scenario, PARAMS, n_workers=1)
    threaded = run_constellation(scenario, PARAMS, n_workers=n_workers)
    assert threaded.merged == serial.merged
    assert threaded.beams == serial.beams
    assert threaded.handovers == serial.handovers


def test_workers_env_override(monkeypatch):
    from repro.constellation import WORKERS_ENV, resolve_workers

    monkeypatch.setenv(WORKERS_ENV, "3")
    assert resolve_workers(UNCOUPLED) == 3
    # Explicit argument wins over the environment.
    assert resolve_workers(UNCOUPLED, 2) == 2
    # Never more workers than beams.
    monkeypatch.setenv(WORKERS_ENV, "64")
    assert resolve_workers(UNCOUPLED) == UNCOUPLED.n_beams

