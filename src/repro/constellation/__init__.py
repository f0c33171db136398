"""Multi-beam constellation sharding.

Scales the single-cell simulator to N spot beams on one machine: each beam
is an independent shard running the existing columnar/macro kernels, and
cross-beam physics (terminal handover, frequency-reuse interference) acts
only at macro-block barriers.  See ``README.md`` → "Multi-beam
constellations" for the scenario format and the degenerate-case contract.

>>> from repro.constellation import ConstellationScenario, run_constellation
>>> result = run_constellation(
...     ConstellationScenario(protocol="rama", n_beams=8, n_voice=40, n_data=10,
...                           duration_s=2.0, macro_frames=16)
... )
>>> result.merged.voice_loss_rate  # doctest: +SKIP
"""

from __future__ import annotations

from repro.constellation.coupling import (
    HandoverSwap,
    beam_busy_load,
    interference_offsets,
    plan_handovers,
)
from repro.constellation.runner import (
    ConstellationResult,
    ConstellationRunner,
    WORKERS_ENV,
    resolve_workers,
    run_constellation,
)
from repro.constellation.scenario import ConstellationScenario
from repro.constellation.shard import BEAM_KEY_TAG, BeamShard, beam_spawn_key

__all__ = [
    "BEAM_KEY_TAG",
    "BeamShard",
    "ConstellationResult",
    "ConstellationRunner",
    "ConstellationScenario",
    "HandoverSwap",
    "WORKERS_ENV",
    "beam_busy_load",
    "beam_spawn_key",
    "interference_offsets",
    "plan_handovers",
    "resolve_workers",
    "run_constellation",
]
