"""Golden result digests for the coupled 8-beam constellation.

Every protocol × RNG mode {parity, fast} × request queue {off, on} runs an
8-beam constellation with handover, co-channel interference and frequency
reuse 2 at a fixed seed, and the SHA-256 of its merged and per-beam
``(voice, data, mac)`` payloads plus its handover count must equal the
committed digest.  The digests were recorded from per-shard stepping
(every beam advanced by its own engine between the coupling barriers), so
the check judges the lockstep group runner against numbers it did not
produce.

Refresh the file only deliberately, and record every refresh in
``CHANGES.md``::

    UPDATE_BASELINES=1 python -m pytest tests/constellation/test_golden_digests_constellation.py
"""

import dataclasses
import functools
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.config import SimulationParameters
from repro.constellation import ConstellationScenario, run_constellation
from repro.mac.registry import available_protocols

GOLDEN_PATH = Path(__file__).with_name("golden_digests_constellation.json")
UPDATE = os.environ.get("UPDATE_BASELINES") == "1"

PARAMS = SimulationParameters()
SETTINGS = dict(
    n_beams=8, n_voice=10, n_data=3, duration_s=0.5, warmup_s=0.1, seed=5,
    macro_frames=16, handover_rate=0.05, coupling_db=3.0, reuse_factor=2,
)
N_WORKERS = 2

CASES = [
    (protocol, rng_mode, queue)
    for protocol in available_protocols()
    for rng_mode in ("parity", "fast")
    for queue in (False, True)
]


def case_key(protocol: str, rng_mode: str, queue: bool) -> str:
    return f"{protocol}/{rng_mode}/{'queue' if queue else 'noqueue'}"


def case_scenario(protocol: str, rng_mode: str,
                  queue: bool) -> ConstellationScenario:
    return ConstellationScenario(protocol=protocol, rng_mode=rng_mode,
                                 use_request_queue=queue, **SETTINGS)


def _payload(result):
    return {part: dataclasses.asdict(getattr(result, part))
            for part in ("voice", "data", "mac")}


def constellation_digest(result) -> str:
    """SHA-256 of merged + per-beam payloads and the handover count."""
    blob = json.dumps({
        "merged": _payload(result.merged),
        "beams": [_payload(beam) for beam in result.beams],
        "handovers": result.handovers,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_case(protocol: str, rng_mode: str, queue: bool):
    return run_constellation(case_scenario(protocol, rng_mode, queue), PARAMS,
                             n_workers=N_WORKERS)


@functools.lru_cache(maxsize=None)
def committed():
    """The committed digests, re-recorded first on request."""
    if UPDATE:
        digests = {case_key(*case): constellation_digest(run_case(*case))
                   for case in CASES}
        GOLDEN_PATH.write_text(json.dumps(
            {"settings": SETTINGS, "digests": digests},
            indent=1, sort_keys=True,
        ) + "\n")
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_file_covers_every_case():
    assert sorted(committed()) == sorted(case_key(*case) for case in CASES)


def test_golden_file_records_the_settings():
    assert json.loads(GOLDEN_PATH.read_text())["settings"] == SETTINGS


@pytest.mark.parametrize("protocol,rng_mode,queue", CASES,
                         ids=[case_key(*case) for case in CASES])
def test_constellation_matches_golden_digest(protocol, rng_mode, queue):
    result = run_case(protocol, rng_mode, queue)
    assert result.handovers > 0
    assert constellation_digest(result) == committed()[
        case_key(protocol, rng_mode, queue)]
