"""Golden result digests for the parity-mode single cell.

Every protocol × request queue {off, on} × ``n_voice`` {30, 150} runs at a
fixed seed and a short duration through the default engine path, and the
SHA-256 of its ``(voice, data, mac)`` payload must equal the committed
digest in ``golden_digests.json``.  The digests are recorded from
per-frame stepping (a block size of 1), so the check judges the
block-stepped default against numbers the block path did not produce.

Refresh the file only deliberately, and record every refresh in
``CHANGES.md``::

    UPDATE_BASELINES=1 python -m pytest tests/sim/test_golden_digests.py
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.config import SimulationParameters
from repro.mac.registry import available_protocols
from repro.sim.runner import run_simulation
from repro.sim.scenario import Scenario
from tests.utils import blocked_engine

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
UPDATE = os.environ.get("UPDATE_BASELINES") == "1"

PARAMS = SimulationParameters()
SEED = 1
N_DATA = 10
DURATION_S = 1.0
WARMUP_S = 0.5

CASES = [
    (protocol, queue, n_voice)
    for protocol in available_protocols()
    for queue in (False, True)
    for n_voice in (30, 150)
]


def case_key(protocol: str, queue: bool, n_voice: int) -> str:
    return f"{protocol}/{'queue' if queue else 'noqueue'}/nv{n_voice}"


def case_scenario(protocol: str, queue: bool, n_voice: int) -> Scenario:
    return Scenario(protocol=protocol, n_voice=n_voice, n_data=N_DATA,
                    use_request_queue=queue, duration_s=DURATION_S,
                    warmup_s=WARMUP_S, seed=SEED)


def result_digest(result) -> str:
    """SHA-256 of the ``(voice, data, mac)`` payload of one result."""
    payload = {
        part: dataclasses.asdict(getattr(result, part))
        for part in ("voice", "data", "mac")
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def committed():
    if UPDATE:
        digests = {
            case_key(*case): result_digest(
                blocked_engine(case_scenario(*case), 1, PARAMS).run())
            for case in CASES
        }
        GOLDEN_PATH.write_text(json.dumps({
            "seed": SEED, "n_data": N_DATA,
            "duration_s": DURATION_S, "warmup_s": WARMUP_S,
            "digests": digests,
        }, indent=1, sort_keys=True) + "\n")
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_file_covers_every_case(committed):
    assert sorted(committed) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("protocol,queue,n_voice", CASES,
                         ids=[case_key(*case) for case in CASES])
def test_parity_result_matches_golden_digest(committed, protocol, queue,
                                             n_voice):
    result = run_simulation(case_scenario(protocol, queue, n_voice), PARAMS)
    assert result_digest(result) == committed[case_key(protocol, queue, n_voice)]
