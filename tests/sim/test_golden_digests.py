"""Golden result digests for the single cell, parity and fast RNG modes.

Every protocol × request queue {off, on} × ``n_voice`` {30, 150} runs at a
fixed seed and a short duration through the default engine path, and the
SHA-256 of its ``(voice, data, mac)`` payload must equal the committed
digest.

* ``golden_digests.json`` — parity mode, recorded from per-frame stepping
  (a block size of 1), so the check judges the block-stepped default
  against numbers the block path did not produce.
* ``golden_digests_fast.json`` — fast mode at ``macro_frames=64``.  Fast
  mode's per-frame and block paths draw differently shaped batches, so
  there is no independent reference to record from; these pin the block
  path's results so that engine changes which claim to leave fast mode
  untouched can prove it.

Refresh a file only deliberately, and record every refresh in
``CHANGES.md`` (``-k`` selects one mode; only the selected mode's file is
rewritten)::

    UPDATE_BASELINES=1 python -m pytest tests/sim/test_golden_digests.py -k fast
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
FAST_GOLDEN_PATH = Path(__file__).with_name("golden_digests_fast.json")
UPDATE = os.environ.get("UPDATE_BASELINES") == "1"

PARAMS = SimulationParameters()
SEED = 1
N_DATA = 10
DURATION_S = 1.0
WARMUP_S = 0.5
FAST_MACRO_FRAMES = 64

CASES = [
    (protocol, queue, n_voice)
    for protocol in available_protocols()
    for queue in (False, True)
    for n_voice in (30, 150)
]


def case_key(protocol: str, queue: bool, n_voice: int) -> str:
    return f"{protocol}/{'queue' if queue else 'noqueue'}/nv{n_voice}"


def case_scenario(protocol: str, queue: bool, n_voice: int,
                  **overrides) -> Scenario:
    return Scenario(protocol=protocol, n_voice=n_voice, n_data=N_DATA,
                    use_request_queue=queue, duration_s=DURATION_S,
                    warmup_s=WARMUP_S, seed=SEED, **overrides)


def fast_scenario(protocol: str, queue: bool, n_voice: int) -> Scenario:
    return case_scenario(protocol, queue, n_voice, rng_mode="fast",
                         macro_frames=FAST_MACRO_FRAMES)


def result_digest(result) -> str:
    """SHA-256 of the ``(voice, data, mac)`` payload of one result."""
    payload = {
        part: dataclasses.asdict(getattr(result, part))
        for part in ("voice", "data", "mac")
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _golden(path: Path, record, **header):
    """The committed digests of ``path``, re-recorded first on request."""
    if UPDATE:
        digests = {case_key(*case): result_digest(record(*case))
                   for case in CASES}
        path.write_text(json.dumps({
            "seed": SEED, "n_data": N_DATA,
            "duration_s": DURATION_S, "warmup_s": WARMUP_S,
            "digests": digests, **header,
        }, indent=1, sort_keys=True) + "\n")
    return json.loads(path.read_text())["digests"]


@pytest.fixture(scope="module")
def committed():
    return _golden(GOLDEN_PATH, lambda *case: blocked_engine(
        case_scenario(*case), 1, PARAMS).run())


@pytest.fixture(scope="module")
def committed_fast():
    return _golden(FAST_GOLDEN_PATH, lambda *case: run_simulation(
        fast_scenario(*case), PARAMS), rng_mode="fast",
        macro_frames=FAST_MACRO_FRAMES)


def test_golden_file_covers_every_case(committed):
    assert sorted(committed) == sorted(case_key(*case) for case in CASES)


def test_fast_golden_file_covers_every_case(committed_fast):
    assert sorted(committed_fast) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("protocol,queue,n_voice", CASES,
                         ids=[case_key(*case) for case in CASES])
def test_parity_result_matches_golden_digest(committed, protocol, queue,
                                             n_voice):
    result = run_simulation(case_scenario(protocol, queue, n_voice), PARAMS)
    assert result_digest(result) == committed[case_key(protocol, queue, n_voice)]


@pytest.mark.parametrize("protocol,queue,n_voice", CASES,
                         ids=[case_key(*case) for case in CASES])
def test_fast_result_matches_golden_digest(committed_fast, protocol, queue,
                                           n_voice):
    result = run_simulation(fast_scenario(protocol, queue, n_voice), PARAMS)
    assert (result_digest(result)
            == committed_fast[case_key(protocol, queue, n_voice)])
