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
* ``golden_digests_differential.json`` — the small scenarios of the
  per-frame checks in ``test_backend_parity.py``, recorded from per-frame
  stepping while a second, independently written per-terminal object
  engine still produced the same results (see ``CHANGES.md``).  The key
  ``stepwise/charisma`` digests the first frame outcomes one by one
  rather than the aggregates.

Refresh a file only deliberately, and record every refresh in
``CHANGES.md`` (``-k`` selects one mode; only the selected mode's file is
rewritten)::

    UPDATE_BASELINES=1 python -m pytest tests/sim/test_golden_digests.py -k fast
"""

import dataclasses
import enum
import functools
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.config import SimulationParameters
from repro.mac.registry import available_protocols
from repro.sim.runner import run_simulation
from repro.sim.scenario import Scenario
from tests.utils import blocked_engine

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
FAST_GOLDEN_PATH = Path(__file__).with_name("golden_digests_fast.json")
DIFFERENTIAL_PATH = Path(__file__).with_name("golden_digests_differential.json")
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


#: Frames of ``stepwise/charisma`` whose outcomes are digested one by one.
STEPWISE_FRAMES = 150


def differential_cases():
    """Key -> ``Scenario`` keywords of the ``test_backend_parity`` cases."""
    cases = {}
    for protocol in available_protocols():
        cases[f"per_protocol/{protocol}"] = dict(
            protocol=protocol, n_voice=12, n_data=3,
            use_request_queue=(protocol != "rmav"),
            duration_s=0.6, warmup_s=0.2, seed=7,
        )
    for seed in (0, 3, 12345):
        cases[f"charisma/seed{seed}"] = dict(
            protocol="charisma", n_voice=10, n_data=4, use_request_queue=True,
            duration_s=0.5, warmup_s=0.15, seed=seed,
        )
    cases["dtdma_vr/noqueue"] = dict(
        protocol="dtdma_vr", n_voice=14, n_data=2, use_request_queue=False,
        duration_s=0.5, warmup_s=0.1, seed=2,
    )
    for n_voice, n_data in ((10, 0), (0, 4)):
        cases[f"dtdma_fr/nv{n_voice}_nd{n_data}"] = dict(
            protocol="dtdma_fr", n_voice=n_voice, n_data=n_data,
            duration_s=0.4, warmup_s=0.1, seed=5,
        )
    cases["charisma/empty"] = dict(
        protocol="charisma", n_voice=0, n_data=0,
        duration_s=0.3, warmup_s=0.0, seed=0,
    )
    for protocol in ("rmav", "dtdma_vr", "drma"):
        cases[f"macro/{protocol}"] = dict(
            protocol=protocol, n_voice=10, n_data=4,
            use_request_queue=(protocol != "rmav"),
            duration_s=0.5, warmup_s=0.15, seed=3,
        )
    cases["stepwise/charisma"] = dict(
        protocol="charisma", n_voice=8, n_data=2,
        duration_s=0.5, warmup_s=0.1, seed=4,
    )
    return cases


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


def _plain(value):
    """JSON form of the NumPy scalars and enums inside frame outcomes."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"cannot digest {type(value).__name__}")


def outcomes_digest(outcomes) -> str:
    """SHA-256 of a sequence of frame outcomes' MAC decisions."""
    payload = [
        [
            outcome.frame_index,
            [dataclasses.asdict(a) for a in outcome.allocations],
            [dataclasses.asdict(r) for r in outcome.acknowledgements],
            outcome.contention_attempts,
            outcome.contention_collisions,
            outcome.queued_requests,
        ]
        for outcome in outcomes
    ]
    blob = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()


def differential_digest(key: str, scenario: Scenario) -> str:
    """The digest a differential case is checked against, from ``scenario``.

    Aggregate cases digest the per-frame-stepped result; the stepwise case
    digests its first :data:`STEPWISE_FRAMES` frame outcomes.
    """
    engine = blocked_engine(scenario, 1, PARAMS)
    if key.startswith("stepwise/"):
        return outcomes_digest(engine.step() for _ in range(STEPWISE_FRAMES))
    return result_digest(engine.run())


@functools.lru_cache(maxsize=None)
def differential_digests():
    """The committed differential digests, re-recorded first on request."""
    if UPDATE:
        digests = {
            key: differential_digest(key, Scenario(**kwargs))
            for key, kwargs in differential_cases().items()
        }
        DIFFERENTIAL_PATH.write_text(json.dumps(
            {"stepwise_frames": STEPWISE_FRAMES, "digests": digests},
            indent=1, sort_keys=True,
        ) + "\n")
    return json.loads(DIFFERENTIAL_PATH.read_text())["digests"]


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


def test_differential_golden_file_covers_every_case():
    assert sorted(differential_digests()) == sorted(differential_cases())


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
