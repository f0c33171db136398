"""Shared helpers for the test-suite: synthetic terminals, snapshots, protocols."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.channel.manager import ChannelSnapshot
from repro.config import SimulationParameters
from repro.mac.registry import create_protocol
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.scenario import Scenario
from repro.traffic.packets import Packet, TrafficKind
from repro.traffic.terminal import DataTerminal, Terminal, VoiceTerminal

PARAMS = SimulationParameters()


def blocked_engine(scenario: Scenario, block_frames: int,
                   params: SimulationParameters = PARAMS) -> UplinkSimulationEngine:
    """An engine whose parity-mode macro blocks hold ``block_frames`` frames.

    Parity-mode runs always block-step with the engine constant
    ``MACRO_BLOCK_FRAMES``; overriding it per instance lets a test place
    block boundaries anywhere.
    """
    engine = UplinkSimulationEngine(scenario, params)
    engine.MACRO_BLOCK_FRAMES = block_frames
    return engine


def make_snapshot(amplitudes: Sequence[float], frame_index: int = 0,
                  mean_snr_db: float = PARAMS.mean_snr_db) -> ChannelSnapshot:
    """Build a channel snapshot with explicitly chosen per-user amplitudes."""
    amplitude = np.asarray(list(amplitudes), dtype=float)
    with np.errstate(divide="ignore"):
        snr_db = mean_snr_db + 20.0 * np.log10(amplitude)
    return ChannelSnapshot(amplitude=amplitude, snr_db=snr_db, frame_index=frame_index)


def voice_terminal_with_packet(
    terminal_id: int,
    frame: int = 0,
    params: SimulationParameters = PARAMS,
    seed: int = 0,
    in_talkspurt: bool = True,
) -> VoiceTerminal:
    """A voice terminal holding exactly one fresh packet (forced state)."""
    terminal = VoiceTerminal(terminal_id, params, np.random.default_rng(seed),
                             start_silent=not in_talkspurt)
    terminal._buffer.append(
        Packet(
            kind=TrafficKind.VOICE,
            terminal_id=terminal_id,
            created_frame=frame,
            deadline_frame=frame + params.voice_deadline_frames,
        )
    )
    terminal.stats.voice_generated += 1
    if in_talkspurt:
        # Force the source into a talkspurt so contention eligibility holds.
        terminal._source._state = terminal._source._state.__class__.TALKSPURT
    return terminal


def data_terminal_with_packets(
    terminal_id: int,
    n_packets: int,
    frame: int = 0,
    params: SimulationParameters = PARAMS,
    seed: int = 0,
) -> DataTerminal:
    """A data terminal holding ``n_packets`` buffered packets (forced state)."""
    terminal = DataTerminal(terminal_id, params, np.random.default_rng(seed))
    for _ in range(n_packets):
        terminal._buffer.append(
            Packet(kind=TrafficKind.DATA, terminal_id=terminal_id, created_frame=frame)
        )
    terminal.stats.data_generated += n_packets
    return terminal


def build_protocol(name: str, use_request_queue: bool = False,
                   params: SimulationParameters = PARAMS, seed: int = 0):
    """Construct a protocol (and its modem) for unit tests."""
    return create_protocol(name, params, np.random.default_rng(seed),
                           use_request_queue=use_request_queue)


def population_snapshot(terminals: List[Terminal], amplitude: float = 1.0,
                        frame_index: int = 0) -> ChannelSnapshot:
    """A snapshot giving every terminal the same channel amplitude."""
    n = max((t.terminal_id for t in terminals), default=-1) + 1
    return make_snapshot([amplitude] * n, frame_index=frame_index)
