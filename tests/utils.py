"""Shared helpers for the test-suite: synthetic terminals, snapshots, protocols."""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.channel.manager import ChannelSnapshot
from repro.config import SimulationParameters
from repro.mac.registry import create_protocol
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.scenario import Scenario
from repro.traffic.population import (
    TerminalMigrationState,
    TerminalPopulation,
    TerminalView,
)

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


#: Slots per service class of the shared populations behind the forced
#: terminals below (the largest terminal id a test may ask for, plus one).
FORCED_SLOTS = 64


@functools.lru_cache(maxsize=None)
def shared_population(params: SimulationParameters, voice: bool) -> TerminalPopulation:
    """The shared population forced terminals of one class live in.

    A population fixes every slot's service class (voice rows first), while
    tests pick terminal ids freely, so each class gets its own population
    of :data:`FORCED_SLOTS` slots per parameter set.  A forced terminal is
    a :class:`TerminalView` of one slot; forcing the same id again
    overwrites that slot's whole state.
    """
    n_voice, n_data = (FORCED_SLOTS, 0) if voice else (0, FORCED_SLOTS)
    return TerminalPopulation(params, n_voice, n_data, np.random.default_rng(0))


def forced_state(voice: bool, n_packets: int, frame: int = 0,
                 in_talkspurt: bool = False) -> TerminalMigrationState:
    """A terminal state holding ``n_packets`` packets created at ``frame``.

    Voice packets are one FIFO segment each, a data backlog one burst
    segment; the generated counter matches the buffer.
    """
    if voice:
        segments = [[frame, 1] for _ in range(n_packets)]
    else:
        segments = [[frame, n_packets]] if n_packets else []
    return TerminalMigrationState(
        is_voice=voice,
        in_talkspurt=voice and in_talkspurt,
        countdown=1,
        frames_since_packet=0,
        talkspurt_started_frame=-2,
        occupancy=n_packets,
        head_created=frame if n_packets else -1,
        segments=segments,
        voice_generated=n_packets if voice else 0,
        data_generated=0 if voice else n_packets,
    )


def voice_terminal_with_packet(
    terminal_id: int,
    frame: int = 0,
    params: SimulationParameters = PARAMS,
    in_talkspurt: bool = True,
) -> TerminalView:
    """A voice terminal holding exactly one fresh packet (forced state)."""
    population = shared_population(params, voice=True)
    population.import_terminal_state(
        terminal_id, forced_state(True, 1, frame, in_talkspurt)
    )
    return population.views[terminal_id]


def data_terminal_with_packets(
    terminal_id: int,
    n_packets: int,
    frame: int = 0,
    params: SimulationParameters = PARAMS,
) -> TerminalView:
    """A data terminal holding ``n_packets`` buffered packets (forced state)."""
    population = shared_population(params, voice=False)
    population.import_terminal_state(
        terminal_id, forced_state(False, n_packets, frame)
    )
    return population.views[terminal_id]


def clear_buffer(terminal: TerminalView) -> None:
    """Empty a terminal's transmit buffer, keeping the rest of its state."""
    population, index = terminal.population, terminal.terminal_id
    state = population.export_terminal_state(index)
    state.occupancy, state.head_created, state.segments = 0, -1, []
    population.import_terminal_state(index, state)


def build_protocol(name: str, use_request_queue: bool = False,
                   params: SimulationParameters = PARAMS, seed: int = 0):
    """Construct a protocol (and its modem) for unit tests."""
    return create_protocol(name, params, np.random.default_rng(seed),
                           use_request_queue=use_request_queue)


def population_snapshot(terminals: Sequence[TerminalView], amplitude: float = 1.0,
                        frame_index: int = 0) -> ChannelSnapshot:
    """A snapshot giving every terminal the same channel amplitude."""
    n = max((t.terminal_id for t in terminals), default=-1) + 1
    return make_snapshot([amplitude] * n, frame_index=frame_index)
