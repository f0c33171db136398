"""D-TDMA/FR: dynamic TDMA with a fixed-rate physical layer (Section 3.4).

The classic improved-PRMA design: the frame is statically split into ``N_r``
request minislots and ``N_i`` information slots.  Requests are gathered by
slotted contention and served first-come-first-served, voice before data;
whenever a request succeeds an information slot (if any remains) is assigned
immediately.  A voice user that obtains a slot keeps one slot per 20 ms
voice-packet period until its talkspurt ends; data users must contend again
for every burst instalment.  The physical layer delivers a constant one
packet per slot irrespective of the channel state.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.channel.manager import ChannelSnapshot
from repro.mac.base import MACProtocol, terminal_lookup, traced_batch
from repro.mac.contention import run_contention, run_contention_ids
from repro.mac.frames import FrameStructure
from repro.mac.requests import (
    Acknowledgement,
    FrameOutcome,
    Request,
    RequestColumns,
)
from repro.traffic.population import TerminalView

__all__ = ["DTDMAFRProtocol"]


class DTDMAFRProtocol(MACProtocol):
    """Dynamic TDMA, fixed rate: static frame, FCFS assignment."""

    name = "dtdma_fr"
    display_name = "D-TDMA/FR"
    uses_adaptive_phy = False
    uses_csi_scheduling = False
    supports_request_queue = True
    #: The whole request phase is slotted-ALOHA permission draws and the
    #: allocation phase draws nothing, so the macro engine executes frames
    #: inline — queue-backed ones through its FCFS backlog service.
    supports_macro_lookahead = True
    macro_fcfs_queue = True

    # ------------------------------------------------------------ interface
    def _build_frame_structure(self) -> FrameStructure:
        return FrameStructure(
            name=self.display_name,
            request_minislots=self.params.n_request_slots,
            info_slots=self.params.n_info_slots,
            dynamic=False,
            minislots_per_info_slot=self.params.drma_minislots_per_info_slot,
        )

    def run_frame(
        self,
        frame_index: int,
        terminals: Sequence[TerminalView],
        snapshot: ChannelSnapshot,
    ) -> FrameOutcome:
        self.release_finished_reservations(terminals)
        self.prune_queue(frame_index, terminals)
        by_id = terminal_lookup(terminals)
        outcome = FrameOutcome(frame_index)
        slots_left = self.frame_structure.info_slots

        # Phase 0: reservation holders transmit without contention.
        used = self.allocate_reserved_voice(
            terminals, snapshot, slots_left, outcome.allocations
        )
        slots_left -= used

        # Phase 1: request contention over the static request subframe.
        candidates = self.contention_candidates(terminals)
        contention = run_contention(
            candidates, self.frame_structure.request_minislots, self.permission, self.rng
        )
        outcome.contention_attempts = contention.attempts
        outcome.contention_collisions = contention.collisions
        outcome.idle_request_slots = contention.idle_slots
        for slot, winner in enumerate(contention.winners):
            outcome.acknowledgements.append(
                Acknowledgement(winner.terminal_id, slot, frame_index)
            )
        new_requests = [self.make_request(t, frame_index) for t in contention.winners]

        # Phase 2: FCFS service — queued requests first, then this frame's,
        # voice before data within each group.
        backlog = self.request_queue.pop_all() if self.request_queue is not None else []
        pending = backlog + new_requests
        voice_requests = [r for r in pending if r.kind.is_voice]
        data_requests = [r for r in pending if r.kind.is_data]

        unserved: List[Request] = []
        slots_left = self._serve_voice(
            voice_requests, by_id, snapshot, frame_index, slots_left,
            outcome, unserved,
        )
        slots_left = self._serve_data(
            data_requests, by_id, snapshot, slots_left, outcome, unserved
        )

        self.queue_unserved(unserved)
        outcome.queued_requests = self.queued_count()
        return outcome

    @traced_batch
    def run_frame_batch(
        self,
        frame_index: int,
        population,
        snapshot: ChannelSnapshot,
    ) -> FrameOutcome:
        """Array-native frame: id-array contention, columnar FCFS service."""
        self.reservations.release_ended_population(population)
        self.prune_queue_batch(frame_index, population)
        outcome = FrameOutcome(frame_index)
        grants = outcome.use_grant_columns()
        slots_left = self.frame_structure.info_slots

        # Phase 0: reservation holders transmit without contention.
        served = self.allocate_reserved_voice_batch(
            population, snapshot, slots_left, grants
        )
        slots_left -= served.shape[0]

        # Phase 1: request contention over the static request subframe.
        ids, probabilities = self.contention_candidate_ids(population)
        contention = run_contention_ids(
            ids,
            probabilities,
            self.frame_structure.request_minislots,
            self.contention_rng,
            fast=self.rng_fast,
        )
        outcome.contention_attempts = contention.attempts
        outcome.contention_collisions = contention.collisions
        outcome.idle_request_slots = contention.idle_slots
        acknowledgements = outcome.acknowledgements
        for slot, winner in enumerate(contention.winner_ids):
            acknowledgements.append(Acknowledgement(winner, slot, frame_index))
        winner_ids = np.asarray(contention.winner_ids, dtype=np.int64)

        # Phase 2: FCFS service — queued requests first, then this frame's,
        # voice before data within each group.
        backlog = (
            self.request_queue.pop_all() if self.request_queue is not None else []
        )
        if not backlog and not winner_ids.shape[0]:
            outcome.queued_requests = self.queued_count()
            return outcome
        new_columns = self.request_columns_for(population, winner_ids, frame_index)
        if backlog:
            pending = RequestColumns.concatenate(
                [RequestColumns.from_requests(backlog), new_columns]
            )
        else:
            pending = new_columns
        voice_rows = np.nonzero(pending.is_voice)[0]
        data_rows = np.nonzero(~pending.is_voice)[0]

        unserved_rows: List[int] = []
        slots_left = self._serve_voice_rows_batch(
            pending, voice_rows, population, snapshot, frame_index,
            slots_left, grants, unserved_rows,
        )
        slots_left = self._serve_data_rows_batch(
            pending, data_rows, population, snapshot, slots_left, grants,
            unserved_rows,
        )

        self.queue_unserved_rows(pending, unserved_rows)
        outcome.queued_requests = self.queued_count()
        return outcome

    def macro_minislots(self) -> int:
        """The static request subframe, resolvable from a pre-drawn pool."""
        return self.frame_structure.request_minislots

    # -------------------------------------------------------------- service
    def _serve_voice(
        self,
        requests: List[Request],
        by_id,
        snapshot: ChannelSnapshot,
        frame_index: int,
        slots_left: int,
        outcome: FrameOutcome,
        unserved: List[Request],
    ) -> int:
        actionable = self._actionable(requests, by_id)
        if not actionable:
            return slots_left
        amplitudes = [snapshot.amplitude[t.terminal_id] for _, t in actionable]
        capacities = self.slot_capacities(
            amplitudes,
            snr_db=self.snapshot_snr_for(snapshot, [t for _, t in actionable]),
        )
        for (request, terminal), amplitude, capacity in zip(
            actionable, amplitudes, capacities
        ):
            if slots_left < 1:
                unserved.append(request)
                continue
            outcome.allocations.append(
                self.build_allocation(terminal, amplitude, 1, capacity=capacity)
            )
            slots_left -= 1
            self.reservations.grant(terminal.terminal_id, frame_index)
        return slots_left

    def _serve_data(
        self,
        requests: List[Request],
        by_id,
        snapshot: ChannelSnapshot,
        slots_left: int,
        outcome: FrameOutcome,
        unserved: List[Request],
    ) -> int:
        actionable = self._actionable(requests, by_id)
        if not actionable:
            return slots_left
        amplitudes = [snapshot.amplitude[t.terminal_id] for _, t in actionable]
        capacities = self.slot_capacities(
            amplitudes,
            snr_db=self.snapshot_snr_for(snapshot, [t for _, t in actionable]),
        )
        for (request, terminal), amplitude, capacity in zip(
            actionable, amplitudes, capacities
        ):
            if slots_left < 1:
                unserved.append(request)
                continue
            per_slot = max(1, capacity[0])
            needed = math.ceil(terminal.buffer_occupancy / per_slot)
            n_slots = max(1, min(slots_left, needed))
            outcome.allocations.append(
                self.build_allocation(terminal, amplitude, n_slots, capacity=capacity)
            )
            slots_left -= n_slots
        return slots_left

    @staticmethod
    def _actionable(requests: List[Request], by_id) -> List[tuple]:
        """The (request, terminal) pairs that can still be served.

        Buffer states only change when the engine executes the frame's
        grants, so filtering before the batched capacity lookup preserves
        the per-request loop's behaviour exactly.
        """
        actionable = []
        for request in requests:
            terminal = by_id.get(request.terminal_id)
            if terminal is not None and terminal.has_pending_packets:
                actionable.append((request, terminal))
        return actionable
