"""CSI-ranked information-slot allocator (paper Section 4.3, Fig. 8b).

After the request phase the base station holds a pool of pending requests —
new ones, backlogged ones, and the auto-generated requests of voice
reservation holders.  The allocator walks that pool in decreasing priority
order and hands out the ``N_i`` information slots of the frame:

* a voice request receives one slot (one 20 ms voice packet per period);
* a data request receives as many slots as it needs to drain its buffer at
  the mode its estimated CSI supports, bounded by what remains;
* a request whose estimated CSI is in *outage* (below the adaptation range)
  is deferred — granting it would almost certainly waste the slot — unless
  it is a voice request about to miss its deadline, in which case fairness
  wins and the slot is granted at the most robust mode anyway.

Requests left over (no slots, or deferred) are returned so the protocol can
queue them (with-queue variant) or drop them (without-queue variant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.manager import ChannelSnapshot
from repro.mac.requests import Allocation, GrantColumns, Request, RequestColumns
from repro.phy.abicm import AdaptiveModem
from repro.traffic.population import TerminalView

__all__ = ["AllocationDecision", "CSIRankedAllocator"]


@dataclass
class AllocationDecision:
    """Result of one frame's slot-allocation pass.

    Attributes
    ----------
    allocations:
        Slot grants, in the order they were made (highest priority first).
    unserved:
        Requests that received no slots (out of capacity).
    deferred:
        Requests skipped because their channel was in outage and their
        deadline allowed waiting for a better channel state.
    slots_used:
        Total information slots granted.
    """

    allocations: List[Allocation] = field(default_factory=list)
    unserved: List[Request] = field(default_factory=list)
    deferred: List[Request] = field(default_factory=list)
    slots_used: int = 0

    @property
    def leftovers(self) -> List[Request]:
        """Requests that remain pending after this frame (unserved + deferred)."""
        return self.unserved + self.deferred


class CSIRankedAllocator:
    """Allocates information slots to prioritised requests.

    Parameters
    ----------
    modem:
        The adaptive modem (provides packets-per-slot at an estimated CSI).
    n_info_slots:
        Information slots available per frame (``N_i``).
    defer_deadline_margin:
        A voice request in outage is still granted a slot once its deadline
        is within this many frames (the "fairness" escape hatch); with the
        default of 2 the request gets one last-chance transmission before the
        packet would be dropped.
    """

    def __init__(
        self,
        modem: AdaptiveModem,
        n_info_slots: int,
        defer_deadline_margin: int = 2,
    ) -> None:
        if n_info_slots < 1:
            raise ValueError("n_info_slots must be at least 1")
        if defer_deadline_margin < 0:
            raise ValueError("defer_deadline_margin must be non-negative")
        self._modem = modem
        self._n_slots = int(n_info_slots)
        self._margin = int(defer_deadline_margin)
        self._column_lut: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def n_info_slots(self) -> int:
        """Information slots available per frame."""
        return self._n_slots

    @property
    def defer_deadline_margin(self) -> int:
        """Frames-to-deadline below which outage voice requests are served anyway."""
        return self._margin

    # ------------------------------------------------------------------ API
    def allocate(
        self,
        ranked_requests: Sequence[Request],
        terminals_by_id: Dict[int, TerminalView],
        snapshot: ChannelSnapshot,
        frame_index: int,
    ) -> AllocationDecision:
        """Grant the frame's information slots to the ranked requests."""
        decision = AllocationDecision()
        slots_left = self._n_slots
        capacities = self._capacities_from_csi(ranked_requests)
        for request, (per_slot, throughput) in zip(ranked_requests, capacities):
            terminal = terminals_by_id.get(request.terminal_id)
            if terminal is None or not terminal.has_pending_packets:
                continue
            if slots_left <= 0:
                decision.unserved.append(request)
                continue

            if per_slot == 0:
                if self._must_serve_despite_outage(request, frame_index):
                    per_slot, throughput = 1, self._modem.mode_table[0].throughput
                else:
                    decision.deferred.append(request)
                    continue

            n_slots = self._slots_for(request, terminal, per_slot, slots_left)
            decision.allocations.append(
                Allocation(
                    terminal_id=terminal.terminal_id,
                    n_slots=n_slots,
                    packet_capacity=per_slot * n_slots,
                    throughput=throughput,
                )
            )
            slots_left -= n_slots
            decision.slots_used += n_slots
        return decision

    def allocate_columns(
        self,
        columns: RequestColumns,
        order: np.ndarray,
        population,
        frame_index: int,
        grants: GrantColumns,
        per_slot: Optional[np.ndarray] = None,
        throughput: Optional[np.ndarray] = None,
    ) -> Tuple[List[int], List[int]]:
        """Column form of :meth:`allocate` for the array-native CHARISMA.

        ``order`` is the priority ranking (row indices, best first); grants
        land in ``grants`` and the method returns ``(unserved_rows,
        deferred_rows)`` so the protocol can queue the leftovers.  Decision
        for decision identical to :meth:`allocate` on the materialised
        ranked requests: the per-row capacities come from one vectorised
        mode lookup over the estimated CSIs (zero packets marks outage; a
        missing estimate falls back to the most robust mode), and the
        sequential slots-left walk runs over plain Python scalars.
        ``per_slot``/``throughput`` optionally supply the capacity columns
        from a caller that already performed the frame's mode lookup.
        """
        n = len(columns)
        unserved: List[int] = []
        deferred: List[int] = []
        if n == 0:
            return unserved, deferred
        if per_slot is None or throughput is None:
            packs_lut, thr_lut = self._column_tables()
            per_slot = np.zeros(n, dtype=np.int64)
            throughput = np.zeros(n, dtype=float)
            known = ~np.isnan(columns.csi_amplitudes)
            unknown = ~known
            if unknown.any():
                per_slot[unknown] = packs_lut[1]
                throughput[unknown] = thr_lut[1]
            if known.any():
                # mode_index yields -1 for outage, i for mode i; +1 lands on
                # the LUT rows (0 = outage, i + 1 = mode i).
                indices = self._modem.mode_index(columns.csi_amplitudes[known]) + 1
                per_slot[known] = packs_lut[indices]
                throughput[known] = thr_lut[indices]

        occupancies = population.occupancy[columns.terminal_ids]
        tid_list = columns.terminal_ids.tolist()
        voice_list = columns.is_voice.tolist()
        occupancy_list = occupancies.tolist()
        per_list = per_slot.tolist()
        throughput_list = throughput.tolist()
        deadline_list = columns.deadline_frames.tolist()
        lowest_throughput = self._modem.mode_table[0].throughput
        margin = self._margin
        append = grants.append
        slots_left = self._n_slots

        for row in order.tolist():
            occupancy = occupancy_list[row]
            if occupancy == 0:
                continue
            if slots_left <= 0:
                unserved.append(row)
                continue
            packets = per_list[row]
            mode_throughput = throughput_list[row]
            if packets == 0:
                deadline = deadline_list[row]
                if (
                    voice_list[row]
                    and deadline >= 0
                    and max(0, deadline - frame_index) <= margin
                ):
                    packets, mode_throughput = 1, lowest_throughput
                else:
                    deferred.append(row)
                    continue
            if voice_list[row]:
                n_slots = 1
            else:
                needed = math.ceil(occupancy / max(1, packets))
                n_slots = max(1, min(slots_left, needed))
            append(tid_list[row], n_slots, packets * n_slots, mode_throughput)
            slots_left -= n_slots
        return unserved, deferred

    # ------------------------------------------------------------ internals
    def _column_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-mode (packets, throughput) lookup: row 0 outage, row 1+ modes.

        Row 0 encodes outage as zero packets (NaN throughput, never
        granted); row ``mode_index + 1`` holds the mode's capacity pair —
        the vectorised twin of :meth:`_capacities_from_csi`'s scalar cases,
        with "no estimate" mapping to row 1 (the most robust mode).
        """
        if self._column_lut is None:
            table = self._modem.mode_table
            reference = table.reference_throughput
            packs = [0] + [
                table[i].packets_per_slot(reference) for i in range(len(table))
            ]
            thrs = [np.nan] + [table[i].throughput for i in range(len(table))]
            self._column_lut = (
                np.asarray(packs, dtype=np.int64),
                np.asarray(thrs, dtype=float),
            )
        return self._column_lut

    def _capacities_from_csi(
        self, requests: Sequence[Request]
    ) -> List[Tuple[int, Optional[float]]]:
        """Batched per-request capacities: one mode lookup for the frame.

        Requests without an estimate are conservatively treated as the most
        robust mode; estimated ones get the mode their CSI supports, with
        ``(0, None)`` marking outage — element-for-element identical to the
        scalar ``select_mode`` path.
        """
        table = self._modem.mode_table
        reference = table.reference_throughput
        lowest = table[0]
        lowest_pair = (lowest.packets_per_slot(reference), lowest.throughput)
        known = [
            index for index, request in enumerate(requests) if request.csi is not None
        ]
        capacities: List[Tuple[int, Optional[float]]] = [lowest_pair] * len(requests)
        if not known:
            return capacities
        mode_indices = self._modem.mode_index(
            np.fromiter(
                (requests[index].csi.amplitude for index in known),
                dtype=float,
                count=len(known),
            )
        )
        for position, mode_index in zip(known, mode_indices):
            if mode_index < 0:
                capacities[position] = (0, None)
            else:
                mode = table[mode_index]
                capacities[position] = (
                    mode.packets_per_slot(reference),
                    mode.throughput,
                )
        return capacities

    def _must_serve_despite_outage(self, request: Request, frame_index: int) -> bool:
        if not request.kind.is_voice:
            return False
        remaining = request.frames_to_deadline(frame_index)
        return remaining is not None and remaining <= self._margin

    def _slots_for(
        self, request: Request, terminal: TerminalView, per_slot: int, slots_left: int
    ) -> int:
        if request.kind.is_voice:
            return 1
        needed = math.ceil(terminal.buffer_occupancy / max(1, per_slot))
        return max(1, min(slots_left, needed))
