"""Tests for the CSI-ranked allocator and the CSI polling mechanism."""

import numpy as np
import pytest

from repro.config import SimulationParameters
from repro.core.allocator import CSIRankedAllocator
from repro.core.csi_polling import CSIPoller
from repro.mac.registry import build_modem
from repro.mac.requests import Request
from repro.phy.csi import CSIEstimate, CSIEstimator
from repro.traffic.packets import TrafficKind
from tests.utils import (
    data_terminal_with_packets,
    make_snapshot,
    voice_terminal_with_packet,
)

PARAMS = SimulationParameters()
MODEM = build_modem("charisma", PARAMS)


def allocator(n_slots=4, margin=2):
    return CSIRankedAllocator(MODEM, n_slots, defer_deadline_margin=margin)


def request_for(terminal, csi_amplitude, frame=0, deadline=None):
    return Request(
        terminal_id=terminal.terminal_id,
        kind=terminal.kind,
        arrival_frame=frame,
        desired_packets=max(1, terminal.buffer_occupancy),
        csi=CSIEstimate(amplitude=csi_amplitude, frame_index=frame),
        deadline_frame=deadline,
    )


class TestCSIRankedAllocator:
    def test_voice_gets_one_slot(self):
        terminal = voice_terminal_with_packet(0)
        decision = allocator().allocate(
            [request_for(terminal, 1.0, deadline=8)], {0: terminal},
            make_snapshot([1.0]), 0,
        )
        assert len(decision.allocations) == 1
        assert decision.allocations[0].n_slots == 1

    def test_data_gets_enough_slots_to_drain_buffer(self):
        terminal = data_terminal_with_packets(0, 12)
        decision = allocator(n_slots=8).allocate(
            [request_for(terminal, 1.0)], {0: terminal}, make_snapshot([1.0]), 0
        )
        assert decision.allocations[0].packet_capacity >= 12 or (
            decision.allocations[0].n_slots == 8
        )

    def test_never_exceeds_slot_budget(self):
        terminals = {i: data_terminal_with_packets(i, 100) for i in range(6)}
        requests = [request_for(t, 2.0) for t in terminals.values()]
        decision = allocator(n_slots=5).allocate(
            requests, terminals, make_snapshot([2.0] * 6), 0
        )
        assert decision.slots_used <= 5
        assert sum(a.n_slots for a in decision.allocations) == decision.slots_used

    def test_outage_data_request_deferred(self):
        terminal = data_terminal_with_packets(0, 5)
        decision = allocator().allocate(
            [request_for(terminal, 1e-4)], {0: terminal}, make_snapshot([1e-4]), 0
        )
        assert not decision.allocations
        assert decision.deferred and decision.deferred[0].terminal_id == 0

    def test_outage_voice_deferred_until_deadline_near(self):
        terminal = voice_terminal_with_packet(0)
        relaxed = request_for(terminal, 1e-4, deadline=8)
        decision = allocator(margin=2).allocate(
            [relaxed], {0: terminal}, make_snapshot([1e-4]), 0
        )
        assert not decision.allocations and decision.deferred

    def test_outage_voice_served_when_deadline_imminent(self):
        terminal = voice_terminal_with_packet(0)
        urgent = request_for(terminal, 1e-4, deadline=2)
        decision = allocator(margin=2).allocate(
            [urgent], {0: terminal}, make_snapshot([1e-4]), 0
        )
        assert len(decision.allocations) == 1
        # served at the most robust mode
        assert decision.allocations[0].throughput == MODEM.mode_table[0].throughput

    def test_unserved_when_out_of_slots(self):
        terminals = {i: voice_terminal_with_packet(i) for i in range(4)}
        requests = [request_for(t, 1.0, deadline=8) for t in terminals.values()]
        decision = allocator(n_slots=2).allocate(
            requests, terminals, make_snapshot([1.0] * 4), 0
        )
        assert len(decision.allocations) == 2
        assert len(decision.unserved) == 2
        assert decision.leftovers == decision.unserved + decision.deferred

    def test_requests_for_empty_terminals_skipped(self):
        terminal = data_terminal_with_packets(0, 0)
        decision = allocator().allocate(
            [request_for(terminal, 1.0)], {0: terminal}, make_snapshot([1.0]), 0
        )
        assert not decision.allocations and not decision.unserved

    def test_missing_csi_treated_conservatively(self):
        terminal = voice_terminal_with_packet(0)
        request = Request(terminal_id=0, kind=TrafficKind.VOICE, arrival_frame=0,
                          deadline_frame=8)
        decision = allocator().allocate([request], {0: terminal}, make_snapshot([1.0]), 0)
        assert len(decision.allocations) == 1
        assert decision.allocations[0].throughput == MODEM.mode_table[0].throughput

    def test_validation(self):
        with pytest.raises(ValueError):
            CSIRankedAllocator(MODEM, 0)
        with pytest.raises(ValueError):
            CSIRankedAllocator(MODEM, 4, defer_deadline_margin=-1)


class TestCSIPoller:
    def _poller(self, slots=2, validity=2):
        estimator = CSIEstimator(validity_frames=validity, perfect=True,
                                 rng=np.random.default_rng(0))
        return CSIPoller(estimator, slots)

    def _stale_request(self, tid, stale_frame=0):
        return Request(
            terminal_id=tid, kind=TrafficKind.DATA, arrival_frame=stale_frame,
            csi=CSIEstimate(amplitude=0.5, frame_index=stale_frame),
        )

    def test_refreshes_stale_estimates(self):
        poller = self._poller(slots=2)
        requests = [self._stale_request(0), self._stale_request(1)]
        snapshot = make_snapshot([2.0, 3.0], frame_index=10)
        refreshed = poller.refresh(requests, snapshot, 10)
        assert refreshed == 2
        assert requests[0].csi.amplitude == pytest.approx(2.0)
        assert requests[1].csi.frame_index == 10

    def test_capacity_limits_refreshes(self):
        poller = self._poller(slots=1)
        requests = [self._stale_request(i) for i in range(4)]
        refreshed = poller.refresh(requests, make_snapshot([1.0] * 4, 10), 10)
        assert refreshed == 1
        assert poller.polls_sent == 1

    def test_fresh_estimates_not_polled(self):
        poller = self._poller(slots=4, validity=4)
        fresh = Request(
            terminal_id=0, kind=TrafficKind.DATA, arrival_frame=9,
            csi=CSIEstimate(amplitude=0.5, frame_index=9, validity_frames=4),
        )
        assert poller.refresh([fresh], make_snapshot([2.0], 10), 10) == 0
        assert fresh.csi.amplitude == 0.5

    def test_priority_key_selects_most_important(self):
        poller = self._poller(slots=1)
        requests = [self._stale_request(0), self._stale_request(1)]
        snapshot = make_snapshot([2.0, 3.0], frame_index=10)
        poller.refresh(requests, snapshot, 10, priority_key=lambda r: r.terminal_id)
        # terminal 1 has the higher key, so it gets the single polling slot
        assert requests[1].csi.frame_index == 10
        assert requests[0].csi.frame_index == 0

    def test_missing_csi_counts_as_stale(self):
        poller = self._poller(slots=1)
        request = Request(terminal_id=0, kind=TrafficKind.DATA, arrival_frame=0)
        assert poller.stale_requests([request], 0) == [request]

    def test_validation(self):
        with pytest.raises(ValueError):
            CSIPoller(CSIEstimator(), 0)
