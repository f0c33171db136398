"""Tests for the reservation table, request queue, requests and frame structures."""

import pytest

from repro.mac.frames import FrameStructure
from repro.mac.request_queue import RequestQueue
from repro.mac.requests import Allocation, FrameOutcome, Request
from repro.mac.reservation import ReservationTable
from repro.traffic.packets import TrafficKind
from tests.utils import (
    clear_buffer,
    data_terminal_with_packets,
    voice_terminal_with_packet,
)


class TestReservationTable:
    def test_grant_and_query(self):
        table = ReservationTable()
        table.grant(3, frame_index=10)
        assert table.has(3)
        assert 3 in table
        assert table.granted_at(3) == 10
        assert table.holders() == [3]

    def test_grant_idempotent(self):
        table = ReservationTable()
        table.grant(3, 10)
        table.grant(3, 20)
        assert table.granted_at(3) == 10

    def test_release(self):
        table = ReservationTable()
        table.grant(1, 0)
        table.release(1)
        assert not table.has(1)
        table.release(1)  # no-op

    def test_release_ended_talkspurts(self):
        table = ReservationTable()
        active = voice_terminal_with_packet(0, in_talkspurt=True)
        silent = voice_terminal_with_packet(1, in_talkspurt=False)
        clear_buffer(silent)
        table.grant(0, 0)
        table.grant(1, 0)
        released = table.release_ended_talkspurts([active, silent])
        assert released == 1
        assert table.has(0) and not table.has(1)

    def test_reserved_terminals_requires_pending_packets(self):
        table = ReservationTable()
        terminal = voice_terminal_with_packet(0)
        table.grant(0, 0)
        assert table.reserved_terminals([terminal]) == [terminal]
        clear_buffer(terminal)
        assert table.reserved_terminals([terminal]) == []

    def test_validation_and_clear(self):
        table = ReservationTable()
        with pytest.raises(ValueError):
            table.grant(-1, 0)
        with pytest.raises(ValueError):
            table.grant(0, -1)
        table.grant(5, 1)
        table.clear()
        assert len(table) == 0


class TestRequestQueue:
    def _request(self, tid, frame=0, kind=TrafficKind.DATA, deadline=None):
        return Request(terminal_id=tid, kind=kind, arrival_frame=frame,
                       deadline_frame=deadline)

    def test_fifo_order(self):
        queue = RequestQueue(capacity=8)
        for tid in (3, 1, 2):
            queue.push(self._request(tid))
        assert [r.terminal_id for r in queue.pop_all()] == [3, 1, 2]
        assert len(queue) == 0

    def test_capacity_enforced(self):
        queue = RequestQueue(capacity=2)
        assert queue.push(self._request(0))
        assert queue.push(self._request(1))
        assert not queue.push(self._request(2))
        assert queue.is_full

    def test_extend_partial(self):
        queue = RequestQueue(capacity=2)
        accepted = queue.extend(self._request(i) for i in range(5))
        assert accepted == 2

    def test_contains_and_remove_terminal(self):
        queue = RequestQueue()
        queue.push(self._request(7))
        assert queue.contains_terminal(7)
        assert queue.remove_terminal(7) == 1
        assert not queue.contains_terminal(7)

    def test_drop_expired_voice(self):
        queue = RequestQueue()
        queue.push(self._request(0, kind=TrafficKind.VOICE, deadline=10))
        queue.push(self._request(1))
        assert queue.drop_expired(current_frame=12) == 1
        assert [r.terminal_id for r in queue.peek_all()] == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestQueue(capacity=0)


class TestRequestRecords:
    def test_request_timing_helpers(self):
        request = Request(terminal_id=0, kind=TrafficKind.VOICE, arrival_frame=5,
                          deadline_frame=13)
        assert request.waiting_frames(9) == 4
        assert request.frames_to_deadline(9) == 4
        assert not request.is_expired(12)
        assert request.is_expired(13)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(terminal_id=-1, kind=TrafficKind.DATA, arrival_frame=0)
        with pytest.raises(ValueError):
            Request(terminal_id=0, kind=TrafficKind.DATA, arrival_frame=0,
                    desired_packets=0)

    def test_allocation_validation(self):
        with pytest.raises(ValueError):
            Allocation(terminal_id=0, n_slots=0, packet_capacity=1)
        with pytest.raises(ValueError):
            Allocation(terminal_id=0, n_slots=1, packet_capacity=0)
        with pytest.raises(ValueError):
            Allocation(terminal_id=0, n_slots=1, packet_capacity=1, throughput=0.0)

    def test_frame_outcome_aggregates(self):
        outcome = FrameOutcome(frame_index=0)
        outcome.allocations.append(Allocation(terminal_id=0, n_slots=2, packet_capacity=4))
        outcome.allocations.append(Allocation(terminal_id=1, n_slots=1, packet_capacity=1))
        assert outcome.n_allocated_slots == 3
        assert outcome.n_successful_requests == 0


class TestFrameStructure:
    def test_minislot_equivalent(self):
        frame = FrameStructure(name="x", request_minislots=6, info_slots=5,
                               pilot_minislots=3, minislots_per_info_slot=3)
        assert frame.total_minislot_equivalent == 6 + 3 + 15

    def test_conversions(self):
        frame = FrameStructure(name="x", request_minislots=6, info_slots=5)
        assert frame.info_slots_from_minislots(7) == 2
        assert frame.minislots_from_info_slots(2) == 6
        with pytest.raises(ValueError):
            frame.info_slots_from_minislots(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameStructure(name="x", request_minislots=0, info_slots=0)
        with pytest.raises(ValueError):
            FrameStructure(name="x", request_minislots=1, info_slots=1,
                           minislots_per_info_slot=0)

    def test_describe(self):
        frame = FrameStructure(name="proto", request_minislots=2, info_slots=3)
        row = frame.describe()
        assert row["protocol"] == "proto"
        assert row["info_slots"] == 3
