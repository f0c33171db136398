"""Tests for packet and traffic-kind definitions."""

import pytest

from repro.traffic.packets import Packet, TrafficKind


class TestTrafficKind:
    def test_voice_flags(self):
        assert TrafficKind.VOICE.is_voice
        assert not TrafficKind.VOICE.is_data

    def test_data_flags(self):
        assert TrafficKind.DATA.is_data
        assert not TrafficKind.DATA.is_voice


class TestPacket:
    def test_voice_requires_deadline(self):
        with pytest.raises(ValueError):
            Packet(kind=TrafficKind.VOICE, terminal_id=0, created_frame=0)

    def test_deadline_must_follow_creation(self):
        with pytest.raises(ValueError):
            Packet(kind=TrafficKind.VOICE, terminal_id=0, created_frame=5,
                   deadline_frame=5)

    def test_negative_created_frame_rejected(self):
        with pytest.raises(ValueError):
            Packet(kind=TrafficKind.DATA, terminal_id=0, created_frame=-1)

    def test_sequence_monotone(self):
        a = Packet(kind=TrafficKind.DATA, terminal_id=0, created_frame=0)
        b = Packet(kind=TrafficKind.DATA, terminal_id=0, created_frame=0)
        assert b.sequence > a.sequence
