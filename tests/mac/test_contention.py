"""Tests for slotted request contention."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mac.contention import ContentionResult, run_contention
from repro.traffic.permission import PermissionPolicy
from tests.utils import data_terminal_with_packets, voice_terminal_with_packet


def policy(pv=1.0, pd=1.0, seed=0):
    return PermissionPolicy(pv, pd, np.random.default_rng(seed))


class TestRunContention:
    def test_single_candidate_always_wins_with_unity_permission(self):
        terminal = voice_terminal_with_packet(0)
        result = run_contention([terminal], 4, policy(), np.random.default_rng(0))
        assert result.n_winners == 1
        assert result.winners[0] is terminal
        assert result.collisions == 0

    def test_two_candidates_with_unity_permission_always_collide(self):
        terminals = [voice_terminal_with_packet(i) for i in range(2)]
        result = run_contention(terminals, 5, policy(), np.random.default_rng(0))
        assert result.n_winners == 0
        assert result.collisions == 5

    def test_no_candidates_all_idle(self):
        result = run_contention([], 6, policy(), np.random.default_rng(0))
        assert result.n_winners == 0
        assert result.idle_slots == 6
        assert result.attempts == 0

    def test_winner_stops_contending(self):
        """A successful terminal must not win a second minislot in the frame."""
        terminal = voice_terminal_with_packet(0)
        result = run_contention([terminal], 8, policy(), np.random.default_rng(0))
        assert result.n_winners == 1

    def test_moderate_permission_resolves_two_contenders(self):
        terminals = [data_terminal_with_packets(i, 5) for i in range(2)]
        result = run_contention(
            terminals, 20, policy(pd=0.3, seed=1), np.random.default_rng(1)
        )
        assert result.n_winners >= 1

    def test_attempts_counted(self):
        terminals = [data_terminal_with_packets(i, 5) for i in range(3)]
        result = run_contention(terminals, 5, policy(), np.random.default_rng(2))
        # with p=1 every remaining candidate transmits in every slot
        assert result.attempts == 15
        assert result.collisions == 5

    def test_negative_minislots_rejected(self):
        with pytest.raises(ValueError):
            run_contention([], -1, policy(), np.random.default_rng(0))

    def test_zero_minislots(self):
        result = run_contention([voice_terminal_with_packet(0)], 0, policy(),
                                np.random.default_rng(0))
        assert result.n_winners == 0

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_conservation_property(self, n_candidates, n_slots, p):
        """Winners + collisions + idle slots account for every minislot, and a
        terminal can win at most once."""
        terminals = [data_terminal_with_packets(i, 3) for i in range(n_candidates)]
        result = run_contention(
            terminals, n_slots, policy(pd=p, pv=p, seed=3), np.random.default_rng(3)
        )
        assert result.n_winners + result.collisions + result.idle_slots == n_slots
        assert result.n_winners <= min(n_candidates, n_slots)
        assert len({t.terminal_id for t in result.winners}) == result.n_winners


class TestContentionResult:
    def test_default_empty(self):
        result = ContentionResult()
        assert result.n_winners == 0
        assert result.attempts == 0
