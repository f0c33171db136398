"""Tests for the permission-probability gating of request transmissions."""

import numpy as np
import pytest

from repro.traffic.packets import TrafficKind
from repro.traffic.permission import PermissionPolicy


class TestPermissionPolicy:
    def test_probability_lookup(self):
        policy = PermissionPolicy(0.5, 0.25, np.random.default_rng(0))
        assert policy.probability_for(TrafficKind.VOICE) == 0.5
        assert policy.probability_for(TrafficKind.DATA) == 0.25

    def test_empirical_rates(self):
        policy = PermissionPolicy(0.5, 0.25, np.random.default_rng(1))
        voice_rate = np.mean([policy.permits(TrafficKind.VOICE) for _ in range(4000)])
        data_rate = np.mean([policy.permits(TrafficKind.DATA) for _ in range(4000)])
        assert voice_rate == pytest.approx(0.5, abs=0.05)
        assert data_rate == pytest.approx(0.25, abs=0.05)

    def test_unity_probability_always_permits(self):
        policy = PermissionPolicy(1.0, 1.0, np.random.default_rng(2))
        assert all(policy.permits(TrafficKind.VOICE) for _ in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            PermissionPolicy(0.0, 0.5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            PermissionPolicy(0.5, 1.5, np.random.default_rng(0))
