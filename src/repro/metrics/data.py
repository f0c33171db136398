"""Data service metrics: throughput and access delay."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

__all__ = ["DataMetrics"]


@dataclass(frozen=True)
class DataMetrics:
    """Aggregated data-traffic counters of one simulation run.

    Attributes
    ----------
    generated:
        Data packets produced by all bursts during the measured period.
    delivered:
        Data packets successfully received at the base station.
    retransmissions:
        Transmission attempts wasted on packets corrupted by the channel.
    delay_frames:
        Access delay (in frames) of every delivered packet.
    n_frames:
        Number of measured frames (the denominator of the throughput).
    frame_duration_s:
        Frame duration used to express delays in seconds.
    """

    generated: int
    delivered: int
    retransmissions: int
    delay_frames: List[int]
    n_frames: int
    frame_duration_s: float

    def __post_init__(self) -> None:
        for name in ("generated", "delivered", "retransmissions", "n_frames"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.frame_duration_s <= 0:
            raise ValueError("frame_duration_s must be positive")

    @property
    def throughput_packets_per_frame(self) -> float:
        """The paper's data throughput: delivered packets per TDMA frame."""
        if self.n_frames == 0:
            return 0.0
        return self.delivered / self.n_frames

    @property
    def throughput_packets_per_second(self) -> float:
        """Delivered data packets per second."""
        return self.throughput_packets_per_frame / self.frame_duration_s

    @property
    def mean_delay_frames(self) -> float:
        """Mean access delay of delivered packets, in frames."""
        if not self.delay_frames:
            return 0.0
        return float(np.mean(self.delay_frames))

    @property
    def mean_delay_s(self) -> float:
        """The paper's data delay metric, in seconds."""
        return self.mean_delay_frames * self.frame_duration_s

    @property
    def p95_delay_s(self) -> float:
        """95th-percentile access delay, in seconds."""
        if not self.delay_frames:
            return 0.0
        return float(np.percentile(self.delay_frames, 95)) * self.frame_duration_s

    @property
    def delivery_ratio(self) -> float:
        """Fraction of generated data packets delivered within the run."""
        if self.generated == 0:
            return 0.0
        return self.delivered / self.generated

    def meets_qos(self, max_delay_s: float, min_throughput_per_user: float,
                  n_users: int) -> bool:
        """Whether the run satisfies the (delay, per-user throughput) QoS pair."""
        if n_users <= 0:
            return True
        per_user = self.throughput_packets_per_frame / n_users
        return self.mean_delay_s <= max_delay_s and per_user >= min_throughput_per_user

    @classmethod
    def combine(cls, parts: Iterable["DataMetrics"]) -> "DataMetrics":
        """Merge per-beam metrics measured over the *same* frame window.

        Counters sum and delay samples concatenate; ``n_frames`` stays the
        shared window length (beams run concurrently, not back to back),
        so the merged throughput is the constellation-aggregate packets
        per frame.  Raises if the windows disagree.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("combine requires at least one DataMetrics")
        first = parts[0]
        generated = delivered = retransmissions = 0
        delays: List[int] = []
        for part in parts:
            if part.n_frames != first.n_frames:
                raise ValueError(
                    "cannot combine DataMetrics over different frame windows: "
                    f"{part.n_frames} != {first.n_frames}"
                )
            if part.frame_duration_s != first.frame_duration_s:
                raise ValueError("cannot combine DataMetrics across frame durations")
            generated += part.generated
            delivered += part.delivered
            retransmissions += part.retransmissions
            delays.extend(part.delay_frames)
        return cls(
            generated=generated,
            delivered=delivered,
            retransmissions=retransmissions,
            delay_frames=delays,
            n_frames=first.n_frames,
            frame_duration_s=first.frame_duration_s,
        )

    @classmethod
    def from_population(
        cls,
        population,
        n_frames: int,
        frame_duration_s: float,
    ) -> "DataMetrics":
        """Aggregate a columnar :class:`TerminalPopulation`'s data arrays."""
        return cls(
            generated=int(population.data_generated.sum()),
            delivered=int(population.data_delivered.sum()),
            retransmissions=int(population.data_retransmissions.sum()),
            delay_frames=population.all_data_delays(),
            n_frames=n_frames,
            frame_duration_s=frame_duration_s,
        )
