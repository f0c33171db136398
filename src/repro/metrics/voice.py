"""Voice quality metric: the packet loss rate of equation (3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["VoiceMetrics"]


@dataclass(frozen=True)
class VoiceMetrics:
    """Aggregated voice counters of one simulation run.

    Attributes
    ----------
    generated:
        Voice packets produced by all talkspurts during the measured period.
    delivered:
        Voice packets received at the base station without error.
    errored:
        Voice packets transmitted but corrupted by the channel.
    dropped:
        Voice packets dropped at the device because their deadline expired.
    """

    generated: int
    delivered: int
    errored: int
    dropped: int

    def __post_init__(self) -> None:
        for name in ("generated", "delivered", "errored", "dropped"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def lost(self) -> int:
        """Voice packets lost to either cause (the numerator of P_loss)."""
        return self.errored + self.dropped

    @property
    def loss_rate(self) -> float:
        """The paper's ``P_loss``: lost packets over generated packets.

        Equation (3) uses transmitted packets in the denominator; counting
        against *generated* packets additionally charges packets that never
        got a transmission opportunity at all, which is the quantity the QoS
        threshold actually cares about (and equals the paper's definition
        whenever every generated packet is eventually either transmitted or
        dropped, as is the case here).
        """
        if self.generated == 0:
            return 0.0
        return self.lost / self.generated

    @property
    def dropping_rate(self) -> float:
        """Fraction of generated packets dropped at the device (deadline)."""
        if self.generated == 0:
            return 0.0
        return self.dropped / self.generated

    @property
    def error_rate(self) -> float:
        """Fraction of generated packets lost to transmission errors."""
        if self.generated == 0:
            return 0.0
        return self.errored / self.generated

    def meets_quality(self, threshold: float = 0.01) -> bool:
        """Whether the run satisfies the voice QoS limit (1 % by default)."""
        return self.loss_rate <= threshold

    @classmethod
    def combine(cls, parts: Iterable["VoiceMetrics"]) -> "VoiceMetrics":
        """Sum per-beam (or per-run) counters into one aggregate.

        Exact because every field is an extensive count: the constellation
        runner merges its shards' metrics with this.
        """
        generated = delivered = errored = dropped = 0
        for part in parts:
            generated += part.generated
            delivered += part.delivered
            errored += part.errored
            dropped += part.dropped
        return cls(generated=generated, delivered=delivered,
                   errored=errored, dropped=dropped)

    @classmethod
    def from_population(cls, population) -> "VoiceMetrics":
        """Aggregate a columnar :class:`TerminalPopulation`'s voice arrays."""
        return cls(
            generated=int(population.voice_generated.sum()),
            delivered=int(population.voice_delivered.sum()),
            errored=int(population.voice_errored.sum()),
            dropped=int(population.voice_dropped.sum()),
        )
