"""Packet and traffic-class definitions."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["TrafficKind", "Packet"]


class TrafficKind(enum.Enum):
    """Service class of a request or packet (the paper's two request types)."""

    VOICE = "voice"
    DATA = "data"

    @property
    def is_voice(self) -> bool:
        """Whether this is the delay-sensitive isochronous class."""
        return self is TrafficKind.VOICE

    @property
    def is_data(self) -> bool:
        """Whether this is the delay-insensitive bursty class."""
        return self is TrafficKind.DATA


_packet_counter = itertools.count()


@dataclass
class Packet:
    """One fixed-size uplink packet awaiting transmission at a mobile device.

    Attributes
    ----------
    kind:
        Voice or data.
    terminal_id:
        Identifier of the generating mobile device.
    created_frame:
        Frame index at which the packet entered the transmit buffer.
    deadline_frame:
        Last frame (exclusive) by which a voice packet must *start*
        transmission; ``None`` for data packets, which are never dropped.
    sequence:
        Globally unique, monotonically increasing packet id (useful for
        debugging and FIFO assertions in tests).
    """

    kind: TrafficKind
    terminal_id: int
    created_frame: int
    deadline_frame: Optional[int] = None
    sequence: int = field(default_factory=lambda: next(_packet_counter))

    def __post_init__(self) -> None:
        if self.created_frame < 0:
            raise ValueError("created_frame must be non-negative")
        if self.kind.is_voice and self.deadline_frame is None:
            raise ValueError("voice packets must carry a deadline")
        if self.deadline_frame is not None and self.deadline_frame <= self.created_frame:
            raise ValueError("deadline_frame must exceed created_frame")
