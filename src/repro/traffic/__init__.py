"""Traffic substrate: the terminal population, packets and contention gating.

The paper's system model (Section 2) has exactly two request types:

* **voice** — an on/off source alternating between exponentially distributed
  talkspurts (mean 1.0 s) and silences (mean 1.35 s); during a talkspurt one
  delay-sensitive packet is produced every 20 ms and must be transmitted
  within 20 ms or be dropped;
* **data** — file transfers arriving as bursts with exponentially distributed
  inter-arrival times (mean 1 s) and exponentially distributed sizes (mean
  100 packets); data packets are delay-insensitive and are never dropped at
  the sender, only delayed (and retransmitted on channel error).

Requests are submitted in contention minislots gated by permission
probabilities ``p_v`` / ``p_d``.

Public classes
--------------
:class:`~repro.traffic.packets.Packet` and :class:`~repro.traffic.packets.TrafficKind`
    The unit of transmission and its service class.
:class:`~repro.traffic.permission.PermissionPolicy`
    The ``p_v`` / ``p_d`` gating of request transmissions.
:class:`~repro.traffic.population.TerminalPopulation`
    The struct-of-arrays state of a scenario's whole terminal population:
    the on/off voice and bursty data source models, the transmit buffers
    and the per-terminal outcome counters (read per terminal as
    :class:`~repro.traffic.population.TerminalStats`), with
    :class:`~repro.traffic.population.TerminalView` per-index views for the
    MAC layer's view-walking path.
"""

from repro.traffic.packets import Packet, TrafficKind
from repro.traffic.permission import PermissionPolicy
from repro.traffic.population import (
    TerminalPopulation,
    TerminalStats,
    TerminalView,
    TerminalViews,
)

__all__ = [
    "Packet",
    "PermissionPolicy",
    "TerminalPopulation",
    "TerminalStats",
    "TerminalView",
    "TerminalViews",
    "TrafficKind",
]
