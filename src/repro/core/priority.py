"""CHARISMA's request-priority metric (paper equation (2)).

Every request gathered by the base station — new, backlogged, or an
auto-generated voice reservation — receives a scalar priority that blends

* the **channel term**: the normalised throughput the adaptive PHY would
  deliver at the request's estimated CSI (``f(CSI)``), weighted by ``alpha``;
  users in good channels use the bandwidth more effectively, so they are
  preferred;
* the **urgency term**: for voice, an exponential of the number of frames
  remaining to the head-of-line packet's deadline (forgetting factor
  ``beta_v``) — the closer the deadline, the larger the term; for data, one
  minus an exponential of the waiting time (forgetting factor ``beta_d``) —
  the longer a request has waited, the larger the term;
* the **service-class offset** ``V`` added to voice requests so that voice
  always outranks data at comparable channel conditions.

The weights live in :class:`repro.config.PriorityWeights`, so experiments can
ablate the relative importance of urgency, channel quality and traffic type
exactly as the paper's discussion of the ``alpha``/``beta``/``V`` parameters
suggests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.config import PriorityWeights
from repro.mac.base import Modem
from repro.mac.requests import Request

__all__ = ["PriorityCalculator"]


class PriorityCalculator:
    """Computes the CHARISMA priority of a pending request.

    Parameters
    ----------
    weights:
        The metric's tunable weights (``alpha``, ``beta``, ``V``).
    modem:
        The adaptive modem used to translate an estimated CSI amplitude into
        the normalised throughput ``f(CSI)``.
    """

    def __init__(self, weights: PriorityWeights, modem: Modem) -> None:
        self._weights = weights
        self._modem = modem

    @property
    def weights(self) -> PriorityWeights:
        """The metric's weights."""
        return self._weights

    # ------------------------------------------------------------------ API
    def channel_term(self, request: Request) -> float:
        """Normalised throughput at the request's estimated CSI (0 if unknown)."""
        if request.csi is None:
            return 0.0
        return float(self._modem.throughput(request.csi.amplitude))

    def urgency_term(self, request: Request, current_frame: int) -> float:
        """Deadline / waiting-time contribution of the request."""
        w = self._weights
        if request.kind.is_voice:
            remaining = request.frames_to_deadline(current_frame)
            if remaining is None:
                remaining = 0
            return float(w.urgency_weight_voice * np.power(w.beta_voice, max(0, remaining)))
        waited = request.waiting_frames(current_frame)
        return float(w.urgency_weight_data * (1.0 - np.power(w.beta_data, max(0, waited))))

    def priority(self, request: Request, current_frame: int) -> float:
        """Full priority value of the request at ``current_frame``.

        Computed through :meth:`priorities` so scalar and batched callers
        (the poller's priority key, the ranked allocation pass) see exactly
        the same floating-point values.
        """
        return float(self.priorities([request], current_frame)[0])

    def priorities(self, requests: Sequence[Request], current_frame: int) -> np.ndarray:
        """Vectorised priority evaluation over a frame's pending requests.

        One modem lookup over all estimated CSIs plus array urgency terms —
        the per-request scalar path dominated CHARISMA's frame cost.
        """
        n = len(requests)
        if n == 0:
            return np.zeros(0, dtype=float)
        w = self._weights
        voice = np.fromiter(
            (r.kind.is_voice for r in requests), dtype=bool, count=n
        )
        # Channel term: throughput at the estimated CSI, 0 when unknown.
        amplitudes = np.fromiter(
            (r.csi.amplitude if r.csi is not None else -1.0 for r in requests),
            dtype=float,
            count=n,
        )
        channel = np.zeros(n, dtype=float)
        known = amplitudes >= 0.0
        if np.any(known):
            channel[known] = np.asarray(
                self._modem.throughput(amplitudes[known]), dtype=float
            )
        # Urgency term: frames to deadline (voice) / frames waited (data).
        horizon = np.fromiter(
            (
                max(
                    0,
                    (
                        (request.frames_to_deadline(current_frame) or 0)
                        if request.kind.is_voice
                        else request.waiting_frames(current_frame)
                    ),
                )
                for request in requests
            ),
            dtype=float,
            count=n,
        )
        urgency = np.where(
            voice,
            w.urgency_weight_voice * np.power(w.beta_voice, horizon),
            w.urgency_weight_data * (1.0 - np.power(w.beta_data, horizon)),
        )
        alpha = np.where(voice, w.alpha_voice, w.alpha_data)
        offset = np.where(voice, w.voice_offset, 0.0)
        return alpha * channel + urgency + offset

    def priorities_columns(
        self,
        columns,
        current_frame: int,
        channel: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Priority evaluation directly over request columns.

        The column twin of :meth:`priorities`: reads a
        :class:`~repro.mac.requests.RequestColumns` pool (NaN amplitude =
        no estimate, deadline ``-1`` = none) and performs the same
        floating-point operations in the same order, so the returned values
        are bit-identical to evaluating materialised :class:`Request`
        objects.  ``channel`` optionally supplies the precomputed
        ``f(CSI)`` column (0 where no estimate is attached) so a caller
        that already performed the frame's mode lookup shares it instead of
        paying a second amplitude-to-mode conversion.
        """
        n = len(columns)
        if n == 0:
            return np.zeros(0, dtype=float)
        w = self._weights
        voice = columns.is_voice
        if channel is None:
            amplitudes = columns.csi_amplitudes
            known = ~np.isnan(amplitudes)
            if known.all():
                channel = np.asarray(
                    self._modem.throughput(amplitudes), dtype=float
                )
            else:
                channel = np.zeros(n, dtype=float)
                if known.any():
                    channel[known] = np.asarray(
                        self._modem.throughput(amplitudes[known]), dtype=float
                    )
        # A ``-1`` (no-deadline) sentinel clamps to horizon 0 on its own,
        # exactly like the object path's ``frames_to_deadline(...) or 0``.
        horizon = np.where(
            voice,
            np.maximum(0, columns.deadline_frames - current_frame),
            np.maximum(0, current_frame - columns.arrival_frames),
        ).astype(float)
        urgency = np.where(
            voice,
            w.urgency_weight_voice * np.power(w.beta_voice, horizon),
            w.urgency_weight_data * (1.0 - np.power(w.beta_data, horizon)),
        )
        if w.alpha_voice == w.alpha_data:
            weighted = w.alpha_voice * channel
        else:
            weighted = np.where(voice, w.alpha_voice, w.alpha_data) * channel
        offset = np.where(voice, w.voice_offset, 0.0)
        return weighted + urgency + offset

    def rank(self, requests, current_frame: int) -> List[Request]:
        """Return the requests sorted by decreasing priority (stable)."""
        requests = list(requests)
        if len(requests) <= 1:
            return requests
        values = self.priorities(requests, current_frame)
        order = np.argsort(-values, kind="stable")
        return [requests[i] for i in order]
