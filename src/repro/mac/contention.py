"""Slotted request-contention resolution.

All protocols except RAMA gather requests through slotted ALOHA-style
contention: in each request minislot every still-unserved contender
transmits with its class's permission probability; a minislot with exactly
one transmission yields a successful request (acknowledged immediately on the
downlink), a minislot with two or more transmissions is a collision and all
of them fail, an empty minislot is idle.  Capture is not modelled, matching
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.traffic.permission import PermissionPolicy
from repro.lint.contracts import kernel
from repro.obs import metrics as _metrics
from repro.traffic.population import TerminalView

__all__ = [
    "ContentionResult",
    "IndexContentionResult",
    "MATRIX_MIN_MINISLOTS",
    "resolve_transmissions",
    "run_contention",
    "run_contention_ids",
]


@dataclass
class ContentionResult:
    """Outcome of the request phase of one frame.

    Attributes
    ----------
    winners:
        Terminals whose request was successfully received, in the order the
        minislots resolved them (this order is the FCFS order used by the
        baseline protocols).
    attempts:
        Total number of request transmissions (every transmission costs the
        sender energy, successful or not).
    collisions:
        Number of minislots wasted by collisions.
    idle_slots:
        Number of minislots in which nobody transmitted.
    """

    winners: List[TerminalView] = field(default_factory=list)
    attempts: int = 0
    collisions: int = 0
    idle_slots: int = 0

    @property
    def n_winners(self) -> int:
        """Number of successful requests."""
        return len(self.winners)


@kernel
def run_contention(
    candidates: Sequence[TerminalView],
    n_minislots: int,
    permission: PermissionPolicy,
    rng: np.random.Generator,
) -> ContentionResult:
    """Run slotted contention over ``n_minislots`` request minislots.

    Parameters
    ----------
    candidates:
        Terminals that currently have a request to make.  A terminal stops
        contending for the rest of the frame as soon as its request succeeds
        (it then waits for the allocation announcement).
    n_minislots:
        Number of request minislots in this frame.
    permission:
        The ``p_v`` / ``p_d`` gating policy.
    rng:
        Random generator (used only through ``permission`` draws; kept as an
        explicit argument so callers can reason about stream usage).

    Returns
    -------
    ContentionResult
        Winners in resolution order plus contention statistics.
    """
    if n_minislots < 0:
        raise ValueError("n_minislots must be non-negative")
    remaining = list(candidates)
    # One permission probability per contender, kept aligned with
    # ``remaining`` so each minislot costs a single batched uniform draw
    # (stream-identical to per-candidate ``permission.permits`` calls).
    voice_probability = permission.voice_probability
    data_probability = permission.data_probability
    probabilities = np.array(
        [voice_probability if t.is_voice else data_probability for t in remaining],
        dtype=float,
    )
    result = ContentionResult()
    for _ in range(n_minislots):
        if not remaining:
            result.idle_slots += 1
            continue
        permitted = permission.permits_many(probabilities)
        n_transmitters = int(np.count_nonzero(permitted))
        result.attempts += n_transmitters
        if n_transmitters == 1:
            index = int(np.argmax(permitted))
            result.winners.append(remaining.pop(index))
            probabilities = np.delete(probabilities, index)
        elif n_transmitters == 0:
            result.idle_slots += 1
        else:
            result.collisions += 1
    return result


@dataclass
class IndexContentionResult:
    """Outcome of an index-native contention phase (no terminal objects).

    ``winner_ids`` lists the successful terminals in minislot-resolution
    order; ``remaining_ids`` / ``remaining_probabilities`` are the still
    unserved contenders (aligned plain lists) for callers that continue a
    request phase over multiple calls.  (DRMA manages its own candidate
    lists instead — it must selectively *re-admit* data winners with deep
    buffers, which a pure remainder cannot express.)
    """

    winner_ids: List[int] = field(default_factory=list)
    attempts: int = 0
    collisions: int = 0
    idle_slots: int = 0
    remaining_ids: List[int] = field(default_factory=list)
    remaining_probabilities: List[float] = field(default_factory=list)


#: Candidate count below which per-minislot resolution runs on plain Python
#: scalars (the draw itself stays one batched ``rng.random(n)`` either way).
_SCALAR_RESOLUTION_LIMIT = 24

#: Request minislots from which fast mode draws the whole request phase as
#: one ``(n_minislots, n_candidates)`` matrix.
MATRIX_MIN_MINISLOTS = 6


def resolve_transmissions(
    ids, rows: List[List[bool]], counts: List[int],
    result: IndexContentionResult,
) -> Optional[List[bool]]:
    """Minislot-by-minislot bookkeeping over a pre-drawn transmission matrix.

    ``rows[slot][candidate]`` says whether a candidate transmits in a
    minislot and ``counts[slot]`` is that minislot's transmitter total (a
    list, updated in place).  A winner stops contending, so its later
    transmissions are taken off the later totals.  The matrices are a few
    candidates wide, so the walk runs on plain Python lists.  Winners,
    attempts, collisions and idle minislots accumulate into ``result``;
    the return value is the still-contending mask, or ``None`` when nobody
    won.
    """
    n_minislots = len(rows)
    active: Optional[List[bool]] = None
    n_active = len(ids)
    for slot in range(n_minislots):
        if n_active == 0:
            result.idle_slots += n_minislots - slot
            break
        n_transmitters = counts[slot]
        result.attempts += n_transmitters
        if n_transmitters == 1:
            row = rows[slot]
            if active is None:
                index = row.index(True)
                active = [True] * len(ids)
            else:
                index = next(
                    i for i, sent in enumerate(row) if sent and active[i]
                )
            result.winner_ids.append(int(ids[index]))
            active[index] = False
            n_active -= 1
            for later in range(slot + 1, n_minislots):
                if rows[later][index]:
                    counts[later] -= 1
        elif n_transmitters == 0:
            result.idle_slots += 1
        else:
            result.collisions += 1
    return active


@kernel
def run_contention_ids(
    ids,
    probabilities,
    n_minislots: int,
    rng: np.random.Generator,
    fast: bool = False,
) -> IndexContentionResult:
    """Slotted contention over id/probability columns instead of objects.

    The array-native twin of :func:`run_contention`: candidates are a dense
    id sequence (array or list) plus an aligned per-candidate
    permission-probability sequence, and winners come back as plain ids.
    With ``fast=False`` the draws are one ``rng.random(n_remaining)`` per
    non-empty minislot in minislot order — exactly the calls (sizes, order,
    comparisons) the object path makes through
    :meth:`PermissionPolicy.permits_many`, so the resolution is
    bit-identical to :func:`run_contention` on the same candidates.  Small
    pools resolve the comparison on Python scalars (cheaper than three
    array kernels per minislot), large ones vectorise; the decisions are
    identical either way.

    With ``fast=True`` the whole request phase costs a single
    ``rng.random((n_minislots, n_candidates))`` draw up front; already
    successful candidates are masked out of later minislots instead of
    shrinking the draw.  Each candidate's per-minislot transmission events
    are still independent Bernoulli(p) trials, so the resolution process is
    distributed identically to the scalar path — just not bit-identical,
    which is why fast mode feeds this from a dedicated child stream.
    """
    if n_minislots < 0:
        raise ValueError("n_minislots must be non-negative")
    result = IndexContentionResult()
    n = len(ids)
    m = _metrics.METRICS
    if m.enabled:
        # Pure accumulation (no clock, no draw) — legal inside kernels.
        m.inc("contention.rounds", n_minislots)
    if n == 0:
        result.idle_slots = n_minislots
        return result

    # The matrix draw only pays for itself when the request phase is large
    # enough to amortise its fixed array cost; below that, fast mode keeps
    # the scalar per-minislot resolution (drawing from its child stream —
    # the processes are identically distributed either way).
    if fast and n_minislots >= MATRIX_MIN_MINISLOTS:
        ids = np.asarray(ids, dtype=np.int64)
        probabilities = np.asarray(probabilities, dtype=float)
        # One draw and one comparison for the whole request phase.  The
        # fast gate only switches draw *shape*, never count: this path owns
        # its child stream, so no parity with the scalar draw order is
        # promised here.
        # lint: allow[KRN001]
        transmitting = rng.random((n_minislots, n)) < probabilities
        active = resolve_transmissions(
            ids,
            transmitting.tolist(),
            transmitting.sum(axis=1, dtype=np.int64).tolist(),
            result,
        )
        if active is None:
            result.remaining_ids = ids.tolist()
            result.remaining_probabilities = probabilities.tolist()
        else:
            mask = np.array(active)
            result.remaining_ids = ids[mask].tolist()
            result.remaining_probabilities = probabilities[mask].tolist()
        return result

    id_list = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
    prob_list = (
        probabilities.tolist()
        if isinstance(probabilities, np.ndarray)
        else list(probabilities)
    )
    prob_array: Optional[np.ndarray] = None
    for _ in range(n_minislots):
        k = len(id_list)
        if k == 0:
            result.idle_slots += 1
            continue
        draws = rng.random(size=k)
        if k <= _SCALAR_RESOLUTION_LIMIT:
            n_transmitters = 0
            index = -1
            for position, draw in enumerate(draws.tolist()):
                if draw < prob_list[position]:
                    n_transmitters += 1
                    index = position
        else:
            if prob_array is None:
                prob_array = np.asarray(prob_list, dtype=float)
            permitted = draws < prob_array
            n_transmitters = int(np.count_nonzero(permitted))
            index = int(np.argmax(permitted)) if n_transmitters == 1 else -1
        result.attempts += n_transmitters
        if n_transmitters == 1:
            result.winner_ids.append(id_list.pop(index))
            prob_list.pop(index)
            prob_array = None
        elif n_transmitters == 0:
            result.idle_slots += 1
        else:
            result.collisions += 1
    result.remaining_ids = id_list
    result.remaining_probabilities = prob_list
    return result
