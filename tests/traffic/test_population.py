"""Unit tests of the struct-of-arrays terminal population.

The population is the simulation's only terminal representation, so its
traffic model is checked against oracles that share no code with it:

* a scalar reference model (``reference_evolution``) replaying the
  parity-mode draw order with raw ``rng.exponential`` calls, frame by
  frame, for the construction draws and the source events;
* closed-form properties of the paper's traffic model (activity factor,
  one voice packet per voice period, the 20 ms voice deadline, loss-free
  data buffering, burst-size mean and offered load), in both RNG modes;
* per-terminal source and buffer behaviour (talkspurt starts, packet
  identity and deadlines, burst arrival frames, retransmission and delay
  accounting, block plans against per-frame stepping), in both RNG modes.

The engine-level golden digests (``tests/sim/test_golden_digests.py``) pin
the end results.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimulationParameters
from repro.sim.rng import RandomStreams
from repro.traffic.packets import TrafficKind
from repro.traffic.population import TerminalPopulation, TerminalStats

PARAMS = SimulationParameters()
RNG_MODES = ("parity", "fast")


def make_population(n_voice=6, n_data=3, seed=42, rng_mode="parity"):
    """A population on the engine's stream layout for ``rng_mode``."""
    streams = RandomStreams(seed)
    fast = rng_mode == "fast"
    return TerminalPopulation(
        PARAMS, n_voice, n_data, streams["traffic"], rng_mode=rng_mode,
        toggle_rng=streams.child("traffic", "toggle") if fast else None,
        burst_rng=streams.child("traffic", "burst") if fast else None,
    )


def duration_frames(seconds: float) -> int:
    return max(1, int(round(seconds / PARAMS.frame_duration_s)))


def reference_evolution(n_voice, n_data, seed, n_frames):
    """Scalar parity-mode model of the voice and data sources.

    Returns the per-frame talkspurt flags, the ``(frame, id)`` talkspurt
    starts and voice generations and the ``(frame, id, size)`` data bursts,
    drawing from
    ``RandomStreams(seed)["traffic"]`` in the documented order: one initial
    duration per voice then per data terminal, then per frame the firing
    terminals in ascending id order.
    """
    rng = RandomStreams(seed)["traffic"]
    period = PARAMS.frames_per_voice_period
    countdown = [duration_frames(rng.exponential(PARAMS.mean_silence_s))
                 for _ in range(n_voice)]
    countdown += [duration_frames(rng.exponential(PARAMS.mean_data_interarrival_s))
                  for _ in range(n_data)]
    talking = [False] * n_voice
    since = [0] * n_voice
    flags, starts, voice_gen, bursts = [], [], [], []
    for frame in range(n_frames):
        for i in range(n_voice + n_data):
            if countdown[i] > 0:
                countdown[i] -= 1
                continue
            if i < n_voice:
                talking[i] = not talking[i]
                since[i] = 0
                if talking[i]:
                    starts.append((frame, i))
                mean = PARAMS.mean_talkspurt_s if talking[i] else PARAMS.mean_silence_s
                countdown[i] = duration_frames(rng.exponential(mean))
            else:
                size = max(1, int(round(rng.exponential(PARAMS.mean_data_burst_packets))))
                countdown[i] = duration_frames(rng.exponential(PARAMS.mean_data_interarrival_s))
                bursts.append((frame, i, size))
        for i in range(n_voice):
            if talking[i]:
                if since[i] % period == 0:
                    voice_gen.append((frame, i))
                since[i] += 1
        flags.append(list(talking))
    return flags, starts, voice_gen, bursts


def observe(population, n_frames, drop=True):
    """Advance per frame; record talkspurt flags and starts, generations
    and bursts."""
    nv = population.n_voice
    views = population.views
    flags, starts, voice_gen, bursts = [], [], [], []
    for frame in range(n_frames):
        voice_before = population.voice_generated.copy()
        data_before = population.data_generated.copy()
        population.advance_frame(frame)
        if drop:
            population.drop_expired(frame)
        flags.append(population.in_talkspurt[:nv].tolist())
        starts += [(frame, i) for i in range(nv) if views[i].talkspurt_started()]
        voice_gen += [(frame, int(i)) for i in
                      np.nonzero(population.voice_generated != voice_before)[0]]
        grown = population.data_generated - data_before
        bursts += [(frame, int(i), int(grown[i])) for i in np.nonzero(grown)[0]]
    return flags, starts, voice_gen, bursts


def advance_until_buffered(population, max_frames=20000):
    """Advance until terminal 0 holds a packet; return the next frame index."""
    for frame in range(max_frames):
        population.advance_frame(frame)
        if population.occupancy[0]:
            return frame + 1
    pytest.fail("terminal 0 never generated a packet")


class TestReferenceModel:
    def test_construction_draws_replay_raw_exponentials(self):
        """Voice rows draw their initial silence first, then data rows their
        first inter-arrival — the same in both RNG modes."""
        for rng_mode in RNG_MODES:
            population = make_population(4, 3, seed=77, rng_mode=rng_mode)
            rng = RandomStreams(77)["traffic"]
            expected = [duration_frames(rng.exponential(PARAMS.mean_silence_s))
                        for _ in range(4)]
            expected += [duration_frames(rng.exponential(PARAMS.mean_data_interarrival_s))
                         for _ in range(3)]
            assert population.countdown.tolist() == expected, rng_mode
            assert (population._rng.bit_generator.state
                    == rng.bit_generator.state), rng_mode

    def test_parity_evolution_matches_scalar_model(self):
        """Talkspurt flags and starts, voice generation frames and burst
        sizes follow the scalar model draw for draw."""
        n_voice, n_data, n_frames = 5, 3, 4000
        expected = reference_evolution(n_voice, n_data, seed=3, n_frames=n_frames)
        observed = observe(make_population(n_voice, n_data, seed=3), n_frames)
        assert observed == expected
        assert all(expected[1:])  # the run saw talkspurts, packets and bursts

    def test_block_plan_matches_scalar_model(self):
        """The macro engine's block plan realises the same traffic."""
        n_voice, n_data, n_frames = 5, 3, 63 * 64
        _, _, voice_gen, bursts = reference_evolution(n_voice, n_data, 3, n_frames)
        population = make_population(n_voice, n_data, seed=3)
        planned_gen, planned_bursts = [], []
        for start in range(0, n_frames, 64):
            plan = population.plan_frames(start, 64)
            for offset in range(64):
                population.apply_planned_frame(plan, start + offset)
                planned_gen += [(start + offset, i)
                                for i in sorted(plan.voice_gen[offset] or ())]
                planned_bursts += [(start + offset, i, size)
                                   for i, size in plan.bursts[offset] or ()]
        assert planned_gen == voice_gen
        assert planned_bursts == bursts


@pytest.mark.parametrize("rng_mode", RNG_MODES)
@pytest.mark.parametrize("block", [1, 7, 64])
def test_block_plan_matches_per_frame_advance(rng_mode, block):
    """Planning a block and replaying it frame by frame realises the
    per-frame traffic and buffer state in either RNG mode, wherever the
    block boundaries fall."""
    n_frames = 64 * 20
    per_frame = make_population(5, 3, seed=3, rng_mode=rng_mode)
    _, _, voice_gen, bursts = observe(per_frame, n_frames)
    planned = make_population(5, 3, seed=3, rng_mode=rng_mode)
    planned_gen, planned_bursts = [], []
    for start in range(0, n_frames, block):
        plan = planned.plan_frames(start, min(block, n_frames - start))
        for offset in range(plan.n_frames):
            frame = start + offset
            planned.apply_planned_frame(plan, frame)
            planned.drop_expired(frame)
            planned_gen += [(frame, i) for i in sorted(plan.voice_gen[offset] or ())]
            planned_bursts += [(frame, i, size)
                               for i, size in plan.bursts[offset] or ()]
    assert voice_gen and bursts
    assert planned_gen == voice_gen
    assert planned_bursts == bursts
    for i in range(len(per_frame)):
        assert (planned.export_terminal_state(i)
                == per_frame.export_terminal_state(i)), i


@pytest.mark.parametrize("rng_mode", RNG_MODES)
class TestClosedFormTraffic:
    def test_activity_factor(self, rng_mode):
        """Long-run talkspurt fraction = mean_talk / (mean_talk + mean_silence)
        (= 0.4255).  120 calls x 50 s is ~2500 on/off cycles, a standard
        error of ~0.005 on the fraction; the tolerance is 0.025."""
        population = make_population(120, 0, seed=1, rng_mode=rng_mode)
        n_frames = 20000
        talking = 0
        for frame in range(n_frames):
            population.advance_frame(frame)
            population.drop_expired(frame)
            talking += int(population.in_talkspurt.sum())
        expected = PARAMS.mean_talkspurt_s / (
            PARAMS.mean_talkspurt_s + PARAMS.mean_silence_s
        )
        assert talking / (120 * n_frames) == pytest.approx(expected, abs=0.025)

    def test_one_voice_packet_per_period_in_talkspurts(self, rng_mode):
        """Exactly one packet at the start of every voice period of a
        talkspurt (every ``frames_per_voice_period`` frames from its first
        frame), none in silence."""
        period = PARAMS.frames_per_voice_period
        population = make_population(8, 0, seed=2, rng_mode=rng_mode)
        flags, _, voice_gen, _ = observe(population, 6000)
        expected = []
        for i in range(8):
            run_start = None
            for frame, frame_flags in enumerate(flags):
                if not frame_flags[i]:
                    run_start = None
                    continue
                if run_start is None:
                    run_start = frame
                if (frame - run_start) % period == 0:
                    expected.append((frame, i))
        assert sorted(voice_gen) == sorted(expected)
        assert len(expected) > 50
        assert population.voice_generated.sum() == len(expected)

    def test_voice_drops_at_deadline(self, rng_mode):
        """Untransmitted voice packets are dropped exactly at their 20 ms
        deadline, and counted as dropped."""
        deadline = PARAMS.voice_deadline_frames
        assert deadline * PARAMS.frame_duration_s == pytest.approx(0.020)
        population = make_population(6, 0, seed=4, rng_mode=rng_mode)
        created_at = {}
        for frame in range(5000):
            before = population.voice_generated.copy()
            population.advance_frame(frame)
            for i in np.nonzero(population.voice_generated != before)[0]:
                created_at.setdefault(frame, []).append(int(i))
                for packet in population.packets_of(int(i)):
                    assert packet.deadline_frame == packet.created_frame + deadline
            events = population.drop_expired_events(frame)
            assert sorted(i for i, _, _ in events) == sorted(
                created_at.get(frame - deadline, [])
            )
            assert all(dropped == counted == 1 for _, dropped, counted in events)
            for i in np.nonzero(population.occupancy)[0].tolist():
                head = min(f for f in range(frame - deadline + 1, frame + 1)
                           if i in created_at.get(f, ()))
                view = population.views[i]
                assert view.head_deadline_frames(frame) == head + deadline - frame
                assert view.head_waiting_frames(frame) == frame - head
        buffered = int(population.occupancy.sum())
        assert buffered == sum(len(created_at.get(f, ()))
                               for f in range(5000 - deadline, 5000))
        assert (population.voice_dropped.sum()
                == population.voice_generated.sum() - buffered)
        assert population.voice_loss_total == population.voice_dropped.sum()

    def test_data_is_never_dropped(self, rng_mode):
        population = make_population(0, 10, seed=5, rng_mode=rng_mode)
        for frame in range(8000):
            population.advance_frame(frame)
            assert population.drop_expired(frame) == 0
        assert population.data_generated.sum() > 0
        assert population.drop_expired(10**7) == 0
        assert np.array_equal(population.occupancy, population.data_generated)
        assert all(packet.deadline_frame is None
                   for packet in population.packets_of(0, 5))

    def test_burst_size_mean_and_offered_load(self, rng_mode):
        """Bursts of mean 100 packets arrive once per ~1 s per terminal:
        0.25 packets per 2.5 ms frame.  40 terminals x 100 s is ~4000
        bursts (standard errors ~1.6 % on the mean size and ~2.2 % on the
        load); the tolerances are 8 % and 10 %."""
        n_data, n_frames = 40, 40000
        population = make_population(0, n_data, seed=6, rng_mode=rng_mode)
        *_, bursts = observe(population, n_frames, drop=False)
        sizes = [size for _, _, size in bursts]
        assert sum(sizes) == population.data_generated.sum()
        assert np.mean(sizes) == pytest.approx(PARAMS.mean_data_burst_packets,
                                               rel=0.08)
        offered = (PARAMS.mean_data_burst_packets
                   / PARAMS.mean_data_interarrival_s * PARAMS.frame_duration_s)
        assert offered == pytest.approx(0.25)
        load = sum(sizes) / (n_data * n_frames)
        assert load == pytest.approx(offered, rel=0.10)


class TestTransmit:
    def test_voice_transmit_splits_delivered_and_errored(self):
        """The first ``n_delivered`` transmitted voice packets are received,
        the rest errored; all of them leave the buffer."""
        from tests.utils import forced_state

        population = make_population(n_voice=1, n_data=0)
        population.import_terminal_state(0, forced_state(True, 2))
        taken = population.transmit(0, max_packets=2, n_delivered=1,
                                    current_frame=0)
        assert taken == 2
        stats = population.stats_of(0)
        assert (stats.voice_delivered, stats.voice_errored) == (1, 1)
        assert population.voice_loss_total == 1
        assert population.occupancy[0] == 0

    def test_voice_transmit_outcomes(self):
        population = make_population(n_voice=1, n_data=0, seed=1)
        frame = advance_until_buffered(population)
        taken = population.transmit(0, max_packets=3, n_delivered=0, current_frame=frame)
        assert taken == 1  # voice buffers hold at most the head-of-line packet
        assert population.voice_errored[0] == 1
        assert population.voice_loss_total == 1
        assert population.occupancy[0] == 0
        assert population.head_created[0] == -1

    def test_data_transmit_records_delays_and_retransmissions(self):
        population = make_population(n_voice=0, n_data=1, seed=5)
        frame = advance_until_buffered(population)
        burst_frame = frame - 1  # the loop increments past the burst frame
        occupancy = int(population.occupancy[0])
        # Deliver two of four transmitted packets three frames later.
        later = burst_frame + 3
        n_transmitted = min(4, occupancy)
        taken = population.transmit(
            0, max_packets=4, n_delivered=2, current_frame=later
        )
        assert taken == 2  # data pops only delivered packets
        assert population.data_delivered[0] == 2
        assert population.data_retransmissions[0] == n_transmitted - 2
        assert population.data_delays(0) == [3, 3]
        assert population.occupancy[0] == occupancy - 2

    def test_transmit_validates_arguments(self):
        population = make_population(n_voice=1, n_data=0)
        with pytest.raises(ValueError):
            population.transmit(0, max_packets=-1, n_delivered=0, current_frame=0)
        with pytest.raises(ValueError):
            population.transmit(0, max_packets=2, n_delivered=5, current_frame=0)


class TestMeasurementWindow:
    def test_pre_window_packets_excluded_from_outcomes(self):
        population = make_population(n_voice=0, n_data=1, seed=5)
        frame = advance_until_buffered(population)
        backlog = int(population.occupancy[0])
        population.begin_measurement(frame + 1)
        assert population.data_generated[0] == 0
        delivered = min(3, backlog)
        population.transmit(
            0, max_packets=delivered, n_delivered=delivered,
            current_frame=frame + 2,
        )
        # The backlog predates the window: nothing is counted.
        assert population.data_delivered[0] == 0
        assert population.data_delays(0) == []
        assert population.occupancy[0] == backlog - delivered

    def test_pre_window_voice_drops_not_counted(self):
        population = make_population(n_voice=1, n_data=0, seed=1)
        frame = advance_until_buffered(population)
        population.begin_measurement(frame + 1)
        dropped = population.drop_expired(frame + PARAMS.voice_deadline_frames)
        assert dropped == 1  # removed from the buffer...
        assert population.voice_dropped[0] == 0  # ...but not counted
        assert population.voice_loss_total == 0


class TestViews:
    def test_views_expose_terminal_api(self):
        population = make_population()
        views = population.views
        assert views.dense_ids
        assert views.population is population
        assert len(views) == len(population)
        voice = views[0]
        data = views[population.n_voice]
        assert voice.is_voice and not voice.is_data
        assert data.is_data and not data.is_voice
        assert voice.kind.is_voice and data.kind.is_data
        assert [v.terminal_id for v in views] == list(range(len(population)))
        assert isinstance(voice, type(views[0]))

    def test_views_refuse_per_index_advance(self):
        population = make_population()
        view = population.views[0]
        with pytest.raises(RuntimeError):
            view.advance_frame(0)
        with pytest.raises(RuntimeError):
            view.drop_expired(0)
        with pytest.raises(RuntimeError):
            view.begin_measurement(0)

    def test_peek_packets_materialises_buffer(self):
        population = make_population(n_voice=0, n_data=1, seed=5)
        frame = advance_until_buffered(population)
        view = population.views[0]
        packets = view.peek_packets(2)
        assert len(packets) == min(2, view.buffer_occupancy)
        assert all(p.kind.is_data for p in packets)
        assert all(p.terminal_id == 0 for p in packets)

    def test_view_stats_are_terminal_stats(self):
        population = make_population()
        assert isinstance(population.views[0].stats, TerminalStats)


class TestConstruction:
    def test_layout_voice_rows_first_all_silent(self):
        """Voice terminals occupy ids 0..n_voice-1, data the rest, and
        every call starts in silence (talkspurts ramp up during warm-up
        instead of a synchronised cold-start burst of contention)."""
        population = make_population(50, 4, seed=1)
        views = population.views
        assert [v.terminal_id for v in views] == list(range(54))
        assert all(v.is_voice for v in views[:50])
        assert all(v.is_data for v in views[50:])
        assert not population.in_talkspurt.any()
        assert not population.occupancy.any()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
    def test_population_size_property(self, nv, nd):
        population = make_population(nv, nd, seed=2)
        assert len(population) == nv + nd
        assert int(population.is_voice.sum()) == nv

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            TerminalPopulation(PARAMS, -1, 0, np.random.default_rng(0))

    def test_rejects_negative_frame(self):
        with pytest.raises(ValueError):
            make_population().advance_frame(-1)


@pytest.mark.parametrize("rng_mode", RNG_MODES)
class TestVoiceSourceBehaviour:
    """Per-terminal voice-source behaviour, read off the population arrays
    and views in both RNG modes."""

    def test_talkspurt_starts_are_the_rising_edges(self, rng_mode):
        """``talkspurt_started()`` holds on exactly the first frame of each
        talkspurt.  20 calls x 20 s is ~170 on/off cycles of 2.35 s mean;
        the accepted range is 110..240 starts."""
        population = make_population(20, 0, seed=4, rng_mode=rng_mode)
        flags, starts, _, _ = observe(population, 8000)
        edges = [
            (frame, i)
            for frame, frame_flags in enumerate(flags)
            for i, talking in enumerate(frame_flags)
            if talking and (frame == 0 or not flags[frame - 1][i])
        ]
        assert starts == edges
        assert 110 <= len(starts) <= 240

    def test_silent_call_generates_nothing(self, rng_mode):
        """A call held in silence neither generates nor buffers packets."""
        population = make_population(2, 0, seed=6, rng_mode=rng_mode)
        state = population.export_terminal_state(0)
        state.countdown = 10**6
        population.import_terminal_state(0, state)
        for frame in range(2000):
            population.advance_frame(frame)
            population.drop_expired(frame)
            assert not population.in_talkspurt[0]
        assert population.voice_generated[0] == 0
        assert population.occupancy[0] == 0
        assert population.voice_generated[1] > 0

    def test_packets_carry_identity_and_deadline(self, rng_mode):
        deadline = PARAMS.voice_deadline_frames
        population = make_population(6, 0, seed=3, rng_mode=rng_mode)
        seen = 0
        for frame in range(3000):
            population.advance_frame(frame)
            for i in np.nonzero(population.occupancy)[0].tolist():
                for packet in population.packets_of(i):
                    assert packet.kind is TrafficKind.VOICE
                    assert packet.terminal_id == i
                    assert packet.created_frame <= frame
                    assert packet.deadline_frame == packet.created_frame + deadline
                    seen += 1
            population.drop_expired(frame)
        assert seen > 100

    def test_deadline_leaves_at_most_one_buffered_packet(self, rng_mode):
        """The 20 ms deadline equals the 20 ms voice period, so after the
        frame's drops a call holds at most its newest packet."""
        assert PARAMS.voice_deadline_frames == PARAMS.frames_per_voice_period
        population = make_population(10, 0, seed=8, rng_mode=rng_mode)
        for frame in range(4000):
            population.advance_frame(frame)
            population.drop_expired(frame)
            assert population.occupancy.max() <= 1
        assert population.voice_dropped.sum() > 0

    def test_generated_packets_are_buffered(self, rng_mode):
        """Without drops or transmissions every generated packet stays in
        the buffer, one FIFO entry each."""
        population = make_population(6, 0, seed=9, rng_mode=rng_mode)
        _, _, voice_gen, _ = observe(population, 3000, drop=False)
        assert voice_gen
        assert np.array_equal(population.occupancy, population.voice_generated)
        for i in range(6):
            created = [p.created_frame for p in population.packets_of(i)]
            assert created == [frame for frame, j in voice_gen if j == i]

    def test_reproducible(self, rng_mode):
        a = observe(make_population(5, 0, seed=8, rng_mode=rng_mode), 2000)
        b = observe(make_population(5, 0, seed=8, rng_mode=rng_mode), 2000)
        c = observe(make_population(5, 0, seed=9, rng_mode=rng_mode), 2000)
        assert a == b
        assert a != c


@pytest.mark.parametrize("rng_mode", RNG_MODES)
class TestDataSourceBehaviour:
    """Per-terminal data-source and data-buffer behaviour in both RNG
    modes."""

    def test_burst_packets_share_their_arrival_frame(self, rng_mode):
        population = make_population(0, 4, seed=4, rng_mode=rng_mode)
        *_, bursts = observe(population, 6000, drop=False)
        assert bursts
        for i in range(4):
            created = [p.created_frame for p in population.packets_of(i)]
            expected = [frame for frame, j, size in bursts if j == i
                        for _ in range(size)]
            assert created == expected

    def test_packets_carry_identity_and_no_deadline(self, rng_mode):
        population = make_population(2, 3, seed=3, rng_mode=rng_mode)
        observe(population, 4000, drop=False)
        for i in range(2, 5):
            packets = population.packets_of(i)
            assert packets
            assert all(p.kind is TrafficKind.DATA for p in packets)
            assert all(p.terminal_id == i for p in packets)
            assert all(p.deadline_frame is None for p in packets)
            view = population.views[i]
            assert view.head_deadline_frames(10**6) is None
            assert view.head_waiting_frames(4000) == 4000 - packets[0].created_frame

    def test_failed_data_packets_stay_buffered(self, rng_mode):
        population = make_population(0, 1, seed=2, rng_mode=rng_mode)
        frame = advance_until_buffered(population)
        before = int(population.occupancy[0])
        n = min(3, before)
        taken = population.transmit(0, max_packets=n, n_delivered=0,
                                    current_frame=frame + 4)
        assert taken == 0
        assert population.occupancy[0] == before
        assert population.data_retransmissions[0] == n
        assert population.data_delivered[0] == 0
        assert population.data_delays(0) == []

    def test_delays_measured_from_each_bursts_arrival(self, rng_mode):
        """Delivering a whole multi-burst backlog records, per packet, the
        frames since its own burst arrived, in FIFO order."""
        population = make_population(0, 1, seed=5, rng_mode=rng_mode)
        frame = 0
        while len({p.created_frame for p in population.packets_of(0)}) < 2:
            population.advance_frame(frame)
            frame += 1
            assert frame < 50000, "terminal 0 never received two bursts"
        created = [p.created_frame for p in population.packets_of(0)]
        now = frame + 7
        n = len(created)
        assert population.transmit(0, max_packets=n, n_delivered=n,
                                   current_frame=now) == n
        assert population.data_delays(0) == [now - c for c in created]
        stats = population.stats_of(0)
        assert stats.data_delivered == n
        assert stats.data_delay_frames == [now - c for c in created]
        assert population.occupancy[0] == 0
        assert population.head_created[0] == -1

    def test_peek_does_not_remove(self, rng_mode):
        population = make_population(0, 1, seed=4, rng_mode=rng_mode)
        advance_until_buffered(population)
        view = population.views[0]
        before = view.buffer_occupancy
        peeked = view.peek_packets(min(5, before))
        assert len(peeked) == min(5, before)
        assert [p.created_frame for p in peeked] == [
            p.created_frame for p in population.packets_of(0, 5)
        ]
        assert view.buffer_occupancy == before
        with pytest.raises(ValueError):
            view.peek_packets(-1)

    def test_reproducible(self, rng_mode):
        a = observe(make_population(0, 4, seed=6, rng_mode=rng_mode), 8000)
        b = observe(make_population(0, 4, seed=6, rng_mode=rng_mode), 8000)
        c = observe(make_population(0, 4, seed=7, rng_mode=rng_mode), 8000)
        assert a == b
        assert a[3] != c[3]


@pytest.mark.parametrize("rng_mode", RNG_MODES)
def test_empty_population_steps(rng_mode):
    population = make_population(0, 0, rng_mode=rng_mode)
    assert len(population) == 0 and population.n_terminals == 0
    assert len(population.views) == 0
    for frame in range(10):
        population.advance_frame(frame)
        assert population.drop_expired(frame) == 0
    plan = population.plan_frames(10, 8)
    for offset in range(8):
        population.apply_planned_frame(plan, 10 + offset)
    assert population.voice_loss_total == 0
    assert population.all_data_delays() == []


class TestValidation:
    def test_rejects_negative_data_size(self):
        with pytest.raises(ValueError):
            TerminalPopulation(PARAMS, 0, -1, np.random.default_rng(0))

    def test_rejects_unknown_rng_mode(self):
        with pytest.raises(ValueError, match="rng_mode"):
            TerminalPopulation(PARAMS, 1, 1, np.random.default_rng(0),
                               rng_mode="turbo")

    def test_plan_frames_validates_block(self):
        population = make_population()
        with pytest.raises(ValueError):
            population.plan_frames(-1, 4)
        with pytest.raises(ValueError):
            population.plan_frames(0, 0)

    def test_begin_measurement_rejects_negative_frame(self):
        with pytest.raises(ValueError):
            make_population().begin_measurement(-1)

    def test_index_outside_population_rejected(self):
        population = make_population(2, 1)
        with pytest.raises(IndexError):
            population.export_terminal_state(3)
        with pytest.raises(IndexError):
            population.export_terminal_state(-1)
        with pytest.raises(IndexError):
            population.views[3]

    def test_import_rejects_other_service_class(self):
        population = make_population(1, 1)
        voice_state = population.export_terminal_state(0)
        with pytest.raises(ValueError, match="service"):
            population.import_terminal_state(1, voice_state)

    def test_transmit_on_empty_buffer(self):
        """An empty buffer transmits nothing and cannot deliver anything."""
        population = make_population(n_voice=1, n_data=1)
        for index in (0, 1):
            assert population.transmit(index, max_packets=1, n_delivered=0,
                                       current_frame=0) == 0
            with pytest.raises(ValueError):
                population.transmit(index, max_packets=1, n_delivered=1,
                                    current_frame=0)
        assert population.stats_of(0) == TerminalStats()
        assert population.stats_of(1) == TerminalStats()


def test_apply_grants_matches_per_grant_transmit():
    """A batch of grants has the outcome of the same grants transmitted one
    by one, and returns the delivered data packets."""
    def loaded():
        population = make_population(3, 3, seed=11)
        for frame in range(6000):
            population.advance_frame(frame)
        return population

    indices, capacities, delivered = [0, 3, 4, 1, 5], [1, 4, 2, 1, 3], [1, 2, 0, 0, 3]
    batched, single = loaded(), loaded()
    assert all(batched.occupancy[i] >= c for i, c in zip(indices, capacities))
    data_ok = batched.apply_grants(indices, capacities, delivered, 6000)
    for i, c, ok in zip(indices, capacities, delivered):
        single.transmit(i, max_packets=c, n_delivered=ok, current_frame=6000)
    assert data_ok == 5
    for i in range(6):
        assert batched.stats_of(i) == single.stats_of(i)
        assert batched.occupancy[i] == single.occupancy[i]
    assert batched.voice_loss_total == single.voice_loss_total == 1
