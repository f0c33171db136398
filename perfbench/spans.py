"""Outside-in layer tracing: wrap the program's public entry points.

The wrappers are installed on class and module attributes of the ``repro``
package from this file and removed afterwards; the program is never edited
and, with the wrappers removed, every attribute is the original object
again.  Each call through a wrapped entry point records one span:

    sid, parent, fn, t0, t1, work, tag, run, cpu

``sid``/``parent`` are per-thread span ids (``parent`` is the innermost
wrapped call open on the same thread, -1 at top level), ``fn`` indexes
:func:`targets`, ``work`` is a per-call work count (frames, packets) and
``tag`` a small key (the beam of a shard step); ``cpu`` is the calling
thread's CPU time inside the span, taken only for shard steps.  Spans are
appended to a per-thread flat ``array('d')`` so that shard worker threads
never share a buffer, and are kept in memory until the run ends.

Accounting (:func:`run_metrics`):

* a span's *self time* is its duration minus the part of it covered by its
  children (the union of their intervals, clipped to the span);
* a layer's ``<layer>.self_s`` is the sum of its spans' self times in
  *wall-equivalent* seconds: time spent on a shard worker thread counts
  divided by the pool width, and so does the barrier wait, so the nine
  layer self times plus ``trace.unattributed_s`` add up to the traced wall
  time ``trace.wall_s`` exactly;
* on shard worker threads a span's wall time includes waiting for the
  interpreter lock held by the other shard thread;
  ``constellation.shard_offcpu_s`` totals the part of the shard steps'
  wall time their threads spent off the CPU;
* ``calls`` count entries into a layer (spans whose parent is not in the
  same layer), so a protocol kernel that calls another wrapped kernel of
  its own layer counts once.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Column order of one recorded span.
FIELDS = ("sid", "parent", "fn", "t0", "t1", "work", "tag", "run", "cpu")
_SID, _PARENT, _FN, _T0, _T1, _WORK, _TAG, _RUN, _CPU = range(len(FIELDS))

#: Layers in reporting order; their ``self_s`` sum (plus the unattributed
#: remainder) to the traced wall time.
LAYERS = (
    "api", "store", "sim", "traffic", "channel", "mac", "phy", "metrics",
    "constellation",
)

#: Which end-to-end metric on which workload each per-layer metric of
#: ``BENCHMARK.json`` (where its unit and direction live) should move.
#: Metrics of a layer a workload never enters read 0 there (the grids have
#: no constellation, the constellation bypasses ``repro.api`` and the store).
SHOULD_MOVE: Dict[str, str] = {
    "api.self_s": "wall_cal_s on both grids",
    "api.points": "work count behind api.self_s",
    "store.self_s": "wall_cal_s on grid_default",
    "store.put_s": "wall_cal_s on grid_default",
    "store.puts": "work count behind store.put_s",
    "store.get_s": "wall_cal_s on grid_default",
    "store.gets": "work count behind store.get_s",
    "store.warm_rerun_s": "wall time of a cached re-run; no e2e metric",
    "store.warm_hit_ratio": "correctness of the cache; expect 1",
    "sim.self_s": "terminal_frames_per_cal_s on all three",
    "sim.setup_s": "setup_s on constellation_100x100; wall_cal_s on the grids",
    "sim.setups": "engines built per repetition",
    "sim.step_self_s": "terminal_frames_per_cal_s on grid_default",
    "sim.steps": "per-frame steps; falls when macro stepping is default",
    "sim.macro_block_self_s": "terminal_frames_per_cal_s on constellation_100x100 and grid_fast_macro",
    "sim.macro_blocks": "sample count of the block percentiles",
    "sim.macro_block_p50_ms": "terminal_frames_per_cal_s on constellation_100x100 and grid_fast_macro",
    "sim.macro_block_p99_ms": "terminal_frames_per_cal_s on constellation_100x100 and grid_fast_macro",
    "sim.macro_fallback_ratio": "terminal_frames_per_cal_s on grid_fast_macro",
    "traffic.self_s": "terminal_frames_per_cal_s on all three",
    "traffic.calls": "terminal_frames_per_cal_s on all three",
    "channel.self_s": "terminal_frames_per_cal_s on constellation_100x100 first",
    "channel.calls": "terminal_frames_per_cal_s on constellation_100x100 first",
    "channel.frames_per_call": "terminal_frames_per_cal_s on constellation_100x100",
    "mac.self_s": "terminal_frames_per_cal_s on grid_default, then grid_fast_macro",
    "mac.calls": "terminal_frames_per_cal_s on grid_default",
    "mac.us_per_call": "terminal_frames_per_cal_s on grid_default",
    "phy.self_s": "terminal_frames_per_cal_s on grid_default",
    "phy.calls": "terminal_frames_per_cal_s on grid_default",
    "phy.packets_per_call": "rises under beam fusion on constellation_100x100",
    "metrics.self_s": "about 1% everywhere: the prediction is no change",
    "metrics.calls": "about 1% everywhere: the prediction is no change",
    "constellation.self_s": "wall_cal_s on constellation_100x100",
    "constellation.shard_step_s": "terminal_frames_per_cal_s on constellation_100x100",
    "constellation.shard_offcpu_s": "terminal_frames_per_cal_s on constellation_100x100 with >1 thread",
    "constellation.shard_steps": "sample count of the shard percentiles",
    "constellation.shard_block_p50_ms": "terminal_frames_per_cal_s on constellation_100x100",
    "constellation.shard_block_p99_ms": "terminal_frames_per_cal_s on constellation_100x100",
    "constellation.coupling_s": "wall_cal_s on constellation_100x100",
    "constellation.coupling_calls": "work count behind constellation.coupling_s",
    "constellation.merge_s": "wall_cal_s on constellation_100x100",
    "constellation.merge_calls": "work count behind constellation.merge_s",
    "constellation.barrier_wait_s": "terminal_frames_per_cal_s on constellation_100x100 with >1 thread",
    "constellation.barriers": "sample count behind constellation.barrier_wait_s",
    "constellation.load_imbalance": "terminal_frames_per_cal_s on constellation_100x100 with >1 thread",
    "trace.wall_s": "traced wall time of one repetition",
    "trace.unattributed_s": "traced wall minus the sum of layer self times",
    "trace.overhead_ratio": "traced over untraced wall time of the same window",
    "trace.spans": "spans recorded per traced repetition",
}


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``owner.name`` attributed to ``label``."""

    owner: Any
    name: str
    label: str
    work: Optional[Callable[[tuple, dict], float]] = None
    tag: Optional[Callable[[tuple, dict], float]] = None
    cpu: bool = False

    @property
    def layer(self) -> str:
        return self.label.split(".", 1)[0]


def _arg(index: int, name: str) -> Callable[[tuple, dict], float]:
    """Work extractor reading one call argument (positional or keyword)."""

    def read(args: tuple, kwargs: dict) -> float:
        value = args[index] if len(args) > index else kwargs.get(name, 0)
        return float(value)

    return read


def _packets(args: tuple, kwargs: dict) -> float:
    n_packets = args[2] if len(args) > 2 else kwargs.get("n_packets")
    return float(np.sum(n_packets)) if n_packets is not None else 0.0


def _one(args: tuple, kwargs: dict) -> float:
    return 1.0


def _n_runs(args: tuple, kwargs: dict) -> float:
    spec = args[0] if args else kwargs.get("spec")
    return float(spec.n_runs)


def _beam(args: tuple, kwargs: dict) -> float:
    return float(args[0].beam)


def targets() -> List[Target]:
    """Every public layer entry point the traced run wraps."""
    import repro.api
    import repro.core.charisma  # noqa: F401  (defines CharismaProtocol)
    from repro.channel.manager import ChannelManager
    from repro.constellation import runner as constellation_runner
    from repro.constellation.shard import BeamShard
    from repro.mac.base import MACProtocol
    from repro.metrics.collector import MacStats, MetricsCollector
    from repro.metrics.data import DataMetrics
    from repro.metrics.voice import VoiceMetrics
    from repro.phy.error_model import PacketErrorModel
    from repro.sim.engine import UplinkSimulationEngine
    from repro.sim.macro import MacroRunner
    from repro.store.store import ResultStore
    from repro.traffic.population import TerminalPopulation

    found: List[Target] = [
        Target(repro.api, "run", "api.run", work=_n_runs),
        Target(ResultStore, "put", "store.put"),
        Target(ResultStore, "get", "store.get"),
        Target(UplinkSimulationEngine, "__init__", "sim.setup"),
        Target(UplinkSimulationEngine, "step", "sim.step"),
        Target(MacroRunner, "run_block", "sim.macro_block", work=_arg(1, "n_frames")),
    ]
    for name in (
        "advance_frame", "drop_expired", "plan_frames", "apply_planned_frame",
        "drop_expired_events", "apply_grants", "resolve_voice_outcomes",
    ):
        found.append(Target(TerminalPopulation, name, "traffic"))
    found.append(Target(ChannelManager, "advance_block", "channel",
                        work=_arg(1, "n_frames")))
    found.append(Target(ChannelManager, "advance_frame", "channel", work=_one))
    pending = [MACProtocol]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run_frame_batch" in vars(cls):
            found.append(Target(cls, "run_frame_batch", "mac"))
    found.append(Target(PacketErrorModel, "transmit_batch", "phy", work=_packets))
    for name in ("record_frame", "record_block", "voice_metrics", "data_metrics"):
        found.append(Target(MetricsCollector, name, "metrics"))
    found.append(Target(BeamShard, "run_frames", "constellation.shard_step",
                        work=_arg(1, "n_frames"), tag=_beam, cpu=True))
    for name in ("interference_offsets", "plan_handovers"):
        found.append(Target(constellation_runner, name, "constellation.coupling"))
    for name in ("busy_load", "eligible_handover_ids", "export_terminal",
                 "import_terminal", "set_interference_db"):
        found.append(Target(BeamShard, name, "constellation.coupling"))
    for cls in (VoiceMetrics, DataMetrics, MacStats):
        found.append(Target(cls, "combine", "constellation.merge"))
    return found


class _ThreadState:
    __slots__ = ("index", "main", "next_sid", "stack", "rows")

    def __init__(self, index: int, main: bool) -> None:
        self.index = index
        self.main = main
        self.next_sid = 0
        self.stack: List[int] = []
        self.rows = array("d")


class Recorder:
    """Installs the wrappers and keeps the spans they record in memory."""

    def __init__(self, target_list: Optional[Sequence[Target]] = None) -> None:
        self.targets: List[Target] = list(
            target_list if target_list is not None else targets()
        )
        self.run = -1
        self.windows: Dict[int, Tuple[float, float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._main = threading.get_ident()
        self._originals: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- wrapping
    def install(self) -> None:
        if self._originals:
            raise RuntimeError("wrappers are already installed")
        for index, target in enumerate(self.targets):
            original = vars(target.owner)[target.name]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped: Any = type(original)(
                    self._wrap(original.__func__, index, target)
                )
            else:
                wrapped = self._wrap(original, index, target)
            self._originals.append((target.owner, target.name, original))
            setattr(target.owner, target.name, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def _state(self) -> _ThreadState:
        with self._lock:
            state = _ThreadState(
                len(self._threads), threading.get_ident() == self._main
            )
            self._threads.append(state)
        self._local.state = state
        return state

    def _wrap(self, fn: Callable, index: int, target: Target) -> Callable:
        local = self._local
        new_state = self._state
        recorder = self
        clock = time.perf_counter
        work = target.work
        tag = target.tag
        cpu_clock = time.thread_time if target.cpu else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            sid = state.next_sid
            state.next_sid = sid + 1
            stack = state.stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            c0 = cpu_clock() if cpu_clock is not None else 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                cpu = cpu_clock() - c0 if cpu_clock is not None else 0.0
                stack.pop()
                state.rows.extend((
                    sid, parent, index, t0, t1,
                    work(args, kwargs) if work is not None else 0.0,
                    tag(args, kwargs) if tag is not None else -1.0,
                    recorder.run, cpu,
                ))

        return wrapper

    @contextmanager
    def recording(self, run: int) -> Iterator[None]:
        """Install the wrappers and time one traced window as run ``run``."""
        self.install()
        self.run = run
        started = time.perf_counter()
        try:
            yield
        finally:
            self.windows[run] = (started, time.perf_counter())
            self.run = -1
            self.uninstall()

    def spans(self) -> List[Tuple[bool, np.ndarray]]:
        """Per thread: (is main thread, its spans as rows ordered by sid)."""
        out = []
        for state in self._threads:
            rows = np.frombuffer(state.rows, dtype=np.float64).reshape(-1, len(FIELDS))
            rows = rows[np.argsort(rows[:, _SID], kind="stable")]
            out.append((state.main, rows))
        return out


# ----------------------------------------------------------------- accounting
def self_times(t0: np.ndarray, t1: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the union of its children's intervals.

    ``parent`` holds row indices (-1 for roots).  Children are clipped to
    their parent's interval first.  Children of one parent that do not
    overlap (the normal single-thread case) are summed directly; a parent
    whose children overlap gets an exact interval union.
    """
    duration = t1 - t0
    covered = np.zeros_like(duration)
    child = np.flatnonzero(parent >= 0)
    if child.size:
        p = parent[child].astype(np.int64)
        start = np.maximum(t0[child], t0[p])
        end = np.minimum(t1[child], t1[p])
        end = np.maximum(end, start)
        order = np.lexsort((start, p))
        p, start, end = p[order], start[order], end[order]
        same = p[1:] == p[:-1]
        overlap = same & (start[1:] < end[:-1])
        np.add.at(covered, p, end - start)
        for parent_row in np.unique(p[1:][overlap]):
            rows = p == parent_row
            total = 0.0
            reach = -np.inf
            for s, e in zip(start[rows], end[rows]):
                if e <= reach:
                    continue
                total += e - max(s, reach)
                reach = e
            covered[parent_row] = total
    return duration - covered


def _percentile_ms(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q) * 1e3) if values.size else 0.0


def run_metrics(recorder: Recorder, run: int) -> Dict[str, float]:
    """Per-layer metrics of one traced window (see the module docstring)."""
    labels = [t.label for t in recorder.targets]
    layers = [t.layer for t in recorder.targets]
    label_of = np.array(labels, dtype=object)
    layer_of = np.array(layers, dtype=object)
    t_start, t_end = recorder.windows[run]

    per_thread = []
    for main, rows in recorder.spans():
        # The tree is built over all of the thread's spans, then cut to the
        # window, so a parent always resolves to its own row.
        if not rows.shape[0]:
            continue
        parent = rows[:, _PARENT].astype(np.int64)
        selft = self_times(rows[:, _T0], rows[:, _T1], parent)
        keep = rows[:, _RUN] == run
        if not keep.any():
            continue
        fn = rows[:, _FN].astype(np.int64)
        layer = layer_of[fn]
        parent_layer = np.where(parent >= 0, layer_of[fn[np.maximum(parent, 0)]], "")
        entry = layer != parent_layer
        label = label_of[fn]
        parent_label = np.where(parent >= 0, label_of[fn[np.maximum(parent, 0)]], "")
        # In-block flag: the span has a sim.macro_block ancestor.
        block = label == "sim.macro_block"
        inside = np.zeros(rows.shape[0], dtype=bool)
        has_parent = parent >= 0
        for _ in range(64):
            nxt = has_parent & (block[np.maximum(parent, 0)] | inside[np.maximum(parent, 0)])
            if np.array_equal(nxt, inside):
                break
            inside = nxt
        per_thread.append(dict(
            main=main, rows=rows[keep], self=selft[keep], layer=layer[keep],
            label=label[keep], entry=entry[keep],
            label_entry=(label != parent_label)[keep], inside=inside[keep],
        ))

    workers = sum(1 for t in per_thread if not t["main"]) or 1

    def collect(key: str) -> np.ndarray:
        parts = [t[key] for t in per_thread]
        return np.concatenate(parts) if parts else np.zeros(0)

    rows = np.concatenate([t["rows"] for t in per_thread]) if per_thread else np.zeros((0, len(FIELDS)))
    selft = collect("self")
    scale = np.concatenate([
        np.full(t["rows"].shape[0], 1.0 if t["main"] else 1.0 / workers)
        for t in per_thread
    ]) if per_thread else np.zeros(0)
    layer = collect("layer")
    label = collect("label")
    entry = collect("entry").astype(bool)
    label_entry = collect("label_entry").astype(bool)
    inside = collect("inside").astype(bool)
    duration = rows[:, _T1] - rows[:, _T0]
    work = rows[:, _WORK]

    def self_s(mask: np.ndarray) -> float:
        return float(np.sum(selft[mask] * scale[mask]))

    def thread_s(mask: np.ndarray) -> float:
        return float(np.sum(selft[mask]))

    def count(mask: np.ndarray) -> float:
        return float(np.count_nonzero(mask))

    m: Dict[str, float] = {}
    by_layer = {name: layer == name for name in LAYERS}
    by_label = {name: label == name for name in set(labels)}
    none = np.zeros(label.shape[0], dtype=bool)

    def lab(name: str) -> np.ndarray:
        return by_label.get(name, none)

    # Barrier wait per block: the k-th shard step of every beam is block k.
    shard = lab("constellation.shard_step")
    barrier = 0.0
    barriers = 0
    imbalance = 0.0
    if shard.any():
        beam = rows[shard, _TAG]
        t0s, t1s, durs = rows[shard, _T0], rows[shard, _T1], duration[shard]
        order = np.lexsort((t0s, beam))
        beam, t0s, t1s, durs = beam[order], t0s[order], t1s[order], durs[order]
        first = np.r_[True, beam[1:] != beam[:-1]]
        group_start = np.maximum.accumulate(np.where(first, np.arange(beam.size), 0))
        block_index = np.arange(beam.size) - group_start
        n_blocks = int(block_index.max()) + 1
        lo = np.full(n_blocks, np.inf)
        hi = np.full(n_blocks, -np.inf)
        busy = np.zeros(n_blocks)
        np.minimum.at(lo, block_index, t0s)
        np.maximum.at(hi, block_index, t1s)
        np.add.at(busy, block_index, durs)
        barrier = float(np.sum(workers * (hi - lo) - busy))
        barriers = n_blocks
        per_beam = np.zeros(int(beam.max()) + 1)
        np.add.at(per_beam, beam.astype(np.int64), durs)
        per_beam = per_beam[np.unique(beam.astype(np.int64))]
        imbalance = float(per_beam.max() / per_beam.mean()) if per_beam.mean() > 0 else 0.0

    for name in LAYERS:
        m[f"{name}.self_s"] = self_s(by_layer[name])
    m["constellation.self_s"] += barrier / workers
    api = lab("api.run")
    m["api.points"] = float(np.sum(work[api & label_entry]))
    m["store.put_s"] = self_s(lab("store.put"))
    m["store.puts"] = count(lab("store.put"))
    m["store.get_s"] = self_s(lab("store.get"))
    m["store.gets"] = count(lab("store.get"))
    m["sim.setup_s"] = self_s(lab("sim.setup"))
    m["sim.setups"] = count(lab("sim.setup") & label_entry)
    m["sim.step_self_s"] = self_s(lab("sim.step"))
    m["sim.steps"] = count(lab("sim.step") & label_entry)
    blocks = lab("sim.macro_block")
    m["sim.macro_block_self_s"] = self_s(blocks)
    m["sim.macro_blocks"] = count(blocks)
    m["sim.macro_block_p50_ms"] = _percentile_ms(duration[blocks], 50)
    m["sim.macro_block_p99_ms"] = _percentile_ms(duration[blocks], 99)
    block_frames = float(np.sum(work[blocks]))
    mac_entries = by_layer["mac"] & entry
    m["sim.macro_fallback_ratio"] = (
        count(mac_entries & inside) / block_frames if block_frames else 0.0
    )
    for name in ("traffic", "channel", "mac", "phy", "metrics"):
        m[f"{name}.calls"] = count(by_layer[name] & entry)
    channel_calls = m["channel.calls"]
    m["channel.frames_per_call"] = (
        float(np.sum(work[by_layer["channel"] & entry])) / channel_calls
        if channel_calls else 0.0
    )
    m["mac.us_per_call"] = (
        thread_s(by_layer["mac"]) / m["mac.calls"] * 1e6 if m["mac.calls"] else 0.0
    )
    m["phy.packets_per_call"] = (
        float(np.sum(work[by_layer["phy"] & entry])) / m["phy.calls"]
        if m["phy.calls"] else 0.0
    )
    m["constellation.shard_step_s"] = float(np.sum(duration[shard]))
    m["constellation.shard_offcpu_s"] = float(np.sum(duration[shard] - rows[shard, _CPU]))
    m["constellation.shard_steps"] = count(shard)
    m["constellation.shard_block_p50_ms"] = _percentile_ms(duration[shard], 50)
    m["constellation.shard_block_p99_ms"] = _percentile_ms(duration[shard], 99)
    coupling = lab("constellation.coupling")
    m["constellation.coupling_s"] = self_s(coupling)
    m["constellation.coupling_calls"] = count(coupling & label_entry)
    merge = lab("constellation.merge")
    m["constellation.merge_s"] = self_s(merge)
    m["constellation.merge_calls"] = count(merge & label_entry)
    m["constellation.barrier_wait_s"] = barrier
    m["constellation.barriers"] = float(barriers)
    m["constellation.load_imbalance"] = imbalance
    wall = t_end - t_start
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - sum(m[f"{name}.self_s"] for name in LAYERS)
    m["trace.spans"] = float(rows.shape[0])
    return m


def save_spans(recorder: Recorder, path: str) -> None:
    """Write every recorded span (all threads, all runs) to ``path`` (.npz)."""
    arrays: Dict[str, Any] = {}
    for index, (main, rows) in enumerate(recorder.spans()):
        arrays[f"thread{index}{'_main' if main else ''}"] = rows
    arrays["fields"] = np.array(FIELDS)
    arrays["labels"] = np.array([t.label for t in recorder.targets])
    arrays["functions"] = np.array([
        f"{getattr(t.owner, '__qualname__', getattr(t.owner, '__name__', '?'))}.{t.name}"
        for t in recorder.targets
    ])
    runs = sorted(recorder.windows)
    arrays["windows"] = np.array([[r, *recorder.windows[r]] for r in runs]).reshape(-1, 3)
    np.savez_compressed(path, **arrays)
