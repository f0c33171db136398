"""Machine fingerprint and calibration timings taken in the same run.

Every benchmark record carries both, so that a change in absolute speed
between two records can be told apart as machine (the calibration kernel
moved too) or code (it did not).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> Optional[str]:
    """HEAD's commit read from ``root/.git`` files (no git process, no search
    above ``root``); None when the tree is not a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (path + bytes, sorted)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


#: Seconds one calibration sample takes on the reference box (a 2-vCPU Xeon
#: VM, Python 3.11, NumPy 2.4); calibrated times are expressed at this speed.
REFERENCE_SAMPLE_S = 0.016

#: A 32 MB table and fixed random indices into it, built by the first
#: ``Calibrator`` so that set-up probes, which never sample, do not pay for it.
_GATHER: List[np.ndarray] = []


def _gather_table() -> List[np.ndarray]:
    if not _GATHER:
        big = np.random.default_rng(7).random(4_000_000)
        _GATHER.extend((big, np.random.default_rng(8).integers(0, big.size, 300_000)))
    return _GATHER


def gather_mb() -> float:
    """Resident megabytes of the gather table (0 before it is built)."""
    return sum(array.nbytes for array in _GATHER) / 2**20


def _kernel() -> int:
    """A fixed ~15 ms mix of interpreter work and small NumPy calls, the
    instruction mix of the simulator's per-frame code, plus a random gather
    from a table larger than the cache: neighbours on a shared host slow
    memory access down without changing the CPU's speed."""
    acc = 0
    table: Dict[int, int] = {}
    for i in range(20000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc += len(table)
    x = np.arange(100, dtype=float)
    for _ in range(1000):
        acc += int(np.count_nonzero(np.sqrt(x * 1.5 + 2.0) > 5.0))
    big, index = _gather_table()
    acc += int(big[index].sum())
    return acc


class Calibrator:
    """Samples the fixed kernel to track the machine's speed during a run.

    The host's speed drifts by tens of percent over minutes; samples taken
    during a repetition measure the speed it ran at, and ``scale()``
    converts its times to calibrated (reference-machine) seconds.
    """

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.cpu: List[float] = []
        _gather_table()

    def sample(self, *_progress: object) -> None:
        """Run the kernel once (also usable as a ``progress`` callback)."""
        cpu = time.process_time()
        started = time.perf_counter()
        _kernel()
        self.wall.append(time.perf_counter() - started)
        self.cpu.append(time.process_time() - cpu)

    def scale(self) -> float:
        """Reference seconds per measured wall second over the samples so far."""
        return REFERENCE_SAMPLE_S / statistics.fmean(self.wall)

    def cpu_scale(self) -> float:
        """Reference seconds per measured CPU second over the samples so far."""
        return REFERENCE_SAMPLE_S / statistics.fmean(self.cpu)


#: Fixed, program-independent imports (standard library and NumPy) run in a
#: fresh interpreter just before and after every ``setup_s`` probe, and
#: their time on the reference box; calibrated set-up times are expressed at
#: that speed.
IMPORT_PROBE = "import json, decimal, asyncio, email.parser, xml.dom.minidom, numpy.random"
REFERENCE_IMPORT_S = 0.2


def fingerprint(root: Path) -> Dict[str, object]:
    """CPU, core count, interpreter and library versions, code identity,
    and the calibration kernel's median time and scale at this moment."""
    calibrator = Calibrator()
    for _ in range(5):
        calibrator.sample()
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "cpu_model": _cpu_model(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "calib_kernel_s": statistics.median(calibrator.wall),
        "calib_scale": calibrator.scale(),
    }
