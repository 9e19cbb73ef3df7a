"""CPU time and peak memory of the benchmark process and its children,
and a sampler that cuts a time-boxed phase into equal windows."""

from __future__ import annotations

import contextlib
import multiprocessing
import resource
import statistics
import threading
import time
from typing import List, Optional, Tuple


def child_pids() -> List[int]:
    return [c.pid for c in multiprocessing.active_children()]


def _child_cpu_s(pid: int) -> float:
    # schedstat's first field: nanoseconds this task has run on a CPU.
    # It covers the task's main thread; shard workers are single-threaded.
    with open(f"/proc/{pid}/schedstat", encoding="ascii") as handle:
        return int(handle.read().split()[0]) / 1e9


def cpu_now() -> Tuple[float, float]:
    """(own CPU s, children's CPU s: live ones plus reaped ones)."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    children = reaped.ru_utime + reaped.ru_stime
    for pid in child_pids():
        with contextlib.suppress(OSError):
            children += _child_cpu_s(pid)
    return time.process_time(), children


def peak_rss_mb() -> float:
    """Own peak RSS plus each live child's peak RSS, in MiB."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids():
        with contextlib.suppress(OSError):
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
    return total_kib / 1024.0


class WindowSampler:
    """Samples (time, resolved decisions, CPU) at ``windows + 1`` equal
    steps across ``[start, start + seconds]``, on its own thread.

    Medians over the windows keep a burst of outside load on the machine
    from moving the whole run's rate.
    """

    def __init__(self, service, start: float, seconds: float, windows: int):
        self.service = service
        self.times = [start + seconds * k / windows for k in range(windows + 1)]
        self.samples: List[Tuple[float, int, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _resolved(self) -> int:
        s = self.service.stats()["service"]
        return s["evaluated"] + s["errored"]

    def _run(self) -> None:
        for due in self.times:
            if self._stop.wait(max(0.0, due - time.perf_counter())):
                return
            own, children = cpu_now()
            self.samples.append((time.perf_counter(), self._resolved(), own + children))

    def __enter__(self) -> "WindowSampler":
        self._thread = threading.Thread(target=self._run, name="bench-sampler")
        self._thread.start()
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is None:
            self._thread.join(max(0.0, self.times[-1] - time.perf_counter()) + 5.0)
        self._stop.set()
        self._thread.join(5.0)

    def rates(self) -> Tuple[float, float]:
        """(median decisions/s, median CPU s per decision) over the windows."""
        per_s, cpu_per = [], []
        for (t0, n0, c0), (t1, n1, c1) in zip(self.samples, self.samples[1:]):
            if n1 > n0:
                per_s.append((n1 - n0) / (t1 - t0))
                cpu_per.append((c1 - c0) / (n1 - n0))
        if not per_s:
            raise RuntimeError("no decisions resolved in any window")
        return statistics.median(per_s), statistics.median(cpu_per)
