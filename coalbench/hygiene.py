"""Process hygiene: a hard per-run deadline and a teardown check.

Every run closes what it opened on every exit path (an ``ExitStack``
in the runner).  :func:`leftovers` then confirms that no child
process (of ``multiprocessing`` or any other), no non-daemon thread started by the run and no edge listening
port is still alive.  :class:`Deadline` turns a hung run into a
teardown: at the deadline the main thread gets :class:`DeadlineExceeded`
(unwinding through the closers); if teardown itself hangs, a watchdog
kills the children and exits the process.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
from typing import Iterable, List, Set

EXIT_DEADLINE = 3
EXIT_LEFTOVERS = 4


class DeadlineExceeded(BaseException):
    """Raised in the main thread when the run's deadline passes."""


class Deadline:
    """SIGALRM at ``seconds``; a watchdog hard-exits ``grace`` later."""

    def __init__(self, seconds: float, grace: float = 8.0):
        self.seconds = seconds
        self.grace = grace
        self._disarmed = threading.Event()

    def __enter__(self) -> "Deadline":
        def on_alarm(signum, frame):
            raise DeadlineExceeded(f"run exceeded its {self.seconds:g} s deadline")

        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        threading.Thread(
            target=self._watchdog, name="bench-watchdog", daemon=True
        ).start()
        return self

    def _watchdog(self) -> None:
        if self._disarmed.wait(self.seconds + self.grace):
            return
        for child in multiprocessing.active_children():
            child.kill()
        for child in multiprocessing.active_children():
            child.join(1.0)
        sys.stderr.write("coalbench: teardown hung past the deadline; killed\n")
        sys.stderr.flush()
        os._exit(EXIT_DEADLINE)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._disarmed.set()

    def __exit__(self, *exc_info) -> None:
        self.disarm()


def port_accepts(port: int, host: str = "127.0.0.1") -> bool:
    try:
        with socket.create_connection((host, port), timeout=0.5):
            return True
    except OSError:
        return False


def child_processes() -> List[str]:
    """Every live child of this process, whoever started it: also helper
    processes ``multiprocessing.active_children()`` does not list, such
    as a resource tracker."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
        if int(ppid) == me and state != "Z":
            found.append(f"{stat[stat.index('(') + 1:stat.rindex(')')]} (pid {entry})")
    return found


def leftovers(
    threads_before: Set[threading.Thread],
    ports: Iterable[int] = (),
    settle_s: float = 2.0,
) -> List[str]:
    """What the run left alive; empty when teardown was complete.

    Threads and processes get ``settle_s`` to finish exiting.
    """
    deadline = time.monotonic() + settle_s
    while True:
        children = multiprocessing.active_children()
        others = child_processes()
        threads = [
            t
            for t in threading.enumerate()
            if t not in threads_before and t.is_alive() and not t.daemon
        ]
        if (not children and not others and not threads) or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    problems = [f"child process {c.name} (pid {c.pid}) alive" for c in children]
    named = {c.pid for c in children}
    problems += [f"child process {o} alive" for o in others
                 if int(o.rsplit(" ", 1)[1].rstrip(")")) not in named]
    problems += [f"thread {t.name} alive" for t in threads]
    problems += [f"port {p} still accepts connections" for p in ports if port_accepts(p)]
    return problems
