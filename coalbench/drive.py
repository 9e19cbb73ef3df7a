"""The measured phases: unpaced and paced, in-process and over the TCP edge.

Each phase function executes a stream of :class:`workload.Op` against a
fixture and returns a :class:`Phase` holding one :class:`Outcome` per
request sent and one :class:`Event` per revocation or ACL update.

* Unpaced, in-process: one submitter, ``submit_batch`` in batches of
  16, at most 128 requests in flight.  A :class:`WindowSampler` cuts
  every unpaced phase into windows of about a second (at least
  ``MIN_WINDOWS``).
* Unpaced, edge: a closed loop per connection (``workload.lanes``
  connections), each keeping ``EDGE_WINDOW`` requests in flight.
* Paced: open loop at a fixed rate on one submitter (in-process) or one
  connection with a reader thread (edge).  Revocations and ACL updates
  take their own arrival slots.  Latency is measured from when a
  request was due, not from when it was sent.

Unpaced phases stop sending at their time box; the stream's remaining
revocations and ACL updates are then applied (:func:`catch_up`) so the
next phase starts from the policy state its labels assume.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.service import EdgeClient, Errored, Overloaded

from procstat import WindowSampler

BATCH = 16
WINDOW = 128
EDGE_WINDOW = 32
MIN_WINDOWS = 8  # windows per unpaced phase, at least; rates are their medians
DRAIN_TIMEOUT_S = 60.0


def windows(seconds: float) -> int:
    """Windows of about one second each, and at least ``MIN_WINDOWS``."""
    return max(MIN_WINDOWS, round(seconds))


@dataclass
class Outcome:
    op: object  # workload.Op
    sent: float
    due: float
    done: float = 0.0
    kind: str = ""  # "decision" | "overloaded" | "errored"; "" = never answered
    granted: bool = False
    reason: str = ""
    ticket: object = None  # in-process only
    decision: object = None  # in-process only


@dataclass
class Event:
    op: object
    start: float
    end: float
    catch_up: bool = False


@dataclass
class Phase:
    outcomes: List[Outcome] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)
    start: float = 0.0
    max_lag_s: float = 0.0
    sampler: Optional[WindowSampler] = None

    @property
    def decisions(self) -> int:
        return sum(1 for o in self.outcomes if o.kind == "decision")


def run_event(fixture, op, events: List[Event], catch_up: bool = False) -> None:
    start = time.perf_counter()
    if op.kind == "revoke":
        fixture.service.publish_revocation(op.revocation, now=op.tick)
    else:
        fixture.service.update_acl(op.object_name, op.acl)
    events.append(Event(op, start, time.perf_counter(), catch_up))
    op.executed = True


def catch_up(fixture, ops, phase: Phase) -> None:
    """Apply the stream's events that the time box cut off."""
    for op in ops:
        if op.kind != "request" and not op.executed:
            run_event(fixture, op, phase.events, catch_up=True)


def _settle_ticket(outcome: Outcome) -> None:
    ticket = outcome.ticket
    decision = ticket.result(0)
    outcome.decision = decision
    outcome.done = ticket.completed_at
    outcome.granted = decision.granted
    outcome.reason = decision.reason
    if isinstance(decision, Overloaded):
        outcome.kind = "overloaded"
    elif isinstance(decision, Errored):
        outcome.kind = "errored"
    else:
        outcome.kind = "decision"


def _drain(service) -> None:
    if not service.drain(timeout=DRAIN_TIMEOUT_S):
        raise RuntimeError("service did not drain")


def unpaced_inproc(fixture, ops, seconds: float) -> Phase:
    service = fixture.service
    phase = Phase()
    pending = []
    inflight = deque()

    def flush() -> None:
        if not pending:
            return
        sent = time.perf_counter()
        tickets = service.submit_batch([(op.request, op.tick) for op in pending])
        for op, ticket in zip(pending, tickets):
            phase.outcomes.append(Outcome(op, sent, sent, ticket=ticket))
            inflight.append(ticket)
            op.executed = True
        pending.clear()
        while inflight and (inflight[0].done() or len(inflight) > WINDOW):
            inflight.popleft().wait(DRAIN_TIMEOUT_S)

    phase.start = time.perf_counter()
    deadline = phase.start + seconds
    with WindowSampler(service, phase.start, seconds, windows(seconds)) as phase.sampler:
        for op in ops:
            if time.perf_counter() >= deadline:
                break
            if op.kind == "request":
                pending.append(op)
                if len(pending) >= BATCH:
                    flush()
            else:
                flush()
                run_event(fixture, op, phase.events)
        flush()
    _drain(service)
    for outcome in phase.outcomes:
        _settle_ticket(outcome)
    return phase


def _pace(due: float, phase: Phase) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    else:
        phase.max_lag_s = max(phase.max_lag_s, -delay)


def paced_inproc(fixture, ops, rate: float) -> Phase:
    service = fixture.service
    phase = Phase()
    interval = 1.0 / rate
    phase.start = time.perf_counter() + 0.05
    for k, op in enumerate(ops):
        due = phase.start + k * interval
        _pace(due, phase)
        if op.kind != "request":
            run_event(fixture, op, phase.events)
            continue
        sent = time.perf_counter()
        ticket = service.submit_batch([(op.request, op.tick)])[0]
        phase.outcomes.append(Outcome(op, sent, due, ticket=ticket))
        op.executed = True
    _drain(service)
    for outcome in phase.outcomes:
        _settle_ticket(outcome)
    return phase


def _settle_response(outcome: Outcome, response: Dict, done: float) -> None:
    outcome.done = done
    kind = response.get("kind")
    if kind == "decision":
        decision = response["decision"]
        outcome.kind = "decision"
        outcome.granted = bool(decision["granted"])
        outcome.reason = decision["reason"]
    elif kind == "retry":
        outcome.kind = "overloaded"
    else:
        outcome.kind = "errored"
        outcome.reason = str(response)[:200]


class _Lane:
    """One client connection of the closed loop: a single thread that
    sends and receives, keeping ``EDGE_WINDOW`` requests in flight."""

    def __init__(self, fixture, ops, deadline: float, phase: Phase, clients):
        self.fixture = fixture
        self.ops = ops
        self.deadline = deadline
        self.phase = phase
        self.client = EdgeClient("127.0.0.1", fixture.edge.port)
        clients.append(self.client)
        self.inflight: Dict[int, Outcome] = {}
        self.error: Optional[BaseException] = None

    def _recv_one(self) -> None:
        response = self.client.recv_frame()
        done = time.perf_counter()
        outcome = self.inflight.pop(response.get("id"))
        _settle_response(outcome, response, done)

    def run(self) -> None:
        try:
            for op in self.ops:
                if time.perf_counter() >= self.deadline:
                    break
                if op.kind != "request":
                    run_event(self.fixture, op, self.phase.events)
                    continue
                while len(self.inflight) >= EDGE_WINDOW:
                    self._recv_one()
                sent = time.perf_counter()
                outcome = Outcome(op, sent, sent)
                self.inflight[op.index] = outcome
                self.phase.outcomes.append(outcome)
                self.client.send_authorize(op.request, now=op.tick, req_id=op.index)
                op.executed = True
            while self.inflight:
                self._recv_one()
        except BaseException as exc:  # surfaced by the joining thread
            self.error = exc


def _join(threads, timeout: float) -> None:
    end = time.monotonic() + timeout
    for t in threads:
        t.join(max(0.0, end - time.monotonic()))
    if any(t.is_alive() for t in threads):
        raise RuntimeError("client threads did not finish")


def unpaced_edge(fixture, ops, seconds: float, lanes: int, clients: list) -> Phase:
    phase = Phase()
    per_lane: List[list] = [[] for _ in range(lanes)]
    for op in ops:
        per_lane[op.lane if op.kind == "request" else 0].append(op)
    phase.start = time.perf_counter()
    workers = [
        _Lane(fixture, lane_ops, phase.start + seconds, phase, clients)
        for lane_ops in per_lane
    ]
    threads = [
        threading.Thread(target=w.run, name=f"bench-lane-{i}")
        for i, w in enumerate(workers)
    ]
    with WindowSampler(fixture.service, phase.start, seconds, windows(seconds)) as phase.sampler:
        for t in threads:
            t.start()
        _join(threads, seconds + DRAIN_TIMEOUT_S)
    for w in workers:
        if w.error is not None:
            raise w.error
    # A response can reach the client before the service has finished
    # accounting its ticket; drain so the counters are final.
    _drain(fixture.service)
    return phase


def paced_edge(fixture, ops, rate: float, clients: list) -> Phase:
    phase = Phase()
    client = EdgeClient("127.0.0.1", fixture.edge.port)
    clients.append(client)
    by_id: Dict[int, Outcome] = {}
    lock = threading.Lock()
    expected = sum(1 for op in ops if op.kind == "request")
    errors: List[BaseException] = []

    def reader() -> None:
        try:
            for _ in range(expected):
                response = client.recv_frame()
                done = time.perf_counter()
                with lock:
                    outcome = by_id.pop(response.get("id"))
                _settle_response(outcome, response, done)
        except BaseException as exc:
            errors.append(exc)

    thread = threading.Thread(target=reader, name="bench-reader")
    interval = 1.0 / rate
    phase.start = time.perf_counter() + 0.05
    thread.start()
    try:
        for k, op in enumerate(ops):
            due = phase.start + k * interval
            _pace(due, phase)
            if op.kind != "request":
                run_event(fixture, op, phase.events)
                continue
            sent = time.perf_counter()
            outcome = Outcome(op, sent, due)
            with lock:
                by_id[op.index] = outcome
                phase.outcomes.append(outcome)
            client.send_authorize(op.request, now=op.tick, req_id=op.index)
            op.executed = True
    except BaseException:
        client.close()  # unblocks the reader
        thread.join(DRAIN_TIMEOUT_S)
        raise
    _join([thread], DRAIN_TIMEOUT_S)
    if errors:
        raise errors[0]
    _drain(fixture.service)
    return phase
