"""Benchmark-side spans around the public functions of each layer.

:func:`instrument` wraps the entry points of ``crypto``, ``pki``,
``core``, ``coalition``, ``service``, ``wire``/``edge`` and ``storage``
for the duration of a ``with`` block.  Each call records a span (name,
start, end, parent, request id, thread) in memory; nothing is written
until :meth:`SpanRecorder.write_jsonl` runs after the measured phase.
The program itself is not modified.  In process mode the wrappers live
only in the parent, so spans from shard processes are not seen.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from stats import self_time


class Span(NamedTuple):
    span_id: int
    parent: int  # 0 for a root span
    name: str
    start_ns: int
    end_ns: int
    request: Optional[str]
    thread: int


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable, request_of: Optional[Callable] = None):
        """``fn`` with a span per call; ``request_of(args)`` names the request."""
        local = self._local
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.request = None
            parent = stack[-1] if stack else 0
            outer_request = local.request
            if request_of is not None:
                local.request = request_of(args)
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(span_id, parent, name, start, end, local.request,
                         threading.get_ident())
                )
                local.request = outer_request

        return wrapper

    def take(self) -> List[Span]:
        taken = list(self.spans)
        self.spans.clear()
        return taken

    @staticmethod
    def write_jsonl(spans: List[Span], path: str, phase: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for s in spans:
                handle.write(json.dumps({"phase": phase, **s._asdict()}) + "\n")


class LayerStats(NamedTuple):
    calls: int
    self_us: float  # summed self time
    inclusive_us: float  # summed duration


def summarize(spans: List[Span]) -> Dict[str, LayerStats]:
    """Per span name: calls, summed self time and summed duration (µs)."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start_ns, s.end_ns))
    acc: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        entry = acc[s.name]
        entry[0] += 1
        entry[1] += self_time(s.start_ns, s.end_ns, children.get(s.span_id, [])) / 1e3
        entry[2] += (s.end_ns - s.start_ns) / 1e3
    return {name: LayerStats(int(c), si, inc) for name, (c, si, inc) in acc.items()}


def _request_of_authorize(args) -> str:
    # AuthorizationProtocol.authorize(self, request, acl, now)
    request, now = args[1], args[3]
    return f"{request.parts[0].nonce}@{now}" if request.parts else f"@{now}"


def _targets():
    """(span name, owner, attribute, request_of) for every wrapped entry point."""
    from repro.coalition.audit import AuditLog
    from repro.coalition.protocol import AuthorizationProtocol
    from repro.core.derivation import DerivationEngine
    from repro.crypto.boneh_franklin import SharedRSAPublicKey
    from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
    from repro.pki import serialization, validation
    from repro.service import wire
    from repro.service.service import AuthorizationService
    from repro.storage.wal import WriteAheadLog

    yield "crypto.verify", RSAPublicKey, "verify", None
    yield "crypto.verify", SharedRSAPublicKey, "verify", None
    yield "crypto.sign", RSAPrivateKey, "sign", None
    yield "pki.validate", validation, "validate_certificate", None
    yield "pki.encode", serialization, "canonical_bytes", None
    for method in (
        "admit_certificate",
        "admit_signed_utterance",
        "admit_revocation",
        "membership_revoked",
        "derive_group_says",
    ):
        yield "core.derive", DerivationEngine, method, None
    yield "coalition.authorize", AuthorizationProtocol, "authorize", _request_of_authorize
    yield "coalition.audit_append", AuditLog, "append", None
    yield "service.submit", AuthorizationService, "submit_batch", None
    yield "service.epoch_publish", AuthorizationService, "publish_revocation", None
    yield "service.epoch_publish", AuthorizationService, "update_acl", None
    yield "storage.wal_append", WriteAheadLog, "append", None
    # The batched fsync: every sync of the log goes through this method.
    yield "storage.wal_sync", WriteAheadLog, "_sync_locked", None
    for fn in ("encode_frame", "request_to_dict", "decision_to_dict"):
        yield "wire.encode", wire, fn, None
    for fn in ("decode_body", "request_from_dict"):
        yield "wire.decode", wire, fn, None


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every target for the block; module functions are rebound in
    every ``repro`` module that imported them by name."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for name, owner, attr, request_of in _targets():
            original = getattr(owner, attr)
            wrapped = recorder.wrap(name, original, request_of)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("repro") or module is None:
                    continue
                if getattr(module, attr, None) is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
