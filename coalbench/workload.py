"""The three workloads, the timed set-up, and the labelled generator.

A run builds a coalition and a service (:func:`setup`), then a
:class:`Generator` pre-signs the request stream from the seed.  Every
request carries its expected outcome, fixed by how it was built: which
certificate it presents and whether that certificate was revoked
earlier in the stream, whether its nonce repeats an earlier grant,
whether a signature was corrupted, and which operation the object's ACL
allows.  The service only ever sees the requests themselves.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

import env

from repro.coalition import (
    ACLEntry,
    AuditLog,
    Coalition,
    Domain,
    User,
    build_joint_request,
)
from repro.crypto.rsa import generate_keypair
from repro.pki import ValidityPeriod
from repro.service import AuthorizationService, serve_in_thread

VALIDITY = ValidityPeriod(0, 10**9)
# Freshness window in logical ticks.  Wide enough that no nonce is
# purged during a run (so replay labels never depend on how far one
# shard runs ahead of another); stale parts are built explicitly older.
FRESHNESS = 10**6
FIRST_TICK = FRESHNESS + 1_000
OBJECTS = tuple(f"Obj{i}" for i in range(8))
QUEUE_DEPTH = 8192  # far above any in-flight window: no request is shed
SHARDS = 2
# Set-ups per run: at least SETUPS_MIN, and more until SETUP_MIN_S have
# passed (cheap 256-bit set-ups vary most); setup_s is their median.
SETUPS_MIN = 7
SETUP_MIN_S = 3.0
# Requests in the paced phase: its p99 (reported, not gated) has 10
# samples beyond it.
PACED_REQUESTS = 1000
WAL_SYNC_EVERY = 64
REKEYED = "rekeyed-U1"  # signer key of U1 under its second key
PARALLEL_SIGN_MIN = 2000  # smaller batches are signed in this process
SIGN_WORKERS = max(1, min(2, os.cpu_count() or 1))

# Request classes and the outcome each must produce.
GRANT = "grant"
EXPECT = {
    "grant-read": GRANT,
    "grant-write": GRANT,
    "grant-ops": GRANT,
    "replay": "replay",
    "acl": "acl",
    "revoked": "revoked",
    "stale": "stale",
    "bad-signature": "bad-signature",
    "key-mismatch": "key-mismatch",
}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    key_bits: int
    audited: bool
    edge: bool
    churn: bool  # revocations and ACL updates hit certificates in use
    mix: Tuple[Tuple[str, float], ...]
    event_every: int  # stream positions between revocation/ACL events
    capacity_rps: float  # sizes the unpaced pool: capacity x seconds x margin
    paced_rps: float  # the paced phase sends PACED_REQUESTS at this rate
    lanes: int  # unpaced client connections (edge) or 1 (in-process)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="read-steady-1024",
            mode="inline",
            key_bits=1024,
            audited=False,
            edge=False,
            churn=False,
            mix=(
                ("grant-read", 0.62),
                ("grant-write", 0.18),
                ("grant-ops", 0.10),
                ("replay", 0.05),
                ("acl", 0.05),
            ),
            event_every=300,
            capacity_rps=1600.0,
            paced_rps=200.0,
            lanes=1,
        ),
        Workload(
            name="churn-audited-1024",
            mode="threaded",
            key_bits=1024,
            audited=True,
            edge=False,
            churn=True,
            mix=(
                ("grant-read", 0.36),
                ("grant-write", 0.20),
                ("grant-ops", 0.10),
                ("revoked", 0.10),
                ("replay", 0.07),
                ("stale", 0.06),
                ("bad-signature", 0.05),
                ("key-mismatch", 0.03),
                ("acl", 0.03),
            ),
            event_every=40,
            capacity_rps=250.0,
            paced_rps=70.0,
            lanes=1,
        ),
        Workload(
            name="edge-process-256",
            mode="process",
            key_bits=256,
            audited=False,
            edge=True,
            churn=False,
            mix=(
                ("grant-read", 0.70),
                ("grant-write", 0.15),
                ("grant-ops", 0.07),
                ("replay", 0.03),
                ("acl", 0.05),
            ),
            event_every=1000,
            capacity_rps=1300.0,
            paced_rps=70.0,
            lanes=2,
        ),
    )
}

BASE_ACL = (
    ACLEntry.of("G_read", ["read"]),
    ACLEntry.of("G_write", ["write"]),
    ACLEntry.of("G_ops", ["append"]),
)
NO_APPEND_ACL = BASE_ACL[:2]
# group -> (operation, threshold); each group has one live certificate.
GROUPS = {"read": ("read", 1), "write": ("write", 2), "ops": ("append", 1)}


@dataclass
class Fixture:
    """One coalition fronted by one service (and edge), ready for load."""

    workload: Workload
    domains: List[Domain]
    users: List[User]
    coalition: Coalition
    service: AuthorizationService
    certs: Dict[str, object]  # group key -> the threshold AC issued at set-up
    wal_dir: Optional[str] = None
    edge: Optional[object] = None  # EdgeHandle
    closed: bool = False

    def close(self) -> None:
        """Stop the edge, then the service (workers, WAL).  Idempotent."""
        if self.closed:
            return
        self.closed = True
        try:
            if self.edge is not None:
                self.edge.shutdown(timeout=10.0)
        finally:
            self.service.close(timeout=10.0)


def setup(workload: Workload, work_dir: str, index: int) -> Fixture:
    """The timed set-up: keys, coalition, the traffic certificates, service.

    Covers key generation, coalition formation, issuing the three
    threshold certificates traffic uses, and starting workers and edge.
    """
    bits = workload.key_bits
    domains = [Domain(f"D{i}", key_bits=bits) for i in (1, 2, 3)]
    users = [
        d.register_user(f"U{i}", now=0, validity_ticks=VALIDITY.end)
        for i, d in enumerate(domains, start=1)
    ]
    coalition = Coalition("bench", key_bits=bits)
    coalition.form(domains)
    extra = {}
    wal_dir = None
    if workload.audited:
        wal_dir = os.path.join(work_dir, f"wal-{os.getpid()}-{index}")
        extra = dict(
            audit_log=AuditLog(key_bits=bits),
            wal_dir=wal_dir,
            wal_sync_every=WAL_SYNC_EVERY,
        )
    service = AuthorizationService(
        name="ServiceP",
        num_shards=SHARDS,
        queue_depth=QUEUE_DEPTH,
        freshness_window=FRESHNESS,
        mode=workload.mode,
        **extra,
    )
    fixture = Fixture(
        workload=workload,
        domains=domains,
        users=users,
        coalition=coalition,
        service=service,
        certs={},
        wal_dir=wal_dir,
    )
    try:
        coalition.attach_server(service)
        for name in OBJECTS:
            service.register_object(name, BASE_ACL, admin_group="G_admin")
        for group, (_op, threshold) in GROUPS.items():
            fixture.certs[group] = coalition.authority.issue_threshold_certificate(
                users, threshold, f"G_{group}", 0, VALIDITY
            )
        if workload.edge:
            fixture.edge = serve_in_thread(service)
    except BaseException:
        fixture.close()
        raise
    return fixture


@dataclass
class Op:
    """One stream position: a request, a revocation, or an ACL update."""

    kind: str  # "request" | "revoke" | "acl"
    index: int  # position in its phase's stream (also the wire request id)
    tick: int  # logical time the operation carries
    lane: int = 0  # client connection that sends it
    cls: str = ""  # request class (a key of EXPECT)
    label: str = ""  # expected outcome: "grant" or a deny class
    request: object = None  # JointAccessRequest
    nonce: str = ""
    cert_serial: str = ""  # request: the threshold AC presented; revoke: revoked AC
    revocation: object = None  # RevocationCertificate
    object_name: str = ""  # acl
    acl: Tuple[ACLEntry, ...] = ()  # acl
    spec: Optional["Spec"] = None  # request: what to sign (see Generator.sign)
    replay_of: Optional["Op"] = None  # replay: the granted request it repeats
    executed: bool = False


@dataclass
class _State:
    live: Dict[str, object]
    revoked: List[Tuple[str, object]] = field(default_factory=list)
    append_on: Dict[str, bool] = field(default_factory=dict)
    events: int = 0


class Generator:
    """Seeded, pre-signed, labelled streams for one workload and fixture.

    Streams for successive phases continue one logical clock and one
    certificate history, so call :meth:`stream` in phase order and run
    each phase's left-over events before the next phase starts.
    :meth:`stream` only decides; :meth:`sign` then signs the requests.
    """

    def __init__(self, workload: Workload, fixture: Fixture, seed: int):
        self.workload = workload
        self.fixture = fixture
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.tick = FIRST_TICK
        self.state = _State(
            live=dict(fixture.certs), append_on={o: True for o in OBJECTS}
        )
        self._classes = [c for c, _ in workload.mix]
        self._weights = [w for _, w in workload.mix]
        self._certs: Dict[str, object] = {}  # serial -> threshold AC presented
        self._rekeyed: Optional[User] = None
        if "key-mismatch" in self._classes:
            self._rekeyed = self._rekeyed_user()

    # ------------------------------------------------------------ set-up

    def _rekeyed_user(self) -> User:
        """U1 under a new key, with a valid identity certificate for it.

        The threshold certificates still bind U1's old key, so a request
        signed this way is the selective-distribution mismatch.
        """
        user = self.fixture.users[0]
        domain = self.fixture.domains[0]
        keypair = generate_keypair(bits=self.workload.key_bits)
        cert = domain.ca.issue_identity(
            subject=user.name, subject_key=keypair.public, now=0, validity=VALIDITY
        )
        return User(user.name, domain.name, keypair, cert)

    # ----------------------------------------------------------- streams

    def stream(self, n_requests: int, lanes: int = 1) -> List[Op]:
        """``n_requests`` labelled requests with their events interleaved."""
        ops: List[Op] = []
        history: List[Deque[Op]] = [deque(maxlen=64) for _ in range(lanes)]
        made = 0
        while made < n_requests:
            if (len(ops) + 1) % self.workload.event_every == 0:
                ops.append(self._event(len(ops)))
                continue
            lane = made % lanes
            cls = self.rng.choices(self._classes, self._weights)[0]
            op = self._request(cls, len(ops), lane, history[lane])
            if op.label == GRANT:
                history[lane].append(op)
            ops.append(op)
            made += 1
        return ops

    def _next_tick(self) -> int:
        self.tick += 1
        return self.tick

    def _event(self, index: int) -> Op:
        state = self.state
        authority = self.fixture.coalition.authority
        tick = self._next_tick()
        state.events += 1
        if not self.workload.churn:
            victim = authority.issue_threshold_certificate(
                self.fixture.users, 2, "G_victim", 0, VALIDITY
            )
            return Op(
                kind="revoke",
                index=index,
                tick=tick,
                cert_serial=victim.serial,
                revocation=authority.revoke_certificate(victim, now=tick),
            )
        if state.events % 2:
            # Revoke the live certificate of one group; traffic moves to
            # a freshly issued replacement.
            # The replacement is stamped after the revocation: believe-
            # until-revoked defeats every membership certificate of the
            # group stamped before the revocation took effect.
            group = ("read", "write", "ops")[(state.events // 2) % 3]
            old = state.live[group]
            _op, threshold = GROUPS[group]
            state.live[group] = authority.issue_threshold_certificate(
                self.fixture.users, threshold, f"G_{group}", self._next_tick(),
                VALIDITY,
            )
            state.revoked.append((group, old))
            return Op(
                kind="revoke",
                index=index,
                tick=tick,
                cert_serial=old.serial,
                revocation=authority.revoke_certificate(old, now=tick),
            )
        # ACL events close one object's "append" and reopen it at the
        # next ACL event, so at most one object lacks it at any time.
        acl_events = state.events // 2 - 1
        name = OBJECTS[(acl_events // 2) % len(OBJECTS)]
        state.append_on[name] = not state.append_on[name]
        return Op(
            kind="acl",
            index=index,
            tick=tick,
            object_name=name,
            acl=BASE_ACL if state.append_on[name] else NO_APPEND_ACL,
        )

    def _spec(self, group: str, cert, tick: int, nonce: str, stated_at=None,
              corrupt: bool = False) -> Spec:
        op_name, threshold = GROUPS[group]
        if group == "ops":
            obj = self.rng.choice([o for o in OBJECTS if self.state.append_on[o]])
        else:
            obj = self.rng.choice(OBJECTS)
        signers = tuple(u.name for u in self.rng.sample(self.fixture.users, threshold))
        return Spec(signers, op_name, obj, cert.serial,
                    tick if stated_at is None else stated_at, nonce, corrupt)

    def _request(self, cls: str, index: int, lane: int, history: Deque[Op]) -> Op:
        state = self.state
        rng = self.rng
        tick = self._next_tick()
        if cls == "replay" and not history:
            cls = "grant-read"
        if cls == "revoked" and not state.revoked:
            cls = "grant-read"
        op = Op(kind="request", index=index, tick=tick, lane=lane, cls=cls,
                label=EXPECT[cls])
        if cls == "replay":
            op.replay_of = rng.choice(list(history))
            op.nonce = op.replay_of.nonce
            op.cert_serial = op.replay_of.cert_serial
            return op
        op.nonce = nonce = f"n{tick}"
        if cls.startswith("grant-"):
            group = cls[len("grant-"):]
            cert = state.live[group]
            op.spec = self._spec(group, cert, tick, nonce)
        elif cls == "revoked":
            group, cert = rng.choice(state.revoked)
            op.spec = self._spec(group, cert, tick, nonce)
        elif cls == "stale":
            cert = state.live["read"]
            stated = tick - FRESHNESS - 1 - rng.randrange(100)
            op.spec = self._spec("read", cert, tick, nonce, stated_at=stated)
        elif cls == "bad-signature":
            cert = state.live["read"]
            op.spec = self._spec("read", cert, tick, nonce, corrupt=True)
        elif cls == "key-mismatch":
            cert = state.live["read"]
            op.spec = Spec((REKEYED,), "read", rng.choice(OBJECTS), cert.serial,
                           tick, nonce, False)
        elif cls == "acl":
            closed = [o for o in OBJECTS if not state.append_on[o]]
            signer = (rng.choice(self.fixture.users).name,)
            if closed and rng.random() < 0.5:
                cert = state.live["ops"]
                op.spec = Spec(signer, "append", rng.choice(closed), cert.serial,
                               tick, nonce, False)
            else:
                cert = state.live["read"]
                op.spec = Spec(signer, "delete", rng.choice(OBJECTS), cert.serial,
                               tick, nonce, False)
        else:
            raise ValueError(f"unknown request class {cls!r}")
        self._certs[cert.serial] = cert
        op.cert_serial = cert.serial
        return op

    # ----------------------------------------------------------- signing

    def sign(self, *streams: List[Op]) -> None:
        """Sign every request of ``streams`` in place (requestor work).

        Large batches are split over ``SIGN_WORKERS`` processes; each
        returned request is re-linked to this process's certificate
        objects, as if it had been built here.
        """
        ops = [op for ops in streams for op in ops if op.spec is not None]
        signers = {u.name: u for u in self.fixture.users}
        if self._rekeyed is not None:
            signers[REKEYED] = self._rekeyed
        specs = [op.spec for op in ops]
        if len(specs) < PARALLEL_SIGN_MIN:
            requests = [sign_spec(spec, signers, self._certs) for spec in specs]
        else:
            requests = _sign_in_workers(specs, signers, self._certs, env.WORK_DIR)
        identity = {
            (u.identity_certificate.issuer, u.identity_certificate.serial):
                u.identity_certificate
            for u in signers.values()
        }
        for op, request in zip(ops, requests):
            request.attribute_certificate = self._certs[op.spec.cert_serial]
            request.identity_certificates = [
                identity[(c.issuer, c.serial)] for c in request.identity_certificates
            ]
            op.request = request
        for ops_ in streams:
            for op in ops_:
                if op.replay_of is not None:
                    op.request = op.replay_of.request


class Spec(NamedTuple):
    """Everything needed to sign one request, by name and serial."""

    signers: Tuple[str, ...]  # requestor first
    operation: str
    object_name: str
    cert_serial: str
    stated_at: int
    nonce: str
    corrupt: bool  # flip the requestor's signature


def sign_spec(spec: Spec, signers: Dict[str, User], certs: Dict[str, object]):
    users = [signers[name] for name in spec.signers]
    request = build_joint_request(
        users[0], users[1:], spec.operation, spec.object_name,
        certs[spec.cert_serial], now=spec.stated_at, nonce=spec.nonce,
    )
    if spec.corrupt:
        part = request.parts[0]
        bad = part.signature - 1 if part.signature > 1 else part.signature + 1
        request.parts[0] = dataclasses.replace(part, signature=bad)
    return request


SIGN_WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sign_worker.py")


def _sign_in_workers(specs: List[Spec], signers, certs, work_dir: str):
    """Sign ``specs`` in ``SIGN_WORKERS`` child processes, in order.

    Each child reads its share from a pickle file and writes the signed
    requests to another.  Plain subprocesses, each waited for on every
    path out: a ``multiprocessing`` pool would also start a resource
    tracker process that outlives the run.
    """
    os.makedirs(work_dir, exist_ok=True)
    share = -(-len(specs) // SIGN_WORKERS)
    jobs = []
    procs = []
    try:
        for i in range(SIGN_WORKERS):
            base = os.path.join(work_dir, f"sign-{i}")
            with open(base + ".in", "wb") as handle:
                pickle.dump((specs[i * share:(i + 1) * share], signers, certs), handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            jobs.append(base)
            procs.append(subprocess.Popen(
                [sys.executable, SIGN_WORKER, base + ".in", base + ".out"]
            ))
        for proc in procs:
            if proc.wait() != 0:
                raise RuntimeError(f"sign worker exited with code {proc.returncode}")
        requests = []
        for base in jobs:
            with open(base + ".out", "rb") as handle:
                requests.extend(pickle.load(handle))
        return requests
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for base in jobs:
            for path in (base + ".in", base + ".out"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)


def classify(granted: bool, reason: str) -> str:
    """Map a decision to the outcome classes the generator labels with."""
    if granted:
        return GRANT
    if reason.startswith("membership revoked"):
        return "revoked"
    if reason.startswith("replayed request"):
        return "replay"
    if reason.startswith("stale request part"):
        return "stale"
    if reason.startswith("bad request signature"):
        return "bad-signature"
    if "selective distribution" in reason:
        return "key-mismatch"
    if reason.startswith("ACL grants no"):
        return "acl"
    return "other: " + reason[:60]
