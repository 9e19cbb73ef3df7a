"""Run one coalition-serving workload end to end and print its metrics.

    python3 coalbench/run.py --workload churn-audited-1024 --seed 1 \\
        --seconds 15 --trace 0

A run, in one fresh process:

1. sets up the coalition and service at least ``SETUPS_MIN`` times
   (``setup_s`` is the median; all but the last set-up are closed again);
2. pre-signs the labelled request stream from ``--seed`` (requestor
   work, reported on stderr, not gated);
3. runs the paced phase (a fixed number of requests at the workload's
   fixed rate) and then the unpaced phase, time-boxed at ``--seconds``;
4. checks every decision against its label and the service's
   invariants, closes everything, and checks that nothing it started
   is still alive.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics (end-to-end ones with ``--trace 0``,
per-layer ones with ``--trace 1``; see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import shutil
import statistics
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict

import env
from hygiene import (
    EXIT_DEADLINE,
    EXIT_LEFTOVERS,
    Deadline,
    DeadlineExceeded,
    leftovers,
)
from procstat import child_pids, cpu_now, peak_rss_mb
from stats import beyond, percentile

DEADLINE_S = 170.0  # hard limit on a whole run, in seconds
POOL_MARGIN = 1.3  # unpaced pool = capacity x time box x margin


# ------------------------------------------------------------------- checks


def check(fixture, phases, problems):
    """Check every outcome against its label and the service invariants.

    Returns the number of failed operations: requests shed, errored or
    never answered, decisions that differ from their label, grants sent
    after their certificate's revocation, and grants whose proof fails
    the audit.
    """
    from repro.coalition import AuditLog
    from repro.core.checker import ProofChecker
    from workload import classify

    outcomes = [o for p in phases for o in p.outcomes]
    failures = {id(o) for o in outcomes if o.kind != "decision"}
    mismatches = [
        o for o in outcomes
        if o.kind == "decision" and classify(o.granted, o.reason) != o.op.label
    ]
    for o in mismatches[:5]:
        problems.append(
            f"{o.op.cls} request {o.op.nonce}@{o.op.tick}: expected "
            f"{o.op.label}, got {classify(o.granted, o.reason)}"
        )
    if mismatches:
        problems.append(f"{len(mismatches)} decisions differ from their labels")
    failures.update(id(o) for o in mismatches)

    grants = [o for o in outcomes if o.kind == "decision" and o.granted]
    twice = [n for n, c in Counter(o.op.nonce for o in grants).items() if c > 1]
    if twice:
        problems.append(f"{len(twice)} nonces granted more than once")

    revoked_at = {}
    for phase in phases:
        for event in phase.events:
            if event.op.kind == "revoke":
                serial = event.op.cert_serial
                revoked_at[serial] = min(event.end, revoked_at.get(serial, math.inf))
    late = [o for o in grants if o.sent > revoked_at.get(o.op.cert_serial, math.inf)]
    if late:
        problems.append(f"{len(late)} grants sent after their certificate's revocation")
    failures.update(id(o) for o in late)

    stats = fixture.service.stats()["service"]
    resolved = stats["evaluated"] + stats["errored"] + stats["overloaded"]
    if resolved != stats["submitted"]:
        problems.append(f"accounting: {resolved} resolved of {stats['submitted']} submitted")
    if stats["submitted"] != len(outcomes):
        problems.append(f"service saw {stats['submitted']} requests, {len(outcomes)} sent")
    stranded = sum(1 for o in outcomes if not o.kind)
    if stranded:
        problems.append(f"{stranded} requests never resolved")

    if fixture.workload.mode != "process":
        # Equal to AuthorizationProtocol.audit (which snapshots the
        # protocol's whole belief store on every call) with the snapshot
        # taken once per protocol: stores no longer change after the run.
        by_protocol = defaultdict(list)
        for o in grants:
            protocol = o.ticket.epoch.protocols[o.ticket.shard]
            by_protocol[id(protocol)].append((protocol, o))
        unaudited = []
        for pairs in by_protocol.values():
            protocol = pairs[0][0]
            checker = ProofChecker(
                trusted_premises=protocol.engine.store.snapshot(),
                aliases=protocol.engine.alias_map(),
            )
            for i, (_, o) in enumerate(pairs):
                try:
                    checker.check(o.decision.proof)
                    if i % 64 == 0:
                        protocol.audit(o.decision)
                except Exception as exc:  # noqa: BLE001 - reported as a finding
                    if not unaudited:
                        problems.append(f"grant proof fails audit: {exc}"[:200])
                    unaudited.append(o)
        if unaudited:
            problems.append(f"{len(unaudited)} grant proofs fail the audit")
        failures.update(id(o) for o in unaudited)

    log = fixture.service.audit_log
    if log is not None:
        try:
            AuditLog.verify_chain(log.entries(), log.public_key,
                                  expected_length=stats["submitted"])
        except Exception as exc:  # noqa: BLE001 - reported as a finding
            problems.append(f"audit chain: {exc}")
    return len(failures)


def recover_wal(fixture, problems) -> float:
    """Recover the closed service's WAL; returns the recovery time in ms."""
    from repro.storage import recover

    expected = fixture.service.stats()["service"]["submitted"]
    start = time.perf_counter()
    recovered = recover(fixture.wal_dir)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if recovered.torn is not None:
        problems.append(f"WAL recovery found a torn tail: {recovered.torn}")
    if len(recovered.entries) != expected:
        problems.append(f"WAL recovered {len(recovered.entries)} entries, expected {expected}")
    return elapsed_ms


# ------------------------------------------------------------------ metrics


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setups, unpaced, paced, phases, rss_mb):
    latencies = sorted(
        (o.done - o.due) * 1e3 for o in paced.outcomes if o.kind == "decision"
    )
    publishes = [
        (e.end - e.start) * 1e3
        for p in phases
        for e in p.events
        if e.op.kind == "revoke" and not e.catch_up
    ]
    decisions_per_s, cpu_s_per_decision = unpaced.sampler.rates()
    # Wall-clock figures are reported, not gated: on a shared 2-core
    # machine they moved with the host's load by more than the largest
    # bound the benchmark may set, while CPU time per decision held
    # (README, "Steadiness and bounds").
    print(f"coalbench: unpaced phase: {decisions_per_s:.1f} decisions/s "
          f"(median over {len(unpaced.sampler.samples) - 1} windows)", file=sys.stderr)
    print(f"coalbench: paced phase: {len(latencies)} samples; "
          f"p50 {percentile(latencies, 0.50):.3f} ms, "
          f"p95 {percentile(latencies, 0.95):.3f} ms ({beyond(latencies, 0.95)} beyond), "
          f"p99 {percentile(latencies, 0.99):.3f} ms ({beyond(latencies, 0.99)} beyond); "
          f"revocation publish median {statistics.median(publishes):.3f} ms "
          f"over {len(publishes)}", file=sys.stderr)
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "cpu_us_per_decision": _metric(cpu_s_per_decision * 1e6, "us"),
        "peak_rss_mb": _metric(rss_mb, "MiB"),
    }


def per_layer(untraced, traced, spans, cpu, deltas, recover_ms):
    from tracing import summarize

    layers = summarize(spans)
    n = traced.decisions

    def calls(name):
        return layers[name].calls if name in layers else 0

    def mean_self(name):
        return layers[name].self_us / layers[name].calls if name in layers else 0.0

    def mean_incl(name):
        return layers[name].inclusive_us / layers[name].calls if name in layers else 0.0

    def total_self(name):
        return layers[name].self_us if name in layers else 0.0

    decisions = [o.decision for o in traced.outcomes if o.decision is not None]
    hits = sum(d.cache_hits for d in decisions)
    lookups = hits + sum(d.cache_misses for d in decisions)
    submitted = sum(1 for o in traced.outcomes)
    own_cpu, child_cpu = cpu
    m = {
        "crypto.verify_per_decision": _metric(calls("crypto.verify") / n, "count"),
        "crypto.verify_us": _metric(mean_self("crypto.verify"), "us"),
        "crypto.sign_per_decision": _metric(calls("crypto.sign") / n, "count"),
        "crypto.sign_us": _metric(mean_self("crypto.sign"), "us"),
        "pki.validate_per_decision": _metric(calls("pki.validate") / n, "count"),
        "pki.validate_us": _metric(mean_self("pki.validate"), "us"),
        "pki.encode_per_decision": _metric(calls("pki.encode") / n, "count"),
        "pki.encode_us": _metric(mean_self("pki.encode"), "us"),
        "core.derive_us": _metric(total_self("core.derive") / n, "us"),
        "core.index_probes_per_decision": _metric(
            sum(d.index_probes for d in decisions) / n, "count"
        ),
        "coalition.authorize_us": _metric(mean_incl("coalition.authorize"), "us"),
        "coalition.cert_cache_hit_ratio": _metric(hits / lookups if lookups else 0.0, "ratio"),
        "coalition.cert_cache_lookups": _metric(lookups, "count"),
        "coalition.audit_append_us": _metric(mean_incl("coalition.audit_append"), "us"),
        "service.submit_us_per_request": _metric(
            total_self("service.submit") / submitted, "us"
        ),
        "service.queue_wait_ms": _metric(deltas["queue_wait_ms"], "ms"),
        "service.epoch_publish_us": _metric(mean_incl("service.epoch_publish"), "us"),
        "service.epochs_published": _metric(deltas["epochs"], "count"),
        "procworker.parent_cpu_us_per_decision": _metric(own_cpu / n * 1e6, "us"),
        "procworker.child_cpu_us_per_decision": _metric(child_cpu / n * 1e6, "us"),
        "wire.encode_us": _metric(mean_self("wire.encode"), "us"),
        "wire.decode_us": _metric(mean_self("wire.decode"), "us"),
        "edge.batch_size": _metric(deltas["batch_size"], "count"),
        "storage.wal_append_us": _metric(mean_self("storage.wal_append"), "us"),
        "storage.wal_sync_us": _metric(mean_incl("storage.wal_sync"), "us"),
        "storage.syncs_per_decision": _metric(calls("storage.wal_sync") / n, "count"),
        "storage.wal_bytes_per_decision": _metric(deltas["wal_bytes"] / n, "B"),
        "storage.recover_ms": _metric(recover_ms, "ms"),
        "obs.trace_overhead_ratio": _metric(
            untraced.sampler.rates()[0] / traced.sampler.rates()[0], "ratio"
        ),
    }
    return m, layers


def _counters(fixture):
    """Service-side counters, sampled before and after a phase."""
    service = fixture.service
    snap = service.metrics_snapshot()["histograms"].get("service.queue_wait_s", {})
    edge = fixture.edge.stats() if fixture.edge is not None else {}
    wal = service.wal.stats() if service.wal is not None else {}
    return {
        "queue_wait_sum": snap.get("sum", 0.0),
        "queue_wait_count": snap.get("count", 0),
        "epochs": service.stats()["epochs"]["epochs_published"],
        "batches": edge.get("batches", 0),
        "batched": edge.get("batched_requests", 0),
        "wal_bytes": wal.get("bytes_appended", 0),
    }


def _deltas(before, after):
    d = {k: after[k] - before[k] for k in before}
    return {
        "queue_wait_ms": (
            d["queue_wait_sum"] / d["queue_wait_count"] * 1e3
            if d["queue_wait_count"] else 0.0
        ),
        "epochs": d["epochs"],
        "batch_size": d["batched"] / d["batches"] if d["batches"] else 0.0,
        "wal_bytes": d["wal_bytes"],
    }


# --------------------------------------------------------------------- run


def _cpu_delta(before, after):
    return after[0] - before[0], after[1] - before[1]


def run(workload, seed, seconds, trace, stack, ports, problems):
    import drive
    from tracing import SpanRecorder, instrument
    from workload import PACED_REQUESTS, SETUP_MIN_S, SETUPS_MIN, Generator, setup

    os.makedirs(env.WORK_DIR, exist_ok=True)
    clients = []
    stack.callback(lambda: [c.close() for c in clients])

    setup_times = []
    fixture = None
    while len(setup_times) < SETUPS_MIN or sum(setup_times) < SETUP_MIN_S:
        if fixture is not None:
            fixture.close()
        start = time.perf_counter()
        fixture = setup(workload, env.WORK_DIR, len(setup_times))
        setup_times.append(time.perf_counter() - start)
        stack.callback(fixture.close)
        if fixture.wal_dir:
            stack.callback(shutil.rmtree, fixture.wal_dir, True)
        if fixture.edge is not None:
            ports.append(fixture.edge.port)

    unpaced_s = seconds
    n_unpaced = math.ceil(workload.capacity_rps * unpaced_s * POOL_MARGIN)
    # Phases run (and their streams are generated) in this order: paced,
    # unpaced, then the traced unpaced phase.  Paced first, so the
    # latency phase starts from the same state in every run, whatever
    # the time-boxed phase would have got through.
    start = time.perf_counter()
    generator = Generator(workload, fixture, seed)
    paced_stream = generator.stream(PACED_REQUESTS)
    unpaced_streams = [
        generator.stream(n_unpaced, workload.lanes) for _ in range(2 if trace else 1)
    ]
    generator.sign(paced_stream, *unpaced_streams)
    print(f"coalbench: pre-signed {sum(map(len, unpaced_streams)) + len(paced_stream)} "
          f"ops in {time.perf_counter() - start:.2f} s", file=sys.stderr)
    # Exempt the pre-signed pool (and the set-up state) from the
    # collector's full passes, once, before any request is served: the
    # pool is the benchmark's, and it would otherwise be walked on every
    # full collection.  What the program builds while serving is
    # collected as usual in every phase.  The second collection counts
    # only what is not frozen, so full collections then come as often
    # as the program's own heap makes them, not as rarely as the frozen
    # pool's size would.
    gc.collect()
    gc.freeze()
    gc.collect()

    def unpaced(ops):
        if workload.edge:
            return drive.unpaced_edge(fixture, ops, unpaced_s, workload.lanes, clients)
        return drive.unpaced_inproc(fixture, ops, unpaced_s)

    before_paced = _counters(fixture)
    if workload.edge:
        paced = drive.paced_edge(fixture, paced_stream, workload.paced_rps, clients)
    else:
        paced = drive.paced_inproc(fixture, paced_stream, workload.paced_rps)
    after_paced = _counters(fixture)
    # Peak memory over fixed work (set-up, pre-signed pool, paced phase):
    # what the time-boxed phase adds grows with how far it gets.
    rss_mb = peak_rss_mb()
    print(f"coalbench: {len(setup_times)} set-ups; paced phase ran at most "
          f"{paced.max_lag_s * 1e3:.2f} ms behind schedule", file=sys.stderr)

    first = unpaced(unpaced_streams[0])
    drive.catch_up(fixture, unpaced_streams[0], first)
    phases = [paced, first]

    if trace:
        recorder = SpanRecorder()
        before = _counters(fixture)
        cpu0 = cpu_now()
        with instrument(recorder):
            traced = unpaced(unpaced_streams[1])
        cpu_traced = _cpu_delta(cpu0, cpu_now())
        counters_traced = _counters(fixture)
        spans = recorder.take()
        drive.catch_up(fixture, unpaced_streams[1], traced)
        phases.append(traced)

    failed = check(fixture, phases, problems)
    fixture.close()
    recover_ms = recover_wal(fixture, problems) if fixture.wal_dir else 0.0
    attempted = sum(len(p.outcomes) for p in phases)

    if not trace:
        metrics = end_to_end(setup_times, first, paced, phases, rss_mb)
    else:
        deltas = _deltas(before, counters_traced)
        deltas["queue_wait_ms"] = _deltas(before_paced, after_paced)["queue_wait_ms"]
        metrics, layers = per_layer(first, traced, spans, cpu_traced,
                                    deltas, recover_ms)
        _write_trace(workload, seed, spans, layers, metrics)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _write_trace(workload, seed, spans, layers, metrics):
    from tracing import SpanRecorder

    base = os.path.join(env.WORK_DIR, f"{workload.name}-seed{seed}")
    with contextlib.suppress(FileNotFoundError):
        os.remove(base + "-spans.jsonl")
    SpanRecorder.write_jsonl(spans, base + "-spans.jsonl", "unpaced-traced")
    with open(base + "-layers.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "layers": {k: v._asdict() for k, v in sorted(layers.items())},
                "trace_overhead_ratio": metrics["obs.trace_overhead_ratio"]["value"],
            },
            handle,
            indent=2,
        )
    print(f"coalbench: spans in {base}-spans.jsonl, self times in {base}-layers.json",
          file=sys.stderr)
    if workload.mode == "process":
        print("coalbench: process mode: spans cover the parent only; shard processes "
              "report CPU, not spans", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env.require_program()
    except env.MissingProgram as exc:
        print(f"coalbench: {exc}", file=sys.stderr)
        return 2
    from workload import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"coalbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("coalbench: --seconds must be positive", file=sys.stderr)
        return 2

    threads_before = set(threading.enumerate())
    ports = []
    problems = []
    code = 0
    result = None
    with Deadline(DEADLINE_S):
        try:
            with contextlib.ExitStack() as stack:
                result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), stack, ports, problems)
        except DeadlineExceeded as exc:
            print(f"coalbench: {exc}; tore down", file=sys.stderr)
            code = EXIT_DEADLINE
        except Exception:  # noqa: BLE001 - the run failed; report and exit non-zero
            traceback.print_exc()
            code = 1
        left = leftovers(threads_before, ports)
    for line in left:
        print(f"coalbench: left alive after teardown: {line}", file=sys.stderr)
    print(f"coalbench: teardown {'clean' if not left else 'INCOMPLETE'}; "
          f"children {child_pids()}", file=sys.stderr)
    if left:
        return code or EXIT_LEFTOVERS
    if code:
        return code
    for problem in problems:
        print(f"coalbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
