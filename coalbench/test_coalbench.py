"""Fast checks of the benchmark itself.

    python3 -m pytest -q coalbench/test_coalbench.py

Covers the generator's labels (against the live program and against
how each request was built), the percentile and self-time arithmetic,
the tracing wrappers, and the teardown checks including the deadline.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading

import env

env.require_program()

import pytest  # noqa: E402

import drive  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workload as wl  # noqa: E402
from hygiene import EXIT_DEADLINE, leftovers  # noqa: E402

RUN = os.path.join(env.BENCH_DIR, "run.py")

# The churn workload exercises every request class; 256-bit keys and
# inline evaluation keep the check fast without changing any label.
SMALL = dataclasses.replace(
    wl.WORKLOADS["churn-audited-1024"], key_bits=256, mode="inline", audited=False
)


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    fx = wl.setup(SMALL, str(tmp_path_factory.mktemp("bench")), 0)
    yield fx
    fx.close()


def _signed(fixture, seed, n):
    generator = wl.Generator(SMALL, fixture, seed)
    ops = generator.stream(n)
    generator.sign(ops)
    return ops


def _shape(ops):
    return [
        (op.kind, op.cls, op.label, op.tick, op.lane,
         op.request.object_name if op.request else op.object_name,
         op.request.operation if op.request else "")
        for op in ops
    ]


# ------------------------------------------------------------- generator


def test_same_seed_same_stream_other_seed_differs(fixture, tmp_path):
    other = wl.setup(SMALL, str(tmp_path), 1)
    try:
        a = _signed(fixture, 7, 200)
        b = _signed(other, 7, 200)
        c = _signed(other, 8, 200)
    finally:
        other.close()
    assert _shape(a) == _shape(b)
    assert _shape(a) != _shape(c)


def test_labels_follow_from_construction(fixture):
    ops = _signed(fixture, 3, 600)
    classes = {op.cls for op in ops if op.kind == "request"}
    assert classes == set(wl.EXPECT), classes - set(wl.EXPECT)
    revoked, granted_nonces = set(), {}
    open_acl = {name: True for name in wl.OBJECTS}
    for op in ops:
        if op.kind == "revoke":
            revoked.add(op.cert_serial)
            continue
        if op.kind == "acl":
            open_acl[op.object_name] = len(op.acl) == len(wl.BASE_ACL)
            continue
        request = op.request
        tac = request.attribute_certificate
        assert op.cert_serial == tac.serial
        assert op.label == wl.EXPECT[op.cls]
        if op.label == wl.GRANT:
            assert tac.serial not in revoked
            assert op.nonce not in granted_nonces
            granted_nonces[op.nonce] = op.lane
            if request.operation == "append":
                assert open_acl[request.object_name]
        elif op.cls == "replay":
            assert granted_nonces.get(op.nonce) == op.lane
        elif op.cls == "revoked":
            assert tac.serial in revoked
        elif op.cls == "stale":
            assert all(op.tick - p.stated_at > wl.FRESHNESS for p in request.parts)
        elif op.cls == "bad-signature":
            part, cert = request.parts[0], request.identity_certificates[0]
            assert not cert.subject_key.verify(part.payload_bytes(), part.signature)
        elif op.cls == "key-mismatch":
            bound = dict(tac.subjects)[request.parts[0].user]
            assert request.identity_certificates[0].subject_key_id != bound
        elif op.cls == "acl":
            assert request.operation == "delete" or not open_acl[request.object_name]


def test_program_decisions_match_labels(fixture):
    ops = _signed(fixture, 5, 400)
    phase = drive.unpaced_inproc(fixture, ops, seconds=60.0)
    assert len(phase.outcomes) == 400
    got = [(wl.classify(o.granted, o.reason), o.op.label) for o in phase.outcomes]
    assert all(kind == "decision" for kind in (o.kind for o in phase.outcomes))
    assert [g for g, _ in got] == [label for _, label in got]


def test_check_counts_a_decision_that_differs_from_its_label_as_failed(tmp_path):
    import run

    fx = wl.setup(SMALL, str(tmp_path), 0)
    try:
        ops = _signed(fx, 11, 60)
        phase = drive.unpaced_inproc(fx, ops, seconds=60.0)
        problems = []
        assert run.check(fx, [phase], problems) == 0 and problems == []
        granted = next(o for o in phase.outcomes if o.granted)
        granted.op = dataclasses.replace(granted.op, label="replay")
        problems = []
        assert run.check(fx, [phase], problems) == 1
        assert any("differ from their labels" in p for p in problems)
    finally:
        fx.close()


def test_classify_maps_unknown_reasons_apart():
    assert wl.classify(True, "access approved") == wl.GRANT
    assert wl.classify(False, "replayed request (nonce already accepted)") == "replay"
    assert wl.classify(False, "no such object 'X'").startswith("other")


# ------------------------------------------------------------ arithmetic


def test_percentile_is_nearest_rank():
    values = sorted(range(1, 101))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([3.0], 0.99) == 3.0
    assert stats.beyond(values, 0.99) == 1
    assert stats.beyond(sorted(range(1120)), 0.99) == 11
    with pytest.raises(ValueError):
        stats.percentile(values, 99)
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_quartiles_and_spread_match_statistics():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, median, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)


def test_self_time_subtracts_covered_child_time_once():
    assert stats.self_time(0, 100, []) == 100
    assert stats.self_time(0, 100, [(10, 20), (30, 50)]) == 70
    # Overlapping children (two threads) are counted once.
    assert stats.self_time(0, 100, [(10, 40), (30, 50)]) == 60
    # Child time outside the parent is clipped away.
    assert stats.self_time(10, 20, [(0, 15), (18, 40)]) == 3
    assert stats.covered([(5, 10), (0, 3), (2, 4)]) == 9


def test_summarize_self_and_inclusive_times():
    spans = [
        tracing.Span(1, 0, "a", 0, 10_000, None, 1),
        tracing.Span(2, 1, "b", 1_000, 4_000, None, 1),
        tracing.Span(3, 2, "c", 2_000, 3_000, None, 1),
        tracing.Span(4, 1, "b", 5_000, 6_000, None, 1),
    ]
    layers = tracing.summarize(spans)
    assert layers["a"] == tracing.LayerStats(1, 6.0, 10.0)
    assert layers["b"] == tracing.LayerStats(2, 3.0, 4.0)
    assert layers["c"] == tracing.LayerStats(1, 1.0, 1.0)


def test_instrument_nests_spans_and_restores_the_program(fixture):
    from repro.coalition import protocol

    original = protocol.validate_certificate
    recorder = tracing.SpanRecorder()
    ops = _signed(fixture, 9, 20)
    with tracing.instrument(recorder):
        assert protocol.validate_certificate is not original
        drive.unpaced_inproc(fixture, ops, seconds=60.0)
    assert protocol.validate_certificate is original
    spans = recorder.take()
    by_id = {s.span_id: s for s in spans}
    validations = [s for s in spans if s.name == "pki.validate"]
    assert validations
    for s in validations:
        parent = by_id[s.parent]
        if parent.name == "coalition.authorize":
            assert s.request == parent.request and s.request
    assert any(by_id[s.parent].name == "coalition.authorize" for s in validations)


# --------------------------------------------------------------- hygiene


def _sleep_forever(event):
    event.wait(30)


def test_leftovers_reports_threads_processes_and_ports():
    before = set(threading.enumerate())
    assert leftovers(before, settle_s=0) == []
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    ctx = multiprocessing.get_context("fork")
    child_stop = ctx.Event()
    child = ctx.Process(target=_sleep_forever, args=(child_stop,))
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    port = listener.getsockname()[1]
    thread.start()
    child.start()
    try:
        problems = leftovers(before, [port], settle_s=0)
        assert any("thread" in p for p in problems)
        assert any("child process" in p for p in problems)
        assert any(str(port) in p for p in problems)
    finally:
        stop.set()
        child_stop.set()
        listener.close()
        thread.join(5)
        child.join(5)
    assert leftovers(before, [port], settle_s=1.0) == []


def test_leftovers_reports_a_child_multiprocessing_does_not_know():
    before = set(threading.enumerate())
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        problems = leftovers(before, settle_s=0)
        assert any(f"pid {child.pid}" in p for p in problems)
    finally:
        child.kill()
        child.wait()
    assert leftovers(before, settle_s=0) == []


def _run(args, cwd, timeout=120):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )


def test_deadline_tears_down_a_run_and_leaves_nothing_alive():
    args = ["--workload", "edge-process-256", "--seed", "1", "--seconds", "60",
            "--trace", "0"]
    proc = _run(["-c", f"import sys, run; run.DEADLINE_S = 4; sys.exit(run.main({args!r}))"],
                env.BENCH_DIR)
    assert proc.returncode == EXIT_DEADLINE, proc.stderr[-2000:]
    assert "teardown clean; children []" in proc.stderr
    assert proc.stdout.strip() == ""


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(env.BENCH_DIR, tmp_path / "coalbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(env.REPO_ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["coalbench/run.py", "--workload", "edge-process-256", "--seed", "1",
                 "--seconds", "12", "--trace", "0"], tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_file_names_what_the_runner_reports():
    with open(os.path.join(env.REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {w["name"] for w in bench["workloads"]} <= set(wl.WORKLOADS)
    assert bench["command"] == ["python3", "coalbench/run.py"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_its_mode(trace, section, monkeypatch):
    import contextlib

    import run

    with open(os.path.join(env.REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    monkeypatch.setattr(wl, "PACED_REQUESTS", 50)
    workload = dataclasses.replace(
        wl.WORKLOADS["edge-process-256"], paced_rps=500.0, event_every=20
    )
    problems, ports = [], []
    before = set(threading.enumerate())
    with contextlib.ExitStack() as stack:
        result = run.run(workload, 2, 0.5, bool(trace), stack, ports, problems)
    assert leftovers(before, ports) == []
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] > 50
    assert problems == []
    expected = {m["name"]: m["unit"] for m in bench[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
