"""Tests for trace export: TraceRing, Chrome events, metrics JSONL."""

import io
import json

from repro.obs.export import (
    METRICS_SCHEMA,
    TraceRing,
    iter_trace_events,
    metrics_jsonl_lines,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.runtime.tracer import (
    FaultRecord,
    IdleSpan,
    MigrationRecord,
    Tracer,
)


def make_tracer():
    t = Tracer()
    t.iteration(rank=0, iteration=1, t0=0.0, t1=2.0, work=10)
    t.idle(IdleSpan(rank=1, t0=0.0, t1=0.5, reason="barrier"))
    t.message(
        kind="halo_from_left",
        src_rank=0,
        dst_rank=1,
        size_bytes=64.0,
        send_time=1.0,
        arrival_time=1.25,
    )
    t.migration(MigrationRecord(0, 1, 5, 2.0, 0.9, 0.1))
    t.fault(FaultRecord(kind="crash", time=3.0, t_end=4.5, rank=1))
    t.fault(FaultRecord(kind="reabsorb", time=5.0, t_end=5.0, rank=None))
    return t


# ----------------------------------------------------------------------
# TraceRing
# ----------------------------------------------------------------------
def test_trace_ring_keeps_last_n_in_order():
    ring = TraceRing(3)
    for i in range(7):
        ring.append(i)
    assert list(ring) == [4, 5, 6]
    assert len(ring) == 3
    assert ring.n_seen == 7
    assert ring.n_dropped == 4


def test_trace_ring_below_capacity():
    ring = TraceRing(5)
    ring.append("a")
    ring.append("b")
    assert list(ring) == ["a", "b"]
    assert ring.n_dropped == 0


def test_trace_ring_rejects_zero_capacity():
    import pytest

    with pytest.raises(ValueError):
        TraceRing(0)


# ----------------------------------------------------------------------
# Chrome trace events
# ----------------------------------------------------------------------
def test_iter_trace_events_covers_every_record_kind():
    events = list(iter_trace_events(make_tracer()))
    cats = {e["cat"] for e in events}
    assert cats == {"compute", "idle", "message", "lb", "fault"}
    # Message records become async begin/end pairs sharing an id.
    msg = [e for e in events if e["cat"] == "message"]
    assert {e["ph"] for e in msg} == {"b", "e"}
    assert msg[0]["id"] == msg[1]["id"]
    # A fault with a window is a span; an instantaneous one is instant.
    faults = {e["name"]: e for e in events if e["cat"] == "fault"}
    assert faults["fault:crash"]["ph"] == "X"
    assert faults["fault:crash"]["dur"] == (4.5 - 3.0) * 1e6
    assert faults["fault:reabsorb"]["ph"] == "i"
    assert faults["fault:reabsorb"]["tid"] == -1  # platform-wide


def test_iteration_event_times_are_microseconds():
    events = list(iter_trace_events(make_tracer()))
    it = next(e for e in events if e["cat"] == "compute")
    assert it["ts"] == 0.0
    assert it["dur"] == 2.0 * 1e6
    assert it["tid"] == 0


def test_write_chrome_trace_deterministic_and_valid_json():
    fh1, fh2 = io.StringIO(), io.StringIO()
    n1 = write_chrome_trace(fh1, make_tracer(), metadata={"run": "x"})
    n2 = write_chrome_trace(fh2, make_tracer(), metadata={"run": "x"})
    assert n1 == n2 > 0
    assert fh1.getvalue() == fh2.getvalue()
    doc = json.loads(fh1.getvalue())
    assert doc["metadata"] == {"run": "x"}
    ts = [e["ts"] for e in doc["traceEvents"]]
    assert ts == sorted(ts)


def test_write_chrome_trace_accepts_prepared_events(tmp_path):
    events = [
        {"name": "b", "ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 2.0},
        {"name": "a", "ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 1.0},
    ]
    path = str(tmp_path / "trace.json")
    assert write_chrome_trace(path, events) == 2
    doc = json.loads(open(path).read())
    assert [e["name"] for e in doc["traceEvents"]] == ["a", "b"]


# ----------------------------------------------------------------------
# Metrics JSONL
# ----------------------------------------------------------------------
def test_metrics_jsonl_header_carries_schema_and_digest():
    records = [{"name": "a", "labels": {}, "type": "counter", "value": 1.0}]
    lines = metrics_jsonl_lines(records, {"experiment": "t"})
    head = json.loads(lines[0])
    assert head["schema"] == METRICS_SCHEMA
    assert head["experiment"] == "t"
    assert head["n_records"] == 1
    assert len(head["digest"]) == 64
    assert json.loads(lines[1]) == records[0]


def test_write_metrics_jsonl_roundtrip(tmp_path):
    records = [
        {"name": "a", "labels": {"rank": 0}, "type": "counter", "value": 2.0},
        {"name": "b", "labels": {}, "type": "gauge", "value": 0.5},
    ]
    path = str(tmp_path / "m.jsonl")
    digest = write_metrics_jsonl(path, records)
    text = open(path).read()
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert json.loads(lines[0])["digest"] == digest
    assert [json.loads(l) for l in lines[1:]] == records


def test_metrics_jsonl_digest_is_content_addressed():
    a = metrics_jsonl_lines([{"v": 1}])
    b = metrics_jsonl_lines([{"v": 1}])
    c = metrics_jsonl_lines([{"v": 2}])
    assert json.loads(a[0])["digest"] == json.loads(b[0])["digest"]
    assert json.loads(a[0])["digest"] != json.loads(c[0])["digest"]
