"""Tests for the deterministic event queue."""

import bisect

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.des.event import EventQueue


def test_pop_orders_by_time():
    q = EventQueue()
    order = []
    q.push(3.0, lambda: order.append("c"))
    q.push(1.0, lambda: order.append("a"))
    q.push(2.0, lambda: order.append("b"))
    while (e := q.pop()) is not None:
        e.callback()
    assert order == ["a", "b", "c"]


def test_ties_break_in_scheduling_order():
    q = EventQueue()
    order = []
    for i in range(10):
        q.push(1.0, lambda i=i: order.append(i))
    while (e := q.pop()) is not None:
        e.callback()
    assert order == list(range(10))


def test_cancelled_events_skipped():
    q = EventQueue()
    fired = []
    e1 = q.push(1.0, lambda: fired.append(1))
    q.push(2.0, lambda: fired.append(2))
    e1.cancel()
    while (e := q.pop()) is not None:
        e.callback()
    assert fired == [2]


def test_peek_time_skips_cancelled():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(5.0, lambda: None)
    assert q.peek_time() == 1.0
    e1.cancel()
    assert q.peek_time() == 5.0


def test_peek_time_empty():
    assert EventQueue().peek_time() is None
    assert EventQueue().pop() is None


def test_len_counts_entries():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_property_pops_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while (e := q.pop()) is not None:
        popped.append(e.time)
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, 2.0]), st.integers(0, 99)),
        min_size=1,
        max_size=100,
    )
)
def test_property_equal_times_fifo(items):
    q = EventQueue()
    out = []
    for t, tag in items:
        q.push(t, lambda t=t, tag=tag: out.append((t, tag)))
    while (e := q.pop()) is not None:
        e.callback()
    # Within each time bucket, tags appear in original scheduling order.
    for bucket_time in (0.0, 1.0, 2.0):
        expected = [tag for t, tag in items if t == bucket_time]
        actual = [tag for t, tag in out if t == bucket_time]
        assert actual == expected


# ----------------------------------------------------------------------
# Model-based check against a sorted (time, seq) reference list
# ----------------------------------------------------------------------
# A small time pool so pushes collide on the same timestamp often.
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2**-40, 2.0, 7.5])
_OPS = st.one_of(
    st.tuples(st.just("push"), _TIMES),
    st.tuples(st.just("push_many"), _TIMES, st.integers(1, 80)),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
    st.tuples(st.just("cancel_many"), st.integers(0, 10**6), st.integers(1, 100)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("pop_at"), _TIMES),
    st.tuples(st.just("peek_time")),
)


def _key(event):
    return None if event is None else (event.time, event.seq)


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS, max_size=40))
@example(  # > 64 tombstones outnumbering live events: compact() must run
    [
        ("push_many", 1.0, 80),
        ("push_many", 2.0, 80),
        ("pop",),
        ("cancel_many", 0, 100),
        ("pop_at", 1.0),
        ("pop_at", 2.0),
        ("cancel", 159),
        ("peek_time",),
    ]
)
def test_queue_matches_sorted_reference(ops):
    q = EventQueue()
    pushed = []  # every event ever pushed, in seq order
    pending = []  # sorted (time, seq) of live, unpopped events
    peak = 0

    def cancel(event):
        key = (event.time, event.seq)
        i = bisect.bisect_left(pending, key)
        if i < len(pending) and pending[i] == key and not event.cancelled:
            del pending[i]
        event.cancel()  # also after pop, or twice: must be harmless

    for op in ops:
        kind = op[0]
        if kind in ("push", "push_many"):
            for _ in range(op[2] if kind == "push_many" else 1):
                event = q.push(op[1], lambda: None)
                assert event.seq == len(pushed)
                pushed.append(event)
                bisect.insort(pending, (event.time, event.seq))
                peak = max(peak, len(pending))
        elif kind in ("cancel", "cancel_many") and pushed:
            start = op[1] % len(pushed)
            count = op[2] if kind == "cancel_many" else 1
            for event in pushed[start : start + count]:
                cancel(event)
            # Compaction bounds the tombstones by the live count.
            assert len(q._heap) - len(pending) <= max(64, len(pending))
        elif kind == "pop":
            expected = pending.pop(0) if pending else None
            assert _key(q.pop()) == expected
        elif kind == "pop_at":
            expected = None
            if pending and pending[0][0] == op[1]:
                expected = pending.pop(0)
            assert _key(q.pop_at(op[1])) == expected
        elif kind == "peek_time":
            assert q.peek_time() == (pending[0][0] if pending else None)
        assert len(q) == len(pending)
        assert q.peak_size == peak
    # Draining yields the survivors in (time, seq) order.
    assert [_key(e) for e in iter(q.pop, None)] == pending
