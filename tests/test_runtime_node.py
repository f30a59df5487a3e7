"""Tests for the PM2-like messaging layer."""

import pytest

from repro.des import Hold, Simulator, SimulationError
from repro.grid.host import Host
from repro.grid.link import Link
from repro.grid.network import Network
from repro.runtime.node import GridNode
from repro.runtime.tracer import Tracer


def make_pair(latency=1.0, bandwidth=1e6):
    sim = Simulator()
    net = Network(Link(latency=latency, bandwidth=bandwidth))
    tracer = Tracer()
    a = GridNode(sim, 0, Host("a", 1.0), net, tracer)
    b = GridNode(sim, 1, Host("b", 1.0), net, tracer)
    return sim, a, b, tracer


def test_send_delivers_to_handler_at_arrival_time():
    sim, a, b, _ = make_pair(latency=2.0)
    received = []
    b.register_handler("data", lambda msg: received.append((sim.now, msg.payload)))

    def sender(sim):
        yield Hold(1.0)
        a.send(b, "data", {"x": 1}, size_bytes=0)

    sim.spawn("s", sender(sim))
    sim.run()
    assert received == [(3.0, {"x": 1})]


def test_handler_sees_message_metadata():
    sim, a, b, _ = make_pair(latency=0.5)
    seen = []
    b.register_handler("data", lambda msg: seen.append(msg))
    a.send(b, "data", None, size_bytes=100)
    sim.run()
    (msg,) = seen
    assert msg.src_rank == 0
    assert msg.dst_rank == 1
    assert msg.send_time == 0.0
    assert msg.arrival_time == pytest.approx(0.5 + 100 / 1e6)


def test_missing_handler_is_an_error():
    sim, a, b, _ = make_pair()
    a.send(b, "unknown", None, size_bytes=0)
    with pytest.raises(SimulationError, match="no handler"):
        sim.run()


def test_duplicate_handler_rejected():
    sim, a, _, _ = make_pair()
    a.register_handler("k", lambda m: None)
    with pytest.raises(ValueError):
        a.register_handler("k", lambda m: None)


def test_exclusive_send_suppressed_while_in_flight():
    sim, a, b, _ = make_pair(latency=10.0)
    received = []
    b.register_handler("halo", lambda msg: received.append(msg.payload))

    def sender(sim):
        assert a.send(b, "halo", 1, size_bytes=0, exclusive=True)
        yield Hold(1.0)
        # Previous send still in flight (arrives at t=10): suppressed.
        assert not a.send(b, "halo", 2, size_bytes=0, exclusive=True)
        assert a.channel_busy("halo", b.rank)
        yield Hold(10.0)  # now t=11, first send arrived at t=10
        assert not a.channel_busy("halo", b.rank)
        assert a.send(b, "halo", 3, size_bytes=0, exclusive=True)

    sim.spawn("s", sender(sim))
    sim.run()
    assert received == [1, 3]


def test_exclusive_channels_are_per_kind_and_destination():
    sim, a, b, _ = make_pair(latency=10.0)
    b.register_handler("left", lambda m: None)
    b.register_handler("right", lambda m: None)
    assert a.send(b, "left", None, 0, exclusive=True)
    # Different kind: independent channel.
    assert a.send(b, "right", None, 0, exclusive=True)
    sim.run()


def test_non_exclusive_sends_never_suppressed():
    sim, a, b, _ = make_pair(latency=10.0)
    received = []
    b.register_handler("data", lambda msg: received.append(msg.payload))
    for i in range(5):
        assert a.send(b, "data", i, size_bytes=0)
    sim.run()
    assert received == [0, 1, 2, 3, 4]


def test_fifo_ordering_preserved_for_growing_sizes():
    # A later small message must not overtake an earlier big one.
    sim, a, b, _ = make_pair(latency=0.0, bandwidth=1.0)
    received = []
    b.register_handler("data", lambda msg: received.append(msg.payload))

    def sender(sim):
        a.send(b, "data", "big", size_bytes=100.0)
        yield Hold(1.0)
        a.send(b, "data", "small", size_bytes=1.0)

    sim.spawn("s", sender(sim))
    sim.run()
    assert received == ["big", "small"]


def test_tracer_records_messages():
    sim, a, b, tracer = make_pair(latency=1.0)
    b.register_handler("data", lambda m: None)
    a.send(b, "data", None, size_bytes=64)
    sim.run()
    (rec,) = tracer.messages
    assert rec.kind == "data"
    assert rec.src_rank == 0 and rec.dst_rank == 1
    assert rec.size_bytes == 64
    assert rec.arrival_time > rec.send_time


def test_handler_can_send_back():
    sim, a, b, _ = make_pair(latency=1.0)
    log = []
    b.register_handler("ping", lambda m: b.send(a, "pong", m.payload + 1, 0))
    a.register_handler("pong", lambda m: log.append((sim.now, m.payload)))
    a.send(b, "ping", 10, 0)
    sim.run()
    assert log == [(2.0, 11)]


# ----------------------------------------------------------------------
# Lossless fast-path delivery contract
# ----------------------------------------------------------------------
def test_unregistered_kind_fails_at_delivery_naming_rank_and_kind():
    sim, a, b, _ = make_pair()
    assert a.send(b, "mystery", None, size_bytes=0)  # the send itself succeeds
    with pytest.raises(
        SimulationError, match=r"rank 1 has no handler for message kind 'mystery'"
    ):
        sim.run()


def test_exclusive_busy_flag_clears_exactly_at_arrival():
    sim, a, b, _ = make_pair(latency=10.0)
    seen = []
    b.register_handler(
        "halo", lambda msg: seen.append((sim.now, a.channel_busy("halo", 1)))
    )
    assert a.send(b, "halo", 1, size_bytes=0, exclusive=True)
    sim.run(until=9.5)
    assert a.channel_busy("halo", 1)
    # A second exclusive send while the first is in flight is suppressed.
    assert not a.send(b, "halo", 2, size_bytes=0, exclusive=True)
    sim.run()
    # The flag was already clear when the handler ran, at the arrival time.
    assert seen == [(10.0, False)]
    assert not a.channel_busy("halo", 1)


def test_one_arrival_computation_per_message():
    sim, a, b, tracer = make_pair(latency=1.0)
    b.register_handler("data", lambda m: None)
    b.register_handler("halo", lambda m: None)
    a.register_handler("ack", lambda m: None)
    for i in range(4):
        a.send(b, "data", i, size_bytes=8)
        a.send(b, "halo", i, size_bytes=8, exclusive=True)  # 3 suppressed
        b.send(a, "ack", i, size_bytes=8)
    sim.run()
    assert tracer.n_messages() == 9
    assert a.network.messages_sent == tracer.n_messages()


def test_pair_link_registered_after_a_send_times_the_next_send():
    sim, a, b, tracer = make_pair(latency=1.0)
    b.register_handler("data", lambda m: None)
    a.send(b, "data", None, size_bytes=0)
    sim.run()
    a.network.set_pair_link(a.host, b.host, Link(latency=5.0, bandwidth=1e6))
    a.send(b, "data", None, size_bytes=0)
    sim.run()
    first, second = tracer.messages
    assert first.arrival_time - first.send_time == 1.0
    assert second.arrival_time - second.send_time == 5.0
