"""Tests for links, network routing and FIFO delivery."""

import pytest

from repro.grid.host import Host
from repro.grid.link import Link
from repro.grid.network import Network
from repro.grid.traces import PiecewiseTrace


def make_hosts():
    a = Host("a", speed=1.0, site="s1")
    b = Host("b", speed=1.0, site="s1")
    c = Host("c", speed=1.0, site="s2")
    return a, b, c


def test_link_transfer_time():
    link = Link(latency=0.01, bandwidth=1e6)
    assert link.transfer_time(0, 0.0) == pytest.approx(0.01)
    assert link.transfer_time(1e6, 0.0) == pytest.approx(1.01)


def test_link_fluctuation_slows_transfers():
    bw_trace = PiecewiseTrace([0.0, 10.0], [1.0, 0.5])
    link = Link(latency=0.0, bandwidth=1e6, bandwidth_trace=bw_trace)
    assert link.transfer_time(1e6, 0.0) == pytest.approx(1.0)
    assert link.transfer_time(1e6, 10.0) == pytest.approx(2.0)


def test_link_latency_fluctuation():
    lat_trace = PiecewiseTrace([0.0, 10.0], [1.0, 0.5])
    link = Link(latency=0.01, bandwidth=1e9, latency_trace=lat_trace)
    assert link.transfer_time(0, 20.0) == pytest.approx(0.02)


def test_link_validation():
    with pytest.raises(ValueError):
        Link(latency=-1, bandwidth=1)
    with pytest.raises(ValueError):
        Link(latency=0, bandwidth=0)


def test_network_routing_priority():
    a, b, c = make_hosts()
    default = Link(latency=1.0, bandwidth=1e6, name="default")
    site = Link(latency=2.0, bandwidth=1e6, name="site")
    pair = Link(latency=3.0, bandwidth=1e6, name="pair")
    net = Network(default)
    assert net.link_for(a, b) is default
    net.set_site_link("s1", "s2", site)
    assert net.link_for(a, c) is site
    assert net.link_for(c, a) is site  # registered both ways
    net.set_pair_link(a, c, pair)
    assert net.link_for(a, c) is pair
    assert net.link_for(c, a) is site  # pair links are directed


def test_fifo_no_overtaking():
    a, b, _ = make_hosts()
    # Bandwidth such that a big message takes 10 s, a small one 1 s.
    net = Network(Link(latency=0.0, bandwidth=1.0))
    t_big = net.arrival_time(a, b, nbytes=10.0, now=0.0)
    t_small = net.arrival_time(a, b, nbytes=1.0, now=0.5)
    assert t_big == pytest.approx(10.0)
    assert t_small > t_big  # clamped behind the big message


def test_fifo_independent_channels():
    a, b, c = make_hosts()
    net = Network(Link(latency=0.0, bandwidth=1.0))
    t_ab = net.arrival_time(a, b, nbytes=10.0, now=0.0)
    t_ac = net.arrival_time(a, c, nbytes=1.0, now=0.0)
    assert t_ac == pytest.approx(1.0)
    assert t_ab == pytest.approx(10.0)
    # Reverse direction is its own channel too.
    t_ba = net.arrival_time(b, a, nbytes=1.0, now=0.0)
    assert t_ba == pytest.approx(1.0)


def test_network_accounting():
    a, b, _ = make_hosts()
    net = Network(Link(latency=0.0, bandwidth=1e3))
    net.arrival_time(a, b, 100.0, 0.0)
    net.arrival_time(a, b, 200.0, 0.0)
    assert net.bytes_sent == 300.0
    assert net.messages_sent == 2


def test_site_link_key_is_symmetric():
    a, b, c = make_hosts()
    net = Network(Link(latency=0.0, bandwidth=1.0))
    fast = Link(latency=0.001, bandwidth=1e9)
    net.set_site_link("s1", "s2", fast)
    # Lookup and registration must agree regardless of argument order.
    assert net.site_link("s2", "s1") is fast
    assert net.site_link("s1", "s2") is fast
    slow = Link(latency=0.5, bandwidth=1.0)
    net.set_site_link("s2", "s1", slow)  # overwrite via the flipped key
    assert net.site_link("s1", "s2") is slow


# ----------------------------------------------------------------------
# reset(): per-run state must not leak across runs
# ----------------------------------------------------------------------
def _arrival_sequence(network, a, b):
    return [network.arrival_time(a, b, 1000.0, t) for t in (0.0, 0.0, 0.5)]


def test_reset_clears_fifo_clamp_and_counters():
    a, b, _ = make_hosts()
    network = Network(Link(latency=0.01, bandwidth=1e6))
    first = _arrival_sequence(network, a, b)
    assert network.messages_sent == 3
    assert network.bytes_sent == pytest.approx(3000.0)
    network.reset()
    assert network.messages_sent == 0
    assert network.bytes_sent == 0.0
    # Back-to-back runs over the same network are identical after reset.
    assert _arrival_sequence(network, a, b) == first


def test_without_reset_fifo_state_leaks_into_next_run():
    """Documents the bug reset() fixes: a reused network clamps the next
    run's arrivals behind the previous run's last delivery."""
    a, b, _ = make_hosts()
    network = Network(Link(latency=0.01, bandwidth=1e6))
    first = _arrival_sequence(network, a, b)
    leaked = _arrival_sequence(network, a, b)
    assert leaked[0] > first[0]


def test_export_metrics_reports_totals():
    from repro.obs.registry import MetricsRegistry

    a, b, _ = make_hosts()
    network = Network(Link(latency=0.01, bandwidth=1e6))
    _arrival_sequence(network, a, b)
    reg = MetricsRegistry()
    network.export_metrics(reg, run="x")
    records = {r["name"]: r for r in reg.snapshot()}
    assert records["net.messages_sent"]["value"] == 3
    assert records["net.bytes_sent"]["value"] == pytest.approx(3000.0)
    assert records["net.active_channels"]["value"] == 1
    assert records["net.messages_sent"]["labels"] == {"run": "x"}


# ----------------------------------------------------------------------
# Per-pair link cache: registration invalidates resolved links
# ----------------------------------------------------------------------
def test_pair_link_registration_invalidates_cached_link():
    a, b, _ = make_hosts()
    net = Network(Link(latency=1.0, bandwidth=1e9))
    assert net.arrival_time(a, b, 0.0, 0.0) == 1.0
    net.set_pair_link(a, b, Link(latency=3.0, bandwidth=1e9))
    assert net.arrival_time(a, b, 0.0, 10.0) == 13.0
    # The reverse direction still uses the default link.
    assert net.arrival_time(b, a, 0.0, 10.0) == 11.0


def test_site_link_registration_invalidates_cached_link():
    a, _, c = make_hosts()
    net = Network(Link(latency=1.0, bandwidth=1e9))
    assert net.arrival_time(a, c, 0.0, 0.0) == 1.0
    net.set_site_link("s2", "s1", Link(latency=4.0, bandwidth=1e9))
    assert net.arrival_time(a, c, 0.0, 10.0) == 14.0
    assert net.arrival_time(c, a, 0.0, 10.0) == 14.0
