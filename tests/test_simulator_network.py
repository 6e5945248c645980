"""Unit tests for the wireless medium and node processes."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.cost_model import UniformCostModel
from repro.deployment.node import SensorNode
from repro.deployment.terrain import CellGrid, Terrain
from repro.deployment.topology import RealNetwork
from repro.simulator.engine import Simulator
from repro.simulator.network import Packet, WirelessMedium
from repro.simulator.process import Process, ProcessHost
from repro.simulator.trace import MediumStats

from conftest import make_deployment


def triangle_network(tx_range=2.0):
    """Three mutually connected nodes."""
    cells = CellGrid(Terrain(10.0), 1)
    nodes = [
        SensorNode(0, (1.0, 1.0), tx_range),
        SensorNode(1, (2.0, 1.0), tx_range),
        SensorNode(2, (1.0, 2.0), tx_range),
    ]
    return RealNetwork(nodes, cells)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def medium(sim):
    return WirelessMedium(sim, triangle_network())


class Recorder(Process):
    def __init__(self):
        super().__init__()
        self.packets = []

    def on_packet(self, packet: Packet) -> None:
        self.packets.append((self.now, packet))


class TestBroadcast:
    def test_broadcast_reaches_all_neighbors(self, sim, medium):
        host = ProcessHost(sim, medium)
        host.add_all(lambda nid: Recorder())
        delivered = medium.broadcast(0, "k", "payload")
        sim.run()
        assert delivered == 2
        assert len(host.get(1).packets) == 1
        assert len(host.get(2).packets) == 1
        assert host.get(0).packets == []

    def test_broadcast_energy_single_tx(self, sim, medium):
        medium.broadcast(0, "k", None, size_units=2.0)
        sim.run()
        # one tx of 2 units + two rx of 2 units
        assert medium.ledger.consumed(0) == 2.0
        assert medium.ledger.consumed(1) == 2.0
        assert medium.ledger.consumed(2) == 2.0

    def test_broadcast_draws_battery(self, sim, medium):
        node0 = medium.network.node(0)
        before = node0.residual_energy
        medium.broadcast(0, "k", None)
        sim.run()
        assert node0.residual_energy == before - 1.0

    def test_dead_source_sends_nothing(self, sim, medium):
        medium.network.node(0).kill()
        assert medium.broadcast(0, "k", None) == 0
        sim.run()
        assert medium.stats.transmissions == 0

    def test_dead_receiver_skipped(self, sim, medium):
        host = ProcessHost(sim, medium)
        host.add_all(lambda nid: Recorder())
        medium.network.node(1).kill()
        delivered = medium.broadcast(0, "k", None)
        sim.run()
        assert delivered == 1

    def test_delivery_latency(self, sim, medium):
        host = ProcessHost(sim, medium)
        host.add_all(lambda nid: Recorder())
        medium.broadcast(0, "k", None, size_units=3.0)
        sim.run()
        t, _ = host.get(1).packets[0]
        assert t == 3.0  # tx_latency of 3 units at unit bandwidth


class TestUnicast:
    def test_unicast_addressed_only(self, sim, medium):
        host = ProcessHost(sim, medium)
        host.add_all(lambda nid: Recorder())
        ok = medium.unicast(0, 1, "k", "data")
        sim.run()
        assert ok
        assert len(host.get(1).packets) == 1
        assert host.get(2).packets == []

    def test_unicast_requires_neighbor(self, sim):
        cells = CellGrid(Terrain(10.0), 1)
        nodes = [
            SensorNode(0, (1.0, 1.0), 1.5),
            SensorNode(1, (5.0, 5.0), 1.5),
        ]
        net = RealNetwork(nodes, cells)
        medium = WirelessMedium(sim, net)
        with pytest.raises(ValueError):
            medium.unicast(0, 1, "k", None)

    def test_unicast_charges_only_addressee(self, sim, medium):
        medium.unicast(0, 1, "k", None)
        sim.run()
        assert medium.ledger.consumed(1) == 1.0
        assert medium.ledger.consumed(2) == 0.0


class TestLossAndJitter:
    def test_loss_rate_drops_packets(self, sim):
        medium = WirelessMedium(
            sim, triangle_network(), loss_rate=0.5, rng=np.random.default_rng(0)
        )
        total_delivered = 0
        for _ in range(200):
            total_delivered += medium.broadcast(0, "k", None)
        sim.run()
        # 400 delivery opportunities at 50% loss
        assert 140 < total_delivered < 260
        assert medium.stats.drops == 400 - total_delivered

    def test_loss_rate_validation(self, sim):
        with pytest.raises(ValueError, match=r"loss_rate must be in \[0, 1\)"):
            WirelessMedium(sim, triangle_network(), loss_rate=1.0)
        with pytest.raises(ValueError, match=r"loss_rate must be in \[0, 1\)"):
            WirelessMedium(sim, triangle_network(), loss_rate=1.5)
        with pytest.raises(ValueError, match=r"loss_rate must be in \[0, 1\)"):
            WirelessMedium(sim, triangle_network(), loss_rate=-0.1)
        with pytest.raises(ValueError, match="jitter must be non-negative"):
            WirelessMedium(sim, triangle_network(), jitter=-0.1)

    def test_boundary_params_accepted(self, sim):
        # the closed ends of the valid ranges must not raise
        WirelessMedium(sim, triangle_network(), loss_rate=0.0, jitter=0.0)
        WirelessMedium(sim, triangle_network(), loss_rate=0.999, rng=0)

    def test_lossy_or_jittered_medium_requires_rng(self, sim):
        # an unseeded lossy or jittered medium would draw from OS entropy
        # and never replay
        for params in ({"loss_rate": 0.3}, {"jitter": 0.5}):
            with pytest.raises(ValueError, match="rng"):
                WirelessMedium(sim, triangle_network(), **params)
            WirelessMedium(sim, triangle_network(), rng=4, **params)

    def test_jitter_spreads_arrivals(self, sim):
        medium = WirelessMedium(
            sim, triangle_network(), jitter=0.5, rng=np.random.default_rng(1)
        )
        host = ProcessHost(sim, medium)
        host.add_all(lambda nid: Recorder())
        medium.broadcast(0, "k", None)
        sim.run()
        t1 = host.get(1).packets[0][0]
        t2 = host.get(2).packets[0][0]
        assert t1 != t2
        assert 1.0 <= min(t1, t2) and max(t1, t2) <= 1.5

    def test_deterministic_with_seed(self):
        def run(seed):
            sim = Simulator()
            medium = WirelessMedium(
                sim, triangle_network(), loss_rate=0.3,
                rng=np.random.default_rng(seed),
            )
            got = [medium.broadcast(0, "k", None) for _ in range(50)]
            sim.run()
            return got

        assert run(7) == run(7)
        assert run(7) != run(8)


class StubGate:
    """A link gate refusing every ``period``-th link it is asked about."""

    def __init__(self, period: int):
        self.period = period
        self.asked = 0
        self.refused = []

    def admit(self, src: int, dst: int) -> bool:
        self.asked += 1
        if self.asked % self.period:
            return True
        self.refused.append(dst)
        return False


class TestLinkGate:
    """A gate decides before any loss or jitter draw (DESIGN.md §14): a
    refused link must look to the medium's stream exactly like a link
    that is not there."""

    @staticmethod
    def lossy_world():
        net = make_deployment(side=4, n_random=140, seed=17)
        sim = Simulator()
        medium = WirelessMedium(
            sim, net, loss_rate=0.3, jitter=0.5, rng=np.random.default_rng(5)
        )
        host = ProcessHost(sim, medium)
        host.add_all(lambda nid: Recorder())
        src = max(net.alive_ids(), key=lambda n: len(net.alive_neighbors(n)))
        return sim, medium, host, src

    @staticmethod
    def arrivals(host):
        return {
            nid: [t for t, _ in proc.packets]
            for nid, proc in host.processes.items()
            if proc.packets
        }

    def test_refused_links_shift_no_draw(self):
        sim, gated, host, src = self.lossy_world()
        gate = gated.link_gate = StubGate(3)
        gated.broadcast(src, "k", None)
        sim.run()
        assert gate.asked == len(gated.network.alive_neighbors(src))
        assert gate.refused and len(gate.refused) == gate.asked // 3

        sim_b, blocked, host_b, _ = self.lossy_world()
        for dst in gate.refused:
            blocked.block_link(src, dst)
        blocked.broadcast(src, "k", None)
        sim_b.run()

        assert self.arrivals(host) == self.arrivals(host_b)
        assert gated.rng.bit_generator.state == blocked.rng.bit_generator.state
        assert gated.stats.records["k"].drop == (
            blocked.stats.records["k"].drop + len(gate.refused)
        )

    def test_refused_unicast_spends_tx_and_draws_nothing(self):
        sim, medium, host, src = self.lossy_world()
        medium.link_gate = StubGate(1)
        dst = medium.network.alive_neighbors(src)[0]
        state = medium.rng.bit_generator.state
        assert medium.unicast(src, dst, "k", None) is False
        assert sim.pending == 0
        sim.run()
        assert medium.stats.transmissions == 1
        assert medium.ledger.consumed(src) == 1.0
        assert medium.stats.drops == medium.stats.records["k"].drop == 1
        assert medium.rng.bit_generator.state == state
        assert self.arrivals(host) == {}


class TestStats:
    def test_kind_breakdown(self, sim, medium):
        medium.broadcast(0, "a", None)
        medium.broadcast(0, "a", None)
        medium.unicast(0, 1, "b", None)
        sim.run()
        assert medium.stats.tx_of_kind("a") == 2
        assert medium.stats.tx_of_kind("b") == 1
        assert medium.stats.by_kind_rx["a"] == 4

    def test_summary_shape(self, sim, medium):
        medium.broadcast(0, "k", None)
        sim.run()
        summary = medium.stats.summary()
        assert summary["transmissions"] == 1.0
        assert summary["deliveries"] == 2.0


class CountingCostModel(UniformCostModel):
    """The uniform model, counting every question the medium asks it."""

    def __init__(self):
        super().__init__()
        self.asked = Counter()

    def tx_energy(self, units):
        self.asked["tx_energy", units] += 1
        return super().tx_energy(units)

    def rx_energy(self, units):
        self.asked["rx_energy", units] += 1
        return super().rx_energy(units)

    def tx_latency(self, units):
        self.asked["tx_latency", units] += 1
        return super().tx_latency(units)


class NegativeTxCostModel(UniformCostModel):
    def tx_energy(self, units):
        return -1.0


class TestAccounting:
    @pytest.mark.parametrize("batch_fanout", [True, False])
    def test_cost_model_asked_once_per_size_per_medium(self, sim, batch_fanout):
        model = CountingCostModel()
        medium = WirelessMedium(
            sim, triangle_network(), cost_model=model, batch_fanout=batch_fanout
        )
        host = ProcessHost(sim, medium)
        host.add_all(lambda nid: Recorder())
        sizes = (1.0, 0.5, 1.0, 0.0, 0.5, 2.5)
        for size in sizes:
            medium.broadcast(0, "b", None, size)
            medium.unicast(1, 2, "u", None, size)
        sim.run()
        assert sum(len(rec.packets) for rec in host.processes.values()) == 18
        assert model.asked == Counter(
            {(question, size): 1
             for question in ("tx_energy", "rx_energy", "tx_latency")
             for size in set(sizes)}
        )
        WirelessMedium(sim, triangle_network(), cost_model=model).unicast(0, 1, "u", None, 1.0)
        assert model.asked["tx_energy", 1.0] == 2, "a new medium asks afresh"

    def test_negative_energy_rejected_before_any_charge(self, sim):
        medium = WirelessMedium(sim, triangle_network(), cost_model=NegativeTxCostModel())
        for send in (
            lambda: medium.broadcast(0, "k", None),
            lambda: medium.unicast(0, 1, "k", None),
        ):
            with pytest.raises(ValueError, match=r"cannot draw negative energy \(-1\.0\)"):
                send()
        node = medium.network.node(0)
        assert node.alive and node.consumed_energy == 0.0
        assert len(medium.ledger) == 0 and medium.ledger.by_category() == {}
        assert medium.stats.fingerprint() == MediumStats().fingerprint()
        assert sim.pending == 0

    def test_zero_counts_absent_from_views(self, sim, medium):
        medium.network.node(1).kill()
        medium.network.node(2).kill()
        assert medium.broadcast(0, "lonely", None) == 0  # nobody alive to hear
        sim.run()
        stats = medium.stats
        assert stats.by_kind_tx == {"lonely": 1}
        assert stats.by_kind_rx == {} and stats.by_kind_drop == {}
        assert stats.tx_of_kind("other") == 0 and "other" not in stats.records
        assert medium.ledger.by_category() == {"tx:lonely": 1.0}

    def test_zero_size_kind_still_listed(self, sim, medium):
        medium.broadcast(0, "beacon", None, size_units=0.0)
        sim.run()
        assert medium.ledger.by_category() == {"tx:beacon": 0.0, "rx:beacon": 0.0}
        assert medium.ledger.per_node() == {0: 0.0, 1: 0.0, 2: 0.0}
        assert medium.stats.by_kind_rx == {"beacon": 2}


class TestProcessHost:
    def test_on_start_called(self, sim, medium):
        started = []

        class Starter(Process):
            def on_start(self):
                started.append(self.node_id)

        host = ProcessHost(sim, medium)
        host.add_all(lambda nid: Starter())
        host.start()
        sim.run()
        assert sorted(started) == [0, 1, 2]

    def test_duplicate_process_rejected(self, sim, medium):
        host = ProcessHost(sim, medium)
        host.add(0, Recorder())
        with pytest.raises(ValueError):
            host.add(0, Recorder())

    def test_timers(self, sim, medium):
        class TimerProc(Process):
            def __init__(self):
                super().__init__()
                self.fired = []

            def on_start(self):
                self.set_timer(2.0, "ping")

            def on_timer(self, tag):
                self.fired.append((self.now, tag))

        host = ProcessHost(sim, medium)
        proc = host.add(0, TimerProc())
        host.start()
        sim.run()
        assert proc.fired == [(2.0, "ping")]

    def test_timer_cancel(self, sim, medium):
        class TimerProc(Process):
            def __init__(self):
                super().__init__()
                self.fired = []

            def on_start(self):
                self.set_timer(2.0, "ping")
                self.cancel_timers()

            def on_timer(self, tag):
                self.fired.append(tag)

        host = ProcessHost(sim, medium)
        proc = host.add(0, TimerProc())
        host.start()
        sim.run()
        assert proc.fired == []

    def test_dead_node_timer_suppressed(self, sim, medium):
        class TimerProc(Process):
            def __init__(self):
                super().__init__()
                self.fired = []

            def on_start(self):
                self.set_timer(2.0, "ping")

            def on_timer(self, tag):
                self.fired.append(tag)

        host = ProcessHost(sim, medium)
        proc = host.add(0, TimerProc())
        host.start()
        sim.run(until=1.0)
        medium.network.node(0).kill()
        sim.run()
        assert proc.fired == []

    def test_teardown_detaches_and_drops_queued_events(self, sim, medium):
        class TimerProc(Recorder):
            def on_start(self):
                self.set_timer(2.0, "ping")

        host = ProcessHost(sim, medium)
        host.add_all(lambda nid: TimerProc())
        host.start()
        medium.broadcast(0, "k", None)
        sim.run(max_events=3)  # boots only: arrivals and timers still queued
        assert sim.pending > 0
        host.teardown()
        assert sim.pending == 0
        assert sorted(host.processes) == [0, 1, 2]  # still readable
        medium.broadcast(0, "k", None)
        sim.run()
        assert all(proc.packets == [] for proc in host.processes.values())

    def test_packets_to_dead_node_not_handled(self, sim, medium):
        host = ProcessHost(sim, medium)
        host.add_all(lambda nid: Recorder())
        medium.broadcast(0, "k", None)
        medium.network.node(1).kill()
        sim.run()
        assert host.get(1).packets == []
        assert len(host.get(2).packets) == 1
