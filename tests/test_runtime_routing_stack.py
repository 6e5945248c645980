"""Unit tests for the transport layer and the deployed full stack."""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.apps import (
    count_regions,
    feature_matrix_aggregation,
    random_feature_matrix,
)
from repro.core import (
    CountAggregation,
    SumAggregation,
    VirtualArchitecture,
)
from repro.core.coords import Direction
from repro.deployment import RealNetwork, covered_deployment
from repro.runtime import (
    FaultEvent,
    FaultPlan,
    HealingConfig,
    build_leader_mesh,
    deploy,
    next_direction,
    plan_chaos,
    trace_route,
)
from repro.runtime.stack import _AppProcess, _Round
from repro.simulator import WirelessMedium

from conftest import RecordingTransport, make_deployment


@pytest.fixture(scope="module")
def stack4():
    net = make_deployment(side=4)
    return net, deploy(net)


class TestNextDirection:
    def test_x_first(self):
        assert next_direction((0, 0), (2, 2)) is Direction.EAST
        assert next_direction((3, 0), (1, 2)) is Direction.WEST

    def test_y_when_aligned(self):
        assert next_direction((2, 0), (2, 3)) is Direction.SOUTH
        assert next_direction((2, 3), (2, 0)) is Direction.NORTH

    def test_same_cell_rejected(self):
        with pytest.raises(ValueError):
            next_direction((1, 1), (1, 1))


class TestTraceRoute:
    def test_route_endpoints_are_leaders(self, stack4):
        net, stack = stack4
        path = trace_route(stack.topology, stack.binding, (0, 0), (3, 3))
        assert path[0] == stack.binding.leader_of((0, 0))
        assert path[-1] == stack.binding.leader_of((3, 3))

    def test_route_hops_are_radio_links(self, stack4):
        net, stack = stack4
        path = trace_route(stack.topology, stack.binding, (0, 3), (3, 0))
        for a, b in zip(path, path[1:]):
            assert b in net.neighbors(a)

    def test_route_cells_follow_xy(self, stack4):
        net, stack = stack4
        path = trace_route(stack.topology, stack.binding, (0, 0), (2, 1))
        cells = []
        for nid in path:
            c = net.cell_of(nid)
            if not cells or cells[-1] != c:
                cells.append(c)
        # XY over cells: x ascends first, then y
        assert cells == [(0, 0), (1, 0), (2, 0), (2, 1)]

    def test_route_to_same_cell(self, stack4):
        net, stack = stack4
        path = trace_route(stack.topology, stack.binding, (1, 1), (1, 1))
        assert path == [stack.binding.leader_of((1, 1))]

    def test_all_pairs_routable(self, stack4):
        net, stack = stack4
        cells = list(net.cells.cells())
        for src in cells:
            for dst in cells:
                path = trace_route(stack.topology, stack.binding, src, dst)
                assert net.cell_of(path[-1]) == dst


class TestSetupReport:
    def test_setup_totals(self, stack4):
        _, stack = stack4
        assert stack.setup.total_messages == (
            stack.setup.emulation.messages + stack.setup.binding.messages
        )
        assert stack.setup.total_energy > 0

    def test_strict_precondition_check(self):
        from repro.deployment import CellGrid, Terrain, build_network

        cells = CellGrid(Terrain(100.0), 4)
        net = build_network([(1.0, 1.0)], cells, tx_range=10.0)
        with pytest.raises(RuntimeError, match="preconditions"):
            deploy(net)


class TestDeployedApplication:
    def test_count_aggregation_correct(self, stack4):
        _, stack = stack4
        va = VirtualArchitecture(4)
        spec = va.synthesize(CountAggregation(lambda c: c[0] < 2))
        run = stack.run_application(spec)
        assert run.root_payload == 8
        assert run.drops == 0

    def test_region_labeling_matches_oracle(self, stack4):
        _, stack = stack4
        rng = np.random.default_rng(31)
        va = VirtualArchitecture(4)
        for _ in range(5):
            feat = random_feature_matrix(4, float(rng.uniform(0.2, 0.8)), rng)
            spec = va.synthesize(feature_matrix_aggregation(feat))
            run = stack.run_application(spec)
            assert run.root_payload.total_regions() == count_regions(feat)

    def test_partial_reduction_storage(self, stack4):
        _, stack = stack4
        va = VirtualArchitecture(4)
        spec = va.synthesize(CountAggregation(lambda c: True), max_level=1)
        run = stack.run_application(spec)
        assert len(run.exfiltrated) == 4
        assert all(v == 4 for v in run.exfiltrated.values())

    def test_grid_mismatch_rejected(self, stack4):
        _, stack = stack4
        va8 = VirtualArchitecture(8)
        spec = va8.synthesize(CountAggregation(lambda c: True))
        with pytest.raises(ValueError, match="does not match"):
            stack.run_application(spec)

    def test_energy_drawn_from_batteries(self, stack4):
        net, stack = stack4
        va = VirtualArchitecture(4)
        before = {nid: net.node(nid).consumed_energy for nid in net.node_ids()}
        spec = va.synthesize(SumAggregation(lambda c: 1.0))
        run = stack.run_application(spec)
        drained = sum(
            net.node(nid).consumed_energy - before[nid] for nid in net.node_ids()
        )
        assert drained == pytest.approx(run.ledger.total)
        assert drained > 0

    def test_physical_cost_exceeds_virtual(self, stack4):
        # the deployed run pays real multi-hop forwarding; the virtual
        # executor's grid-hop costs are a lower-level idealization
        _, stack = stack4
        va = VirtualArchitecture(4)
        agg = CountAggregation(lambda c: True)
        virtual = va.execute(agg, charge_compute=False)
        deployed = stack.run_application(va.synthesize(agg))
        assert deployed.transmissions >= virtual.messages

    def test_repeated_rounds_accumulate(self, stack4):
        net, stack = stack4
        va = VirtualArchitecture(4)
        spec = va.synthesize(CountAggregation(lambda c: True))
        r1 = stack.run_application(spec)
        spec2 = va.synthesize(CountAggregation(lambda c: True))
        r2 = stack.run_application(spec2)
        assert r1.root_payload == r2.root_payload == 16

    def test_message_loss_degrades_gracefully(self):
        net = make_deployment(side=4, seed=41)
        stack = deploy(net)
        va = VirtualArchitecture(4)
        spec = va.synthesize(CountAggregation(lambda c: True))
        run = stack.run_application(
            spec, loss_rate=0.4, rng=np.random.default_rng(2)
        )
        # under heavy loss the round may not complete, but must terminate
        assert len(run.exfiltrated) <= 1


class TestRoundTeardown:
    """A finished round's world is freed by reference counting alone,
    not left as cyclic garbage for the next full collection."""

    @pytest.mark.parametrize(
        "max_events,corrupt_frames",
        [(10_000_000, 0), (60, 0), (10_000_000, 2)],
        ids=["drained", "cut_off", "corrupting"],
    )
    def test_round_world_dies_without_the_collector(self, max_events, corrupt_frames):
        stack = deploy(make_deployment(side=4, seed=3))
        spec = VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))
        plan = None
        if corrupt_frames:
            # the injector's frame-mangling transform holds the medium
            plan = plan_chaos(
                sorted(stack.binding.leaders), kills=1, at=0.5, spacing=0.05,
                corrupt_frames=corrupt_frames, seed=3,
            )
        media = []
        build = stack.make_harness

        def capture(*args, **kwargs):
            sim, medium, host = build(*args, **kwargs)
            media.append(weakref.ref(medium))
            return sim, medium, host

        stack.make_harness = capture
        gc.collect()
        gc.disable()
        try:
            run = stack.run_application(
                spec, loss_rate=0.05, rng=np.random.default_rng(1),
                reliable=True, wire_format=True, max_events=max_events,
                fault_plan=plan,
            )
            assert len(media) == 1
            assert media[0]() is None, "the round's medium outlived run_application"
        finally:
            gc.enable()
        if max_events == 60:
            assert run.events_processed == max_events, "the round was not cut off"
        if corrupt_frames:
            assert run.fault_report.frames_corrupted == corrupt_frames

    def test_setup_worlds_die_without_the_collector(self, monkeypatch):
        media = []
        init = WirelessMedium.__init__

        def capture(medium, *args, **kwargs):
            init(medium, *args, **kwargs)
            media.append(weakref.ref(medium))

        monkeypatch.setattr(WirelessMedium, "__init__", capture)
        net = make_deployment(side=4, seed=3)
        gc.collect()
        gc.disable()
        try:
            # emulation, binding and mesh construction: one world each
            mesh = build_leader_mesh(net, deploy(net).binding)
            assert len(media) == 3
            alive = sum(ref() is not None for ref in media)
            assert alive == 0, f"{alive} setup media outlived their protocol"
        finally:
            gc.enable()
        assert mesh.mesh.routes

    def test_hosted_processes_stay_readable(self, stack4):
        _, stack = stack4
        spec = VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))
        hosts = []
        build = stack.make_harness

        def capture(*args, **kwargs):
            sim, medium, host = build(*args, **kwargs)
            hosts.append(host)
            return sim, medium, host

        stack.make_harness = capture
        try:
            run = stack.run_application(spec, reliable=True)
        finally:
            del stack.make_harness
        processes = hosts[0].processes.values()
        assert run.root_payload == 16
        assert sum(p.transport_stats()["forwarded"] for p in processes) > 0
        assert any(p.program is not None and p.program.firing_log for p in processes)


class TestRoundReuse:
    """A stack builds a node's process on the node's first act and arms it
    again on its first act of every later round; at that moment it must
    equal a freshly built one."""

    #: not per-round state: the per-origin backoff hash cache (a pure
    #: function of the node and the origin) and the host's bindings
    KEPT = {"_backoff_states", "sim", "medium", "node_id"}

    @staticmethod
    def fields(proc):
        return [name for cls in type(proc).__mro__ for name in cls.__dict__.get("__slots__", ())]

    def dirty_stacks(self):
        """Stacks whose processes carry every kind of per-round state: a
        lossy healing round with a failover and corrupted frames, and a
        lossy round without healing (which memoizes next hops), both cut
        off with envelopes still in custody and timers armed.  The round
        without healing boots only its 16 leaders, so its budget is those
        boots and 50 events of traffic."""
        spec = VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))
        for healing, max_events in ((True, 1500), (False, 66)):
            stack = deploy(make_deployment(side=4, n_random=100, seed=5))
            plan = plan_chaos(
                sorted(stack.binding.leaders), kills=1, at=0.5, spacing=0.05,
                corrupt_frames=2, seed=3,
            )
            run = stack.run_application(
                spec, loss_rate=0.2, rng=np.random.default_rng(1), reliable=True,
                max_retries=8, wire_format=True, fault_plan=plan if healing else None,
                max_events=max_events,
            )
            assert run.events_processed == max_events, "the round was not cut off"
            assert bool(run.fault_report and run.fault_report.failovers) == healing
            yield stack, spec

    def test_rearmed_process_equals_a_fresh_one(self, monkeypatch):
        """Each dirty stack then runs a round of a shallower program, which
        some processes sit out, and a full round: every process is compared
        with a fresh one as it first acts in a round."""
        dirty, sat_out, in_custody = set(), set(), 0
        join = _Round.join
        current, rounds, joined_in = None, 0, {}

        def checked_join(rnd, nid, program=None):
            nonlocal in_custody, current, rounds
            if rnd is not current:
                current, rounds = rnd, rounds + 1
            proc = rnd.processes.get(nid)
            fresh = _AppProcess(rnd, program)
            per_round = [name for name in self.fields(fresh) if name not in self.KEPT]
            if proc is not None:
                assert not hasattr(proc, "__dict__"), "per-round state outside the slots"
                stale = {
                    name for name in per_round if getattr(proc, name) != getattr(fresh, name)
                }
                dirty.update(stale)
                if joined_in[proc] < rounds - 1:
                    sat_out.update(stale)
                in_custody += bool(proc._pending and proc._armed_timers)
            proc = join(rnd, nid, program)
            joined_in[proc] = rounds
            for name in per_round:
                assert getattr(proc, name) == getattr(fresh, name), f"node {nid}: {name}"
            return proc

        monkeypatch.setattr(_Round, "join", checked_join)
        shallow = VirtualArchitecture(4).synthesize(
            CountAggregation(lambda c: True), max_level=1
        )
        for stack, spec in self.dirty_stacks():
            for round_spec in (shallow, spec):
                stack.run_application(round_spec, reliable=False, max_retries=2)
        # the dirty rounds really exercised the state the re-arm must reset
        assert {
            "_seq", "_pending", "_seen", "_delivered", "_next_hops", "_next_hops_stamp",
            "_last_hb", "_takeover_seen", "_armed_timers", "_timer_stamp", "forwarded",
            "retransmissions", "duplicates_suppressed", "rejected_frames", "program",
            "healing", "fault_report",
        } <= dirty
        # processes that sat a round out carried an older round's state in
        assert {"forwarded", "_seen", "healing"} <= sat_out
        assert in_custody, "no process came back from a cut-off round with custody"

    def test_round_hosts_only_the_processes_that_act(self):
        """Leaders boot; every other node is hosted on its first packet, so
        a round with full batteries hosts the leaders and exactly the nodes
        its ledger charged."""
        net = make_deployment(side=4, n_random=100, seed=5)
        stack = deploy(net)
        spec = VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))
        hosts = []
        build = stack.make_harness

        def capture(*args, **kwargs):
            sim, medium, host = build(*args, **kwargs)
            hosts.append(host)
            return sim, medium, host

        stack.make_harness = capture
        run = stack.run_application(
            spec, loss_rate=0.1, rng=np.random.default_rng(2), reliable=True,
            max_retries=8, wire_format=True,
        )
        assert run.root_payload == 16
        assert all(node.alive for node in net.nodes.values())
        hosted = set(hosts[0].processes)
        assert hosted == set(stack.binding.leaders.values()) | set(run.ledger.per_node())
        assert len(hosted) < len(net.alive_ids())

    def test_round_without_healing_lists_no_alive_nodes(self, monkeypatch):
        """Only a healing round boots every alive node; any other round's
        set-up touches its leaders alone."""
        net = make_deployment(side=4, n_random=100, seed=5)
        stack = deploy(net)
        spec = VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))

        def alive_ids(network):
            raise AssertionError("a round without healing walked the alive nodes")

        monkeypatch.setattr(RealNetwork, "alive_ids", alive_ids)
        run = stack.run_application(
            spec, loss_rate=0.1, rng=np.random.default_rng(2), reliable=True,
            max_retries=8, wire_format=True,
        )
        assert run.root_payload == 16

    def test_member_revived_mid_round_acts_from_its_first_packet(self):
        """A member dead when a healing round starts and restored at
        t = 0.5 is hosted once it hears its leader's heartbeat."""
        net = make_deployment(side=4, n_random=100, seed=5)
        stack = deploy(net)
        spec = VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))
        leader = stack.binding.leaders[(0, 0)]
        member = next(nid for nid in net.neighbors(leader) if net.cell_of(nid) == (0, 0))
        net.node(member).kill()
        hosts = []
        build = stack.make_harness

        def capture(*args, **kwargs):
            sim, medium, host = build(*args, **kwargs)
            hosts.append(host)
            return sim, medium, host

        stack.make_harness = capture
        run = stack.run_application(
            spec, fault_plan=FaultPlan((FaultEvent(time=0.5, action="restore", node=member),)),
        )
        assert run.root_payload == 16
        assert net.node(member).alive
        assert member in hosts[0].processes

    def test_processes_are_built_once_and_unbound_between_rounds(self, stack4):
        _, stack = stack4
        spec = VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))
        first = stack.run_application(spec, reliable=True, wire_format=True)
        kept = dict(stack._processes)
        second = stack.run_application(spec, reliable=True, wire_format=True)
        assert first.fingerprint() == second.fingerprint()
        assert stack._processes == kept
        assert all(a is b for a, b in zip(kept.values(), stack._processes.values()))
        for proc in kept.values():
            assert not hasattr(proc, "sim") and not hasattr(proc, "medium")

    def test_rounds_share_rules_not_state(self):
        """A leader's programs of two rounds run the spec's one rule set
        over two fresh states."""
        stack = deploy(make_deployment(side=4, n_random=100, seed=5))
        spec = VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))
        leader = stack.binding.leaders[(0, 0)]
        programs = []
        for _ in range(2):
            assert stack.run_application(spec).root_payload == 16
            programs.append(stack._processes[leader].program)
        first, second = programs
        assert all(r is s for r, s in zip(first.rules, second.rules))
        assert all(r is s for r, s in zip(first.rules, spec.program_for((3, 3)).rules))
        assert first.state is not second.state
        for key in ("mySubGraph", "msgsReceived", "sendersMerged", "ownMerged"):
            assert first.state[key] is not second.state[key], key

    def test_only_a_healing_round_tracks_takeovers(self):
        stack = deploy(make_deployment(side=4, n_random=100, seed=5))
        spec = VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))
        hosts = []
        build = stack.make_harness

        def capture(*args, **kwargs):
            sim, medium, host = build(*args, **kwargs)
            hosts.append(host)
            return sim, medium, host

        stack.make_harness = capture
        for healing in (None, HealingConfig(), None):
            assert stack.run_application(spec, healing=healing).root_payload == 16
            for proc in hosts[-1].processes.values():
                assert (proc._takeover_seen is None) == (healing is None)


class TestRoundFootprint:
    """A deployed world leaves the collector no function, closure cell,
    bound method or rule per node or per round."""

    @staticmethod
    def added_by_world(side):
        kinds = ("function", "cell", "method", "Rule")
        gc.collect()
        before = Counter(type(o).__name__ for o in gc.get_objects())
        stack = deploy(covered_deployment(side, 7 * side * side, 11))
        spec = VirtualArchitecture(side).synthesize(CountAggregation(lambda c: True))
        for i in range(2):
            run = stack.run_application(
                spec, loss_rate=0.05, rng=np.random.default_rng([11, i]),
                reliable=True, max_retries=8, wire_format=True,
            )
            assert run.root_payload == side * side
        gc.collect()
        after = Counter(type(o).__name__ for o in gc.get_objects())
        return {kind: after[kind] - before[kind] for kind in kinds}

    def test_world_adds_the_same_functions_at_every_side(self):
        self.added_by_world(4)  # first use: lazy imports and module caches
        assert self.added_by_world(8) == self.added_by_world(16)


class TestNextHopMemo:
    """With healing off, a transport answers a destination cell it has
    forwarded toward from memory; a kill or a revival of the remembered
    hop must still reach the very next envelope."""

    @staticmethod
    def hosted(stack, delivered, dropped, **kwargs):
        """A started harness with a recording transport on every alive
        node, logging into ``delivered`` and ``dropped``."""
        sim, _medium, host = stack.make_harness()
        for nid in stack.network.alive_ids():
            host.add(
                nid,
                RecordingTransport(delivered, dropped, stack.topology, stack.binding, **kwargs),
            )
        host.start()
        return sim, host

    @pytest.mark.parametrize("reliable", [False, True], ids=["unreliable", "reliable"])
    def test_killed_hop_drops_and_revived_hop_forwards(self, reliable):
        net = make_deployment(side=4, seed=9)
        stack = deploy(net)
        delivered_log, dropped_log = [], []
        sim, host = self.hosted(stack, delivered_log, dropped_log, reliable=reliable)

        def delivered():
            return [env.inner for _, env in delivered_log]

        def dropped():
            return [(nid, env.inner, reason) for nid, env, reason in dropped_log]

        dst = (3, 0)
        path = trace_route(stack.topology, stack.binding, (0, 0), dst)
        origin, hop = host.get(path[0]), path[1]
        assert len(path) > 3

        def send(inner):
            origin.originate(dst, inner)
            sim.run_until_quiet()

        send("first")
        send("memoized")
        assert delivered() == ["first", "memoized"]
        assert host.get(hop).forwarded == 2
        net.node(hop).kill()
        send("killed")
        assert dropped() == [(origin.node_id, "killed", f"next hop {hop} dead")]
        assert (origin.forwarded, origin.drops) == (2, 1)
        net.node(hop).revive()
        send("revived")
        assert delivered() == ["first", "memoized", "revived"]
        assert (origin.forwarded, origin.drops) == (3, 1)
        assert host.get(hop).forwarded == 3

    def test_failover_on_a_shared_stack_reaches_the_memo(self):
        """A healing round on the same stack fails a dead leader's cell
        over without moving the liveness generation; a memo filled after
        the kill must not outlive the rewritten gradient.  A short radio
        range makes the cell's gradient several hops deep, so the takeover
        flood changes the pointers of relays that memoized the old ones."""
        net = make_deployment(side=4, n_random=500, seed=5, range_cells=0.5)
        stack = deploy(net)
        delivered_log, dropped_log = [], []
        sim, host = self.hosted(stack, delivered_log, dropped_log)
        src, dst = (0, 0), (0, 3)
        old = stack.binding.leader_of(dst)
        net.node(old).kill()
        origin = host.get(stack.binding.leader_of(src))
        origin.originate(dst, "before")
        sim.run_until_quiet()
        assert [reason for _, _, reason in dropped_log] == [f"next hop {old} dead"]
        assert not delivered_log
        spec = VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True))
        stack.run_application(spec, healing=HealingConfig())
        new = stack.binding.leader_of(dst)
        assert new != old
        origin.originate(dst, "after")
        sim.run_until_quiet()
        path = trace_route(stack.topology, stack.binding, src, dst)
        assert [(nid, env.hops) for nid, env in delivered_log] == [(new, len(path) - 1)]
