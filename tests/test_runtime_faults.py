"""In-run fault injection and self-healing (``repro.runtime.faults``).

Covers the DESIGN.md §10 contract end to end: plan validation and
serialization, exact-virtual-time injection, the acceptance scenario
(mid-round leader kills under reliable transport still complete the
quad-tree query, with the failovers reported and the fingerprint
byte-reproducible), partition/restore, frame corruption (the
``rejected_frames`` bugfix with a single-byte-flipped golden vector),
graceful degradation without ARQ, and the healing machinery's corner
cases (deposed ex-leaders, route repair).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import CountAggregation, VirtualArchitecture
from repro.core.program import Message
from repro.runtime import (
    FaultEvent,
    FaultPlan,
    FaultReport,
    HealingConfig,
    deploy,
    kill_random_nodes,
    plan_chaos,
)
from repro.runtime import wire
from repro.runtime.routing import TRANSPORT_KIND, TransportEnvelope, TransportProcess
from repro.simulator.network import Packet

from conftest import make_deployment

SIDE = 4


def fresh_stack(seed: int = 7, n_random: int = 140):
    net = make_deployment(side=SIDE, n_random=n_random, seed=seed)
    return net, deploy(net)


def count_spec():
    return VirtualArchitecture(SIDE).synthesize(CountAggregation(lambda c: True))


def run_with_plan(plan, seed=7, loss=0.05, reliable=True, wire_format=False, **kw):
    net, stack = fresh_stack(seed)
    result = stack.run_application(
        count_spec(),
        loss_rate=loss,
        rng=np.random.default_rng(seed + 2),
        reliable=reliable,
        max_retries=8,
        wire_format=wire_format,
        fault_plan=plan,
        **kw,
    )
    return net, stack, result


@functools.cache
def fault_plan(kind: str) -> FaultPlan:
    """One plan per fault kind of the acceptance matrix."""
    if kind == "kill-leaders":
        _, stack = fresh_stack()
        return plan_chaos(
            sorted(stack.binding.leaders), kills=2, at=0.5, spacing=0.05, seed=3
        )
    if kind == "partition-restore":
        return FaultPlan(
            events=(
                FaultEvent(
                    time=0.4, action="partition_links", links=((0, 1), (0, 2), (0, 3))
                ),
                FaultEvent(time=6.0, action="restore"),
            )
        )
    return FaultPlan(events=(FaultEvent(time=0.0, action="corrupt_frame", count=6),))


@functools.cache
def first_round(kind: str, reliable: bool, wire_format: bool):
    """The first seeded round of one matrix cell.  Cached because several
    tests only read the same leader-storm rounds; a determinism check
    compares it against a fresh :func:`run_with_plan` replay."""
    return run_with_plan(fault_plan(kind), reliable=reliable, wire_format=wire_format)


class TestPlanValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultEvent(time=1.0, action="reboot")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time must be >= 0"):
            FaultEvent(time=-0.1, action="kill_node", node=3)

    def test_action_specific_requirements(self):
        with pytest.raises(ValueError, match="kill_node requires"):
            FaultEvent(time=1.0, action="kill_node")
        with pytest.raises(ValueError, match="kill_leader requires"):
            FaultEvent(time=1.0, action="kill_leader")
        with pytest.raises(ValueError, match="partition_links requires"):
            FaultEvent(time=1.0, action="partition_links")
        with pytest.raises(ValueError, match="count must be >= 1"):
            FaultEvent(time=1.0, action="corrupt_frame", count=0)

    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=5.0, action="kill_node", node=1),
                FaultEvent(time=1.0, action="kill_node", node=2),
            )
        )
        assert [e.time for e in plan.events] == [1.0, 5.0]

    def test_dict_roundtrip_preserves_fingerprint(self):
        plan = FaultPlan(
            events=(
                FaultEvent(time=0.5, action="kill_leader", cell=(1, 2)),
                FaultEvent(time=0.4, action="partition_links", links=((3, 4),)),
                FaultEvent(time=0.0, action="corrupt_frame", count=3),
                FaultEvent(time=9.0, action="restore", node=7),
            )
        )
        again = FaultPlan.from_dicts(plan.to_dicts())
        assert again == plan
        assert again.fingerprint() == plan.fingerprint()

    def test_plan_leader_storm_is_seed_deterministic(self):
        """A leader storm (``plan_chaos`` with kills only) draws its
        victims from the seed alone."""
        cells = [(x, y) for x in range(4) for y in range(4)]
        p1 = plan_chaos(cells, kills=3, spacing=0.05, seed=5)
        p2 = plan_chaos(cells, kills=3, spacing=0.05, seed=5)
        assert p1 == p2
        assert p1 != plan_chaos(cells, kills=3, spacing=0.05, seed=6)
        kills = [e for e in p1.events if e.action == "kill_leader"]
        assert [e.time for e in kills] == [0.5, 0.55, 0.6]
        assert len({e.cell for e in kills}) == 3
        with pytest.raises(ValueError, match="cannot kill"):
            plan_chaos(cells[:2], kills=3)


class TestInjection:
    def test_kill_fires_at_exact_virtual_time(self):
        net, stack = fresh_stack()
        victim = stack.binding.leaders[(0, 0)]
        plan = FaultPlan(
            events=(FaultEvent(time=3.25, action="kill_node", node=victim),)
        )
        assert net.node(victim).alive
        result = stack.run_application(
            count_spec(), rng=np.random.default_rng(9),
            reliable=True, max_retries=8, fault_plan=plan,
        )
        assert not net.node(victim).alive
        report = result.fault_report
        assert report is not None
        assert (3.25, "kill_node", victim) in report.injected

    def test_kill_leader_resolves_target_at_fire_time(self):
        net, stack = fresh_stack()
        leader = stack.binding.leaders[(2, 2)]
        plan = FaultPlan(events=(FaultEvent(time=0.5, action="kill_leader", cell=(2, 2)),))
        result = stack.run_application(
            count_spec(), rng=np.random.default_rng(9),
            reliable=True, max_retries=8, fault_plan=plan,
        )
        assert not net.node(leader).alive
        assert (0.5, "kill_leader", ((2, 2), leader)) in result.fault_report.injected


class TestAcceptance:
    """The ISSUE acceptance scenario: >= 2 leader kills mid-round."""

    def run_storm(self, wire_format=False):
        return fault_plan("kill-leaders"), first_round("kill-leaders", True, wire_format)

    def test_query_completes_with_correct_payload_and_failovers(self):
        plan, (net, stack, result) = self.run_storm()
        assert result.root_payload == SIDE * SIDE
        report = result.fault_report
        assert report is not None
        killed = {t for _, a, t in report.injected if a == "kill_leader"}
        assert len(killed) == 2
        # every killed leader's cell failed over to a new alive leader
        failed_cells = {cell for _, cell, _, _ in report.failovers}
        assert {cell for cell, _ in killed} <= failed_cells
        for _, cell, old, new in report.failovers:
            assert new != old
            assert net.node(new).alive
            assert stack.binding.leaders[cell] == new

    def test_fingerprint_reproduces_exactly(self):
        plan, (_, _, r1) = self.run_storm()
        _, _, r2 = run_with_plan(plan)
        assert r1.fingerprint() == r2.fingerprint()
        assert r1.fault_report.fingerprint() == r2.fault_report.fingerprint()

    def test_wire_format_round_also_recovers(self):
        plan, (_, _, result) = self.run_storm(wire_format=True)
        assert result.root_payload == SIDE * SIDE
        assert len(result.fault_report.failovers) >= 2

    def test_successor_is_the_binding_metric_argmin(self):
        from repro.runtime.binding import distance_to_center_metric

        plan, (net, stack, result) = self.run_storm()
        for _, cell, old, new in result.fault_report.failovers:
            members = net.members_of_cell(cell)
            best = min(
                members, key=lambda m: (distance_to_center_metric(net, m), m)
            )
            assert new == best

    def test_successor_follows_a_rotated_binding_metric(self):
        """After ``rotate_leaders`` the leaders were elected by residual
        energy, so a failover must pick that metric's argmin too, not the
        distance-to-centre one a fresh default election would pick."""
        from repro.deployment import covered_deployment
        from repro.runtime import rotate_leaders
        from repro.runtime.binding import (
            distance_to_center_metric,
            residual_energy_metric,
        )

        net = covered_deployment(SIDE, 150, 3)
        deploy(net).run_application(count_spec())  # drain batteries unevenly
        stack = rotate_leaders(net)
        plan = FaultPlan((FaultEvent(time=0.5, action="kill_leader", cell=(1, 1)),))
        result = stack.run_application(
            count_spec(), reliable=True, max_retries=8, fault_plan=plan
        )
        assert result.root_payload == SIDE * SIDE
        [(_, cell, old, new)] = result.fault_report.failovers
        members = net.members_of_cell(cell)
        by_energy = min(members, key=lambda m: (residual_energy_metric(net, m), m))
        by_distance = min(members, key=lambda m: (distance_to_center_metric(net, m), m))
        assert by_energy != by_distance, "the two metrics no longer disagree here"
        assert (cell, old, new) == ((1, 1), 11, by_energy)


class TestFaultMatrix:
    """Every fault kind under reliable on/off and the wire codec on/off,
    over a 5%-lossy channel: the round replays byte-identically and
    carries a fault report, ARQ recovers from leader kills, and corrupted
    frames are rejected rather than raised."""

    @pytest.mark.parametrize("wire_format", [False, True], ids=["plain", "wire"])
    @pytest.mark.parametrize("reliable", [True, False], ids=["reliable", "unreliable"])
    @pytest.mark.parametrize(
        "kind", ["kill-leaders", "partition-restore", "corrupt-frames"]
    )
    def test_replays_identically(self, kind, reliable, wire_format):
        _, _, first = first_round(kind, reliable, wire_format)
        _, _, again = run_with_plan(
            fault_plan(kind), reliable=reliable, wire_format=wire_format
        )
        assert first.fingerprint() == again.fingerprint()
        report = first.fault_report
        assert report is not None
        if kind == "kill-leaders" and reliable:
            assert first.root_payload == SIDE * SIDE
            assert report.failovers
        if kind == "corrupt-frames":
            # a corrupted frame can itself be lost on the channel
            assert 1 <= report.frames_rejected <= report.frames_corrupted


class TestPartition:
    def test_partition_then_restore_completes_reliably(self):
        net, stack = fresh_stack()
        # sever every link of the (0,0) leader, then heal mid-round
        leader = stack.binding.leaders[(0, 0)]
        links = tuple((leader, n) for n in net.neighbors(leader))
        plan = FaultPlan(
            events=(
                FaultEvent(time=0.2, action="partition_links", links=links),
                FaultEvent(time=30.0, action="restore"),
            )
        )
        result = stack.run_application(
            count_spec(), loss_rate=0.0, rng=np.random.default_rng(1),
            reliable=True, max_retries=10, fault_plan=plan,
        )
        assert result.root_payload == SIDE * SIDE
        injected = [a for _, a, _ in result.fault_report.injected]
        assert injected == ["partition_links", "restore"]


class TestFrameCorruption:
    """The satellite bugfix: undecodable frames are counted and dropped."""

    def golden_frame(self):
        envelope = TransportEnvelope(
            src_cell=(0, 0), dst_cell=(3, 3),
            inner=Message(kind="mGraph", sender=(0, 0), payload=2, level=1),
            size_units=1.0, hops=1, uid=(9, 4),
        )
        return wire.encode_envelope(envelope)

    def make_transport(self, **kw):
        net, stack = fresh_stack()
        return TransportProcess(stack.topology, stack.binding, **kw)

    def test_single_byte_flip_is_rejected_not_raised(self):
        frame = self.golden_frame()
        wire.decode_envelope(frame)  # golden vector is valid as-is
        proc = self.make_transport(wire_format=True, reliable=True)
        for i in range(len(frame)):
            flipped = bytearray(frame)
            flipped[i] ^= 0x01
            packet = Packet(src=2, kind=TRANSPORT_KIND, payload=bytes(flipped))
            before = proc.rejected_frames
            # must never propagate WireDecodeError into the event loop
            proc.on_packet(packet)
            assert proc.rejected_frames == before + 1
        assert proc.forwarded == 0 and proc.drops == 0

    def test_truncated_frame_is_rejected(self):
        frame = self.golden_frame()
        proc = self.make_transport(wire_format=True)
        proc.on_packet(Packet(src=2, kind=TRANSPORT_KIND, payload=frame[:5]))
        assert proc.rejected_frames == 1

    def test_corrupted_ack_is_rejected(self):
        from repro.runtime.routing import ACK_KIND

        ack = bytearray(wire.encode_ack((3, 1)))
        ack[0] ^= 0xFF
        proc = self.make_transport(wire_format=True, reliable=True)
        proc.on_packet(Packet(src=2, kind=ACK_KIND, payload=bytes(ack)))
        assert proc.rejected_frames == 1

    def test_corrupted_frame_sentinel_rejected_without_wire(self):
        """Corruption puts bytes on the air in object-passing mode too, and
        the receiver validates them whatever ``wire_format`` says."""
        proc = self.make_transport(wire_format=False)
        frame = bytearray(self.golden_frame())
        frame[-1] ^= 0xFF
        proc.on_packet(Packet(src=2, kind=TRANSPORT_KIND, payload=bytes(frame)))
        assert proc.rejected_frames == 1
        assert proc.forwarded == 0 and proc.drops == 0

    @pytest.mark.parametrize("wire_format", [False, True], ids=["plain", "wire"])
    def test_injected_corruption_counts_match_lossless(self, wire_format):
        plan = FaultPlan(
            events=(FaultEvent(time=0.0, action="corrupt_frame", count=4),)
        )
        _, _, result = run_with_plan(plan, loss=0.0, wire_format=wire_format)
        report = result.fault_report
        # lossless channel: every corrupted frame reaches a receiver and
        # is rejected there, in both codec modes
        assert report.frames_corrupted == 4
        assert report.frames_rejected == 4
        assert result.rejected_frames == 4
        # ARQ retransmits around the corruption: the round still completes
        assert result.root_payload == SIDE * SIDE


class TestDegradation:
    def test_unreliable_round_survives_leader_kill_without_crash(self):
        _, _, result = first_round("kill-leaders", False, False)
        # no ARQ: deliveries into the dead window are lost, but the run
        # terminates cleanly and deterministically
        _, _, again = run_with_plan(fault_plan("kill-leaders"), reliable=False)
        assert result.fingerprint() == again.fingerprint()

    def test_healing_without_plan_keeps_result_identical(self):
        """Arming healing on a fault-free round must not change outcomes
        (heartbeats add traffic but never perturb the application)."""
        _, _, plain = run_with_plan(None, loss=0.0)
        net, stack = fresh_stack()
        healed = stack.run_application(
            count_spec(), loss_rate=0.0, rng=np.random.default_rng(9),
            reliable=True, max_retries=8, healing=HealingConfig(),
        )
        assert healed.root_payload == SIDE * SIDE
        assert healed.fault_report is not None
        assert healed.fault_report.failovers == []


class TestMaintenanceSpare:
    def test_spare_nodes_survive_full_kill(self):
        net = make_deployment(side=SIDE, n_random=80, seed=11)
        spare = net.alive_ids()[::3]
        killed = kill_random_nodes(
            net, fraction=1.0, rng=np.random.default_rng(0), spare=spare
        )
        assert set(killed).isdisjoint(spare)
        for nid in spare:
            assert net.node(nid).alive
        # everything else died
        assert sorted(net.alive_ids()) == sorted(spare)


class TestReportFingerprint:
    def test_report_fingerprint_covers_every_counter(self):
        base = FaultReport().fingerprint()
        for mutate in (
            lambda r: r.injected.append((1.0, "kill_node", 3)),
            lambda r: setattr(r, "detected_failures", 1),
            lambda r: r.failovers.append((1.0, (0, 0), 1, 2)),
            lambda r: setattr(r, "reroutes", 1),
            lambda r: setattr(r, "redirected_retransmissions", 1),
            lambda r: setattr(r, "frames_corrupted", 1),
            lambda r: setattr(r, "frames_rejected", 1),
            lambda r: setattr(r, "orphaned_deliveries", 1),
        ):
            report = FaultReport()
            mutate(report)
            assert report.fingerprint() != base
