"""Unit tests for the logical naming service."""

from __future__ import annotations

import pytest

from repro.core.naming import LogicalNamingService, UnknownNameError
from repro.core.primitives import PrimitiveEnvironment


@pytest.fixture
def service(grid4):
    return LogicalNamingService(grid4)


class TestBindings:
    def test_bind_and_resolve(self, service):
        service.bind("west-half", lambda c: c[0] < 2)
        members = service.resolve("west-half")
        assert len(members) == 8
        assert all(c[0] < 2 for c in members)

    def test_bind_region(self, service):
        service.bind_region("nw-block", 0, 0, 2, 2)
        assert sorted(service.resolve("nw-block")) == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_region_validation(self, service):
        with pytest.raises(ValueError):
            service.bind_region("bad", 0, 0, 0, 2)

    def test_empty_name_rejected(self, service):
        with pytest.raises(ValueError):
            service.bind("", lambda c: True)

    def test_unknown_name(self, service):
        with pytest.raises(UnknownNameError):
            service.resolve("ghost")
        with pytest.raises(UnknownNameError):
            service.unbind("ghost")

    def test_rebinding_replaces(self, service):
        service.bind("g", lambda c: True)
        assert service.member_count("g") == 16
        service.bind("g", lambda c: False)
        assert service.member_count("g") == 0

    def test_unbind(self, service):
        service.bind("g", lambda c: True)
        service.unbind("g")
        assert "g" not in service

    def test_names_sorted(self, service):
        service.bind("b", lambda c: True)
        service.bind("a", lambda c: True)
        assert service.names() == ["a", "b"]


class TestDynamicMembership:
    def test_runtime_membership_changes(self, service):
        # the paper's "membership determined at run time": the predicate
        # reads mutable state
        readings = {c: 0.0 for c in service.grid.nodes()}
        service.bind("feature-nodes", lambda c: readings[c] > 0.5)
        assert service.member_count("feature-nodes") == 0
        readings[(1, 1)] = 1.0
        readings[(3, 2)] = 0.9
        assert sorted(service.resolve("feature-nodes")) == [(1, 1), (3, 2)]


class TestLogicalCommunication:
    def test_send_to_group(self, service, grid4):
        env = PrimitiveEnvironment(grid4)
        service.bind_region("east-col", 3, 0, 1, 4)
        report = service.send_to_group(env, (0, 0), "east-col", payload="cmd")
        assert report.messages == 4
        for y in range(4):
            assert env.receive((3, y)).payload == "cmd"

    def test_send_excludes_self(self, service, grid4):
        env = PrimitiveEnvironment(grid4)
        service.bind("all", lambda c: True)
        report = service.send_to_group(env, (1, 1), "all", payload=None)
        assert report.messages == 15

    def test_gather_from_group(self, service, grid4):
        env = PrimitiveEnvironment(grid4)
        service.bind_region("nw", 0, 0, 2, 2)
        values, report = service.gather_from_group(
            env, (0, 0), "nw", value_of=lambda c: c[0] + c[1]
        )
        assert sorted(values) == [0, 1, 1, 2]
        assert report.messages == 3  # collector is a member

    def test_gather_cost_proportional(self, service, grid4):
        env = PrimitiveEnvironment(grid4)
        service.bind("corner", lambda c: c == (3, 3))
        _, report = service.gather_from_group(
            env, (0, 0), "corner", value_of=lambda c: 1
        )
        assert report.energy == 2.0 * 6  # one member at 6 hops
