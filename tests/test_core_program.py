"""Unit tests for repro.core.program: the reactive rule engine."""

from __future__ import annotations

import pytest

from repro.core.program import (
    EXFILTRATE,
    LOG,
    SEND,
    Message,
    NodeProgram,
    Rule,
)


def make_counter_program():
    """Counts deliveries; exfiltrates when count reaches 3."""
    rules = [
        Rule(
            "count",
            condition=lambda ctx: ctx.message is not None,
            action=lambda ctx: ctx.state.__setitem__(
                "count", ctx.state["count"] + 1
            ),
            consumes_message=True,
        ),
        Rule(
            "emit",
            condition=lambda ctx: ctx.state["count"] >= 3 and not ctx.state["done"],
            action=lambda ctx: (
                ctx.state.__setitem__("done", True),
                ctx.exfiltrate(ctx.state["count"]),
            ),
        ),
    ]
    return NodeProgram(rules, {"count": 0, "done": False, "start": False})


class TestRuleEngine:
    def test_deliver_fires_consuming_rule_once(self):
        prog = make_counter_program()
        prog.deliver(Message("m", (0, 0)))
        assert prog.state["count"] == 1
        # the message is consumed; a second evaluation pass must not recount
        prog.settle()
        assert prog.state["count"] == 1

    def test_cascade_within_stimulus(self):
        prog = make_counter_program()
        prog.deliver(Message("m", (0, 0)))
        prog.deliver(Message("m", (0, 0)))
        effects = prog.deliver(Message("m", (0, 0)))
        kinds = [e.kind for e in effects]
        assert EXFILTRATE in kinds
        assert prog.state["done"]

    def test_start_sets_flag(self):
        fired = []
        prog = NodeProgram(
            [
                Rule(
                    "on-start",
                    condition=lambda ctx: ctx.state["start"],
                    action=lambda ctx: (
                        ctx.state.__setitem__("start", False),
                        fired.append(True),
                    ),
                )
            ],
            {"start": False},
        )
        prog.start()
        assert fired == [True]

    def test_rule_priority_is_list_order(self):
        order = []
        rules = [
            Rule(
                "first",
                condition=lambda ctx: not ctx.state.get("a"),
                action=lambda ctx: (ctx.state.__setitem__("a", True), order.append("first")),
            ),
            Rule(
                "second",
                condition=lambda ctx: not ctx.state.get("b"),
                action=lambda ctx: (ctx.state.__setitem__("b", True), order.append("second")),
            ),
        ]
        NodeProgram(rules, {"start": False}).settle()
        assert order == ["first", "second"]

    def test_runaway_rules_detected(self):
        prog = NodeProgram(
            [Rule("loop", condition=lambda ctx: True, action=lambda ctx: None)],
            {},
            max_firings=100,
        )
        with pytest.raises(RuntimeError, match="exceeded"):
            prog.settle()

    def test_firing_log(self):
        prog = make_counter_program()
        prog.deliver(Message("m", (0, 0)))
        assert prog.firing_log == ["count"]

    def test_snapshot_is_copy(self):
        prog = make_counter_program()
        snap = prog.snapshot()
        snap["count"] = 99
        assert prog.state["count"] == 0


class TestEffects:
    def test_send_effect(self):
        def act(ctx):
            ctx.send((1, 1), Message("m", (0, 0), payload="hi", size_units=2.0))

        prog = NodeProgram(
            [Rule("sender", condition=lambda ctx: ctx.state["start"], action=lambda ctx: (
                ctx.state.__setitem__("start", False), act(ctx)))],
            {"start": False},
        )
        effects = prog.start()
        assert len(effects) == 1
        assert effects[0].kind == SEND
        assert effects[0].destination == (1, 1)
        assert effects[0].message.size_units == 2.0

    def test_log_and_charge(self):
        def act(ctx):
            ctx.state["start"] = False
            ctx.log("note")
            ctx.charge(5.0)

        prog = NodeProgram(
            [Rule("r", condition=lambda ctx: ctx.state["start"], action=act)],
            {"start": False},
        )
        effects = prog.start()
        assert [e.kind for e in effects] == [LOG, LOG]
        assert sum(e.operations for e in effects) == 5.0

    def test_message_defaults(self):
        m = Message("mGraph", (2, 3))
        assert m.payload is None
        assert m.level == 0
        assert m.size_units == 1.0
