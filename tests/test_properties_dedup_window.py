"""The bitmask dedup window, held to the set-based window it replaced.

``TransportProcess._window_hit`` keeps one ``[top, mask]`` state per key
and checks and marks a seq in one step.  The reference model is the
window it replaced, kept here verbatim: a high-water mark plus the set of
seen seqs above ``top - window`` (:func:`window_seen`), where a seq is
marked only when it is unseen and a new high-water mark evicts every seq
at or below ``seq - window`` (:func:`reference_window_mark`).

``on_packet`` keys the forwarding window by ``(origin, previous hop)``;
``_deliver_once`` keys the delivery window by origin.  The generated
streams mix duplicates, reordering within the window, jumps of a full
window or more, and several keys.  After every step the answers must be
equal, and every key's ``(top, mask)`` must decode to exactly the
reference's high-water mark and recent set.
"""

from __future__ import annotations

import functools

import pytest

try:
    from hypothesis import example, given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked into the test image
    HAVE_HYPOTHESIS = False

from repro.runtime import deploy
from repro.runtime.routing import TransportProcess

from conftest import make_deployment

pytestmark = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)

def window_seen(high, recent, window, key, seq):
    top = high.get(key, -1)
    if seq > top:
        return False
    if seq <= top - window:
        return True  # older than the window: assumed already seen
    return seq in recent.get(key, ())


def reference_window_mark(high, recent, window, key, seq):
    seen = recent.setdefault(key, set())
    top = high.get(key, -1)
    if seq > top:
        high[key] = seq
        floor = seq - window
        if seen:
            seen.difference_update([s for s in seen if s <= floor])
    seen.add(seq)


@functools.lru_cache(maxsize=1)
def shared_stack():
    return deploy(make_deployment(side=4, seed=9))


#: forwarding keys are (origin, previous hop); delivery keys are origins
FORWARD_KEYS = ((3, 7), (3, 8), (4, 7))
DELIVER_KEYS = (3, 4)

#: how a step moves away from its key's highest seq so far
MOVES = ("duplicate", "back", "next", "skip", "jump")

steps = st.lists(
    st.tuples(
        st.booleans(),  # True: forwarding state, False: delivery state
        st.integers(min_value=0, max_value=2),  # key index
        st.sampled_from(MOVES),
        st.integers(min_value=0, max_value=40),  # magnitude
    ),
    max_size=150,
)


def next_seq(top: int, move: str, magnitude: int, window: int) -> int:
    if move == "duplicate":
        return max(top, 0)
    if move == "back":  # reordered, up to just past the window's edge
        return max(0, top - magnitude % (window + 2))
    if move == "next":
        return top + 1
    if move == "skip":  # a sparse jump inside the window
        return top + 1 + magnitude % window
    return top + window + magnitude  # a full window or more


def decode(states, window):
    """``[top, mask]`` states as the reference's high-water marks and
    recent sets; a bit the window should have shifted out decodes to a
    seq the reference has evicted."""
    high = {key: top for key, (top, _) in states.items()}
    recent = {
        key: {top - d for d in range(mask.bit_length()) if mask >> d & 1}
        for key, (top, mask) in states.items()
    }
    return high, recent


@given(window=st.integers(min_value=1, max_value=12), steps=steps)
@example(window=1, steps=[(True, 0, "next", 0)] * 3 + [(True, 0, "back", 1)])
@example(window=4, steps=[(False, 1, "skip", 2), (False, 1, "jump", 0), (False, 1, "back", 3)])
@settings(max_examples=300, deadline=None)
def test_window_mark_matches_the_reference(window, steps):
    stack = shared_stack()
    tp = TransportProcess(stack.topology, stack.binding, reliable=True)
    reference = {True: ({}, {}), False: ({}, {})}
    for forward, index, move, magnitude in steps:
        if forward:
            key, states = FORWARD_KEYS[index], tp._seen
        else:
            key, states = DELIVER_KEYS[index % len(DELIVER_KEYS)], tp._delivered
        ref_high, ref_recent = reference[forward]
        seq = next_seq(ref_high.get(key, -1), move, magnitude, window)
        expected = window_seen(ref_high, ref_recent, window, key, seq)
        if not expected:
            reference_window_mark(ref_high, ref_recent, window, key, seq)
        assert tp._window_hit(states, window, key, seq) == expected
        assert decode(tp._seen, window) == reference[True]
        assert decode(tp._delivered, window) == reference[False]
