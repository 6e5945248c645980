"""The dedup window's eviction, held to the version it replaced.

``TransportProcess._window_mark`` evicts the seqs a new high-water mark
passes over by walking whichever is smaller: the jump range or the set.
:func:`reference_window_mark` is the version it replaced, kept verbatim:
it rebuilds a list over the whole set on every new high-water mark.

Both are driven the way the two call sites drive them: a seq is marked
only when ``_window_seen`` reports it unseen.  ``on_packet`` keys the
forwarding state by ``(origin, previous hop)``; ``_deliver_once`` keys the
delivery state by origin.  The generated streams mix duplicates,
reordering within the window, jumps of a full window or more, and several
keys.  After every step the answers, the high-water marks and the recent
sets must be equal.
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

window_seen = TransportProcess._window_seen


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


@given(window=st.integers(min_value=1, max_value=12), steps=steps)
@example(window=1, steps=[(True, 0, "next", 0)] * 3 + [(True, 0, "back", 1)])
@example(window=4, steps=[(False, 1, "skip", 2), (False, 1, "jump", 0), (False, 1, "back", 3)])
@settings(max_examples=300, deadline=None)
def test_window_mark_matches_the_reference(window, steps):
    stack = shared_stack()
    tp = TransportProcess(
        stack.topology, stack.binding, reliable=True, dedup_window=window
    )
    ref_seen_high, ref_seen_recent = {}, {}
    ref_dlv_high, ref_dlv_recent = {}, {}
    for forward, index, move, magnitude in steps:
        if forward:
            key = FORWARD_KEYS[index]
            high, recent = tp._seen_high, tp._seen_recent
            ref_high, ref_recent = ref_seen_high, ref_seen_recent
        else:
            key = DELIVER_KEYS[index % len(DELIVER_KEYS)]
            high, recent = tp._dlv_high, tp._dlv_recent
            ref_high, ref_recent = ref_dlv_high, ref_dlv_recent
        seq = next_seq(ref_high.get(key, -1), move, magnitude, window)
        answer = window_seen(high, recent, window, key, seq)
        assert answer == window_seen(ref_high, ref_recent, window, key, seq)
        if not answer:
            tp._window_mark(high, recent, window, key, seq)
            reference_window_mark(ref_high, ref_recent, window, key, seq)
        assert tp._seen_high == ref_seen_high
        assert tp._seen_recent == ref_seen_recent
        assert tp._dlv_high == ref_dlv_high
        assert tp._dlv_recent == ref_dlv_recent
