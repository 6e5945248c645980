"""Conformance suite for the transport wire format (`repro.runtime.wire`).

Three layers, in increasing integration depth:

1. **Golden vectors** — byte-for-byte frames checked into
   ``tests/data/wire_vectors.json``.  Any encoding change trips these;
   the fix is a *conscious* ``WIRE_VERSION`` bump plus a vector
   regeneration (``python tests/test_runtime_wire.py --regen``), never a
   silent drift.
2. **Properties** (hypothesis) — encode∘decode is the identity for
   arbitrary cells/uids/payloads, and truncated or corrupted buffers
   raise :class:`WireDecodeError` rather than mis-decoding.
3. **Differential** — seeded end-to-end deployed runs (counting app,
   regions aggregation, churn workload, query round) produce identical
   fingerprints and transport stats with ``wire_format`` on and off, in
   process and across sweep shards.
4. **Pass-through forwarding** — relays re-pack only ``hops`` and the CRC
   of the frame they received, the payload codec runs once at the origin
   and once at the delivering leader, and a frame whose body does not
   decode is rejected there rather than at the first relay.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import struct
import subprocess
import sys
import zlib
from collections import defaultdict

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked into the test image
    HAVE_HYPOTHESIS = False

from repro.core import CountAggregation, VirtualArchitecture
from repro.core.program import Message
from repro.runtime import deploy, wire
from repro.runtime.routing import TRANSPORT_KIND, TransportEnvelope, TransportProcess
from repro.serve import QueryEngine, ServeConfig
from repro.simulator import ProcessHost, Simulator, WirelessMedium

from conftest import RecordingTransport, make_deployment

VECTORS_PATH = os.path.join(os.path.dirname(__file__), "data", "wire_vectors.json")

BUMP_HINT = (
    "the wire encoding changed: if intentional, bump WIRE_VERSION in "
    "src/repro/runtime/wire.py and regenerate the golden vectors with "
    "`python tests/test_runtime_wire.py --regen`"
)


# ---------------------------------------------------------------------------
# golden vectors
# ---------------------------------------------------------------------------

#: The canonical conformance cases.  Only payloads with order-stable,
#: version-independent encodings belong here (no pickle fallback).
def vector_cases():
    return [
        (
            "minimal-no-uid",
            TransportEnvelope(src_cell=(0, 0), dst_cell=(0, 0), inner=None),
        ),
        (
            "scalar-with-uid",
            TransportEnvelope(
                src_cell=(1, 2), dst_cell=(3, 0), inner=7,
                size_units=1.0, hops=2, uid=(7, 42),
            ),
        ),
        (
            "query-request-tuple",
            TransportEnvelope(
                src_cell=(5, 5), dst_cell=(0, 7), inner=("qreq", (5, 5)),
                size_units=1.0, hops=0, uid=(12, 0),
            ),
        ),
        (
            "unicode-string",
            TransportEnvelope(
                src_cell=(0, 1), dst_cell=(1, 0), inner="héllo ✓ wire",
                size_units=2.5,
            ),
        ),
        (
            "big-int-and-negative",
            TransportEnvelope(
                src_cell=(0, 0), dst_cell=(15, 15),
                inner=[2**80, -3, 0, -(2**70)],
            ),
        ),
        (
            "nested-structures",
            TransportEnvelope(
                src_cell=(8, 8), dst_cell=(9, 9),
                inner={"areas": [1, 2, 3], "meta": (True, False, None),
                       "tags": {"a", "b"}, "raw": b"\x00\xff"},
                size_units=4.0, hops=11, uid=(3, 2**40),
            ),
        ),
        (
            "extreme-header-fields",
            TransportEnvelope(
                src_cell=(65535, 0), dst_cell=(0, 65535), inner=0.125,
                size_units=1e-9, hops=65535, uid=(2**32 - 1, 2**64 - 1),
            ),
        ),
        (
            "message-mgraph",
            TransportEnvelope(
                src_cell=(2, 2), dst_cell=(0, 0),
                inner=Message(
                    kind="mGraph", sender=(2, 2), payload=4,
                    level=1, size_units=1.0,
                ),
                size_units=1.0, hops=3, uid=(17, 5),
            ),
        ),
        (
            "message-nested-payload",
            TransportEnvelope(
                src_cell=(0, 3), dst_cell=(3, 3),
                inner=Message(
                    kind="summary", sender=(0, 3),
                    payload={"count": 12, "areas": (4.5, 7.0)},
                    level=2, size_units=3.25,
                ),
            ),
        ),
        ("ack-small", (5, 9)),
        ("ack-extreme", (2**32 - 1, 2**64 - 1)),
    ]


def _encode_case(obj):
    if isinstance(obj, TransportEnvelope):
        return wire.encode_envelope(obj)
    return wire.encode_ack(obj)


def _case_to_json(name, obj):
    if isinstance(obj, TransportEnvelope):
        doc = {
            "name": name,
            "kind": "envelope",
            "src_cell": list(obj.src_cell),
            "dst_cell": list(obj.dst_cell),
            "hops": obj.hops,
            "size_units": obj.size_units,
            "uid": list(obj.uid) if obj.uid else None,
        }
        if isinstance(obj.inner, Message):
            doc["message"] = {
                "kind": obj.inner.kind,
                "sender": list(obj.inner.sender),
                "payload": repr(obj.inner.payload),
                "level": obj.inner.level,
                "size_units": obj.inner.size_units,
            }
        else:
            doc["inner"] = repr(obj.inner)
    else:
        doc = {"name": name, "kind": "ack", "uid": list(obj)}
    doc["hex"] = _encode_case(obj).hex()
    return doc


def _case_from_json(doc):
    if doc["kind"] == "ack":
        return tuple(doc["uid"])
    if "message" in doc:
        m = doc["message"]
        inner = Message(
            kind=m["kind"],
            sender=tuple(m["sender"]),
            payload=ast.literal_eval(m["payload"]),
            level=m["level"],
            size_units=m["size_units"],
        )
    else:
        inner = ast.literal_eval(doc["inner"])
    return TransportEnvelope(
        src_cell=tuple(doc["src_cell"]),
        dst_cell=tuple(doc["dst_cell"]),
        inner=inner,
        size_units=doc["size_units"],
        hops=doc["hops"],
        uid=tuple(doc["uid"]) if doc["uid"] else None,
    )


def regenerate_vectors() -> None:
    doc = {
        "wire_version": wire.WIRE_VERSION,
        "comment": "Golden conformance vectors; regenerate only alongside "
        "a conscious WIRE_VERSION bump "
        "(python tests/test_runtime_wire.py --regen).",
        "vectors": [_case_to_json(name, obj) for name, obj in vector_cases()],
    }
    with open(VECTORS_PATH, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_vectors():
    # Tolerate a missing file at import time so `--regen` can bootstrap;
    # the coverage tests below fail loudly if the vectors are absent.
    if not os.path.exists(VECTORS_PATH):
        return {"wire_version": None, "vectors": []}
    with open(VECTORS_PATH) as fh:
        return json.load(fh)


class TestGoldenVectors:
    def test_vectors_match_wire_version(self):
        assert load_vectors()["wire_version"] == wire.WIRE_VERSION, BUMP_HINT

    def test_every_case_has_a_committed_vector(self):
        committed = {v["name"] for v in load_vectors()["vectors"]}
        expected = {name for name, _ in vector_cases()}
        assert committed == expected, (
            f"vector cases and committed vectors diverged "
            f"(missing: {sorted(expected - committed)}, "
            f"stale: {sorted(committed - expected)}); {BUMP_HINT}"
        )

    @pytest.mark.parametrize(
        "doc", load_vectors()["vectors"], ids=lambda d: d["name"]
    )
    def test_encode_is_byte_stable(self, doc):
        obj = _case_from_json(doc)
        got = _encode_case(obj).hex()
        assert got == doc["hex"], (
            f"golden vector {doc['name']!r} no longer encodes to its "
            f"committed bytes; {BUMP_HINT}"
        )

    @pytest.mark.parametrize(
        "doc", load_vectors()["vectors"], ids=lambda d: d["name"]
    )
    def test_committed_bytes_decode_to_the_object(self, doc):
        expected = _case_from_json(doc)
        raw = bytes.fromhex(doc["hex"])
        if doc["kind"] == "ack":
            assert wire.decode_ack(raw) == expected, BUMP_HINT
        else:
            decoded = wire.decode_envelope(raw)
            assert decoded == expected, BUMP_HINT
            # round-trip through re-encode pins types, not just equality
            assert wire.encode_envelope(decoded).hex() == doc["hex"], BUMP_HINT


# ---------------------------------------------------------------------------
# decode hardening (deterministic)
# ---------------------------------------------------------------------------


class TestDecodeHardening:
    def frame(self):
        return wire.encode_envelope(
            TransportEnvelope((1, 2), (3, 4), inner=("x", 9), uid=(5, 6))
        )

    def test_every_truncation_raises(self):
        frame = self.frame()
        for cut in range(len(frame)):
            with pytest.raises(wire.WireDecodeError):
                wire.decode_envelope(frame[:cut])

    def test_every_single_byte_corruption_raises(self):
        frame = self.frame()
        for i in range(len(frame)):
            corrupt = bytearray(frame)
            corrupt[i] ^= 0x41
            with pytest.raises(wire.WireDecodeError):
                wire.decode_envelope(bytes(corrupt))

    def test_trailing_garbage_raises(self):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_envelope(self.frame() + b"\x00")

    def test_unknown_version_raises_with_both_versions(self):
        frame = bytearray(self.frame())
        frame[2] = wire.WIRE_VERSION + 1
        with pytest.raises(wire.WireDecodeError, match="version"):
            wire.decode_envelope(bytes(frame))

    def test_bad_magic_raises(self):
        frame = bytearray(self.frame())
        frame[0:2] = b"ZZ"
        with pytest.raises(wire.WireDecodeError, match="magic"):
            wire.decode_envelope(bytes(frame))

    def test_ack_and_envelope_are_not_confusable(self):
        ack = wire.encode_ack((1, 2))
        env = self.frame()
        with pytest.raises(wire.WireDecodeError):
            wire.decode_envelope(ack)
        with pytest.raises(wire.WireDecodeError):
            wire.decode_ack(env)

    def test_non_bytes_input_raises(self):
        with pytest.raises(wire.WireDecodeError):
            wire.decode_envelope("not bytes")  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "body",
        [
            bytes([0x09, 1, 0x08, 0, 0x00]),  # {[]: None}
            bytes([0x0A, 1, 0x08, 0]),  # {[]}
            bytes([0x07, 1] * 3000 + [0x00]),  # 3000 nested 1-tuples
        ],
        ids=["unhashable-key", "unhashable-element", "deep-nesting"],
    )
    def test_crc_valid_body_that_is_no_value_raises_decode_error(self, body):
        """Such a frame passes every header check; the payload decode must
        still raise WireDecodeError, which the transport counts, and never
        another error, which would stop the simulation."""
        frame = _with_body(self.frame(), body)
        relay = wire.decode_envelope(frame, payload=False)
        with pytest.raises(wire.WireDecodeError):
            wire.decode_envelope(frame)
        with pytest.raises(wire.WireDecodeError):
            relay.inner.decode()
        with pytest.raises(wire.WireDecodeError):
            wire.decode_value(body)

    def test_out_of_range_header_fields_raise_on_encode(self):
        for bad in (
            TransportEnvelope((-1, 0), (0, 0), inner=None),
            TransportEnvelope((0, 0), (70000, 0), inner=None),
            TransportEnvelope((0, 0), (0, 0), inner=None, hops=-1),
            TransportEnvelope((0, 0), (0, 0), inner=None, uid=(-1, 0)),
            TransportEnvelope((0, 0), (0, 0), inner=None, uid=(0, 2**64)),
        ):
            with pytest.raises(wire.WireEncodeError):
                wire.encode_envelope(bad)

    def test_a_field_out_of_range_is_named_on_either_encode_path(self):
        """Exact ints out of range pass the fast path's type check and fail
        its pack; the shared path then names the first bad field."""
        for uid in (None, (1, 2)):
            for env, field in (
                (TransportEnvelope((0, 70000), (0, 0), None, uid=uid), "src cell y"),
                (TransportEnvelope((0, 0), (0, 0), None, hops=2**16, uid=uid), "hops"),
                (TransportEnvelope((0, 0), (0, 0), None, size_units="x", uid=uid), "size_units"),
            ):
                with pytest.raises(wire.WireEncodeError, match=field):
                    wire.encode_envelope(env)
        with pytest.raises(wire.WireEncodeError, match="uid seq"):
            wire.encode_envelope(TransportEnvelope((0, 0), (0, 0), None, uid=(1, -1)))

    def test_fast_and_shared_encode_paths_agree(self):
        """Field values of other types that the shared path accepts (an int
        subclass, an int size, a list uid) encode to the same bytes."""

        class Coordinate(int):
            pass

        env = TransportEnvelope((1, 2), (3, 4), ("x", 9), size_units=2.0, hops=5, uid=(5, 6))
        frame = wire.encode_envelope(env)
        for variant in (
            dataclasses.replace(env, src_cell=(Coordinate(1), 2)),
            dataclasses.replace(env, size_units=2),
            dataclasses.replace(env, uid=[5, 6]),
        ):
            assert wire.encode_envelope(variant) == frame
        assert wire.decode_envelope(frame) == env


class TestAckHardening:
    """``decode_ack`` checks the fixed ack layout in one unpack; whatever
    that check does not accept must still raise, naming the fault."""

    def frame(self):
        return wire.encode_ack((5, 6))

    def test_every_truncation_raises(self):
        frame = self.frame()
        for cut in range(len(frame)):
            with pytest.raises(wire.WireDecodeError):
                wire.decode_ack(frame[:cut])

    def test_every_single_byte_corruption_raises(self):
        frame = self.frame()
        for i in range(len(frame)):
            for flip in (0x01, 0x41, 0xFF):
                corrupt = bytearray(frame)
                corrupt[i] ^= flip
                with pytest.raises(wire.WireDecodeError):
                    wire.decode_ack(bytes(corrupt))

    def test_trailing_garbage_raises(self):
        with pytest.raises(wire.WireDecodeError, match="trailing"):
            wire.decode_ack(_reseal(self.frame() + b"\x00"))
        with pytest.raises(wire.WireDecodeError, match="CRC"):
            wire.decode_ack(self.frame() + b"\x00")

    @pytest.mark.parametrize(
        "at, value", [(0, b"ZZ"), (2, bytes([wire.WIRE_VERSION + 1]))], ids=["magic", "version"]
    )
    def test_bad_lead_raises_what_an_envelope_gets(self, at, value):
        ack, env = bytearray(self.frame()), bytearray(TestDecodeHardening().frame())
        for frame in (ack, env):
            frame[at : at + len(value)] = value
        with pytest.raises(wire.WireDecodeError) as from_ack:
            wire.decode_ack(bytes(ack))
        with pytest.raises(wire.WireDecodeError) as from_envelope:
            wire.decode_envelope(bytes(env))
        assert str(from_ack.value) == str(from_envelope.value)
        assert ("magic" if at == 0 else "version") in str(from_ack.value)

    def test_other_buffers_decode_like_bytes(self):
        frame = self.frame()
        assert wire.decode_ack(bytearray(frame)) == wire.decode_ack(memoryview(frame)) == (5, 6)
        with pytest.raises(wire.WireDecodeError, match="must be bytes"):
            wire.decode_ack(frame.hex())

    def test_a_resealed_ack_with_header_fields_still_decodes(self):
        """The shared validation never required an ack's cells, hops and
        size to be zero; a frame the fast check refuses for that alone
        is still accepted."""
        frame = bytearray(self.frame())
        frame[16:18] = b"\x00\x07"
        assert wire.decode_ack(_reseal(bytes(frame))) == (5, 6)


# ---------------------------------------------------------------------------
# payload registry + fallback
# ---------------------------------------------------------------------------


class _Unregistered:
    """Picklable but unknown to the registry: exercises the fallback."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return type(other) is _Unregistered and other.value == self.value

    def __hash__(self):
        return hash(self.value)


class TestPayloadRegistry:
    def test_unregistered_type_falls_back_to_pickle(self):
        env = TransportEnvelope((0, 0), (1, 1), inner=_Unregistered(13))
        tag, _raw = wire.encode_payload(env.inner)
        assert tag == wire.PAYLOAD_PICKLE
        assert wire.decode_envelope(wire.encode_envelope(env)) == env

    def test_message_with_unencodable_payload_falls_back_whole(self):
        message = Message(kind="k", sender=(0, 0), payload=_Unregistered(4))
        tag, _raw = wire.encode_payload(message)
        assert tag == wire.PAYLOAD_PICKLE
        env = TransportEnvelope((0, 0), (1, 1), inner=message)
        assert wire.decode_envelope(wire.encode_envelope(env)) == env

    def test_unpicklable_payload_raises_encode_error(self):
        with pytest.raises(wire.WireEncodeError):
            wire.encode_payload(lambda: None)

    def test_unknown_payload_tag_raises_on_decode(self):
        for tag in (0x00, 0x10, 0x7E):
            with pytest.raises(wire.WireDecodeError, match="payload tag"):
                wire.decode_payload(tag, b"")


# ---------------------------------------------------------------------------
# properties (hypothesis)
# ---------------------------------------------------------------------------

if HAVE_HYPOTHESIS:
    _scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False)
        | st.text(max_size=24)
        | st.binary(max_size=24)
    )
    _values = st.recursive(
        _scalars,
        lambda children: (
            st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(st.text(max_size=8), children, max_size=4)
            | st.sets(st.integers(), max_size=4)
            | st.frozensets(st.text(max_size=4), max_size=4)
        ),
        max_leaves=12,
    )
    _small_or_any = st.integers(-100, 100) | st.integers()
    _messages = st.builds(
        Message,
        kind=st.text(max_size=12),
        sender=st.tuples(_small_or_any, _small_or_any),
        payload=_values,
        level=_small_or_any,
        size_units=st.floats(allow_nan=False),
    )
    _cells = st.tuples(st.integers(0, 65535), st.integers(0, 65535))
    _envelopes = st.builds(
        TransportEnvelope,
        src_cell=_cells,
        dst_cell=_cells,
        inner=_values | _messages,
        size_units=st.floats(allow_nan=False),
        hops=st.integers(0, 65535),
        uid=st.none() | st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)),
    )


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestRoundTripProperties:
    @given(envelope=_envelopes if HAVE_HYPOTHESIS else st.nothing())
    @settings(max_examples=120, deadline=None)
    def test_encode_decode_is_identity(self, envelope):
        frame = wire.encode_envelope(envelope)
        decoded = wire.decode_envelope(frame)
        assert decoded == envelope
        # byte-identical re-encode pins types (1 vs True, () vs []):
        # different tags would produce different bytes
        assert wire.encode_envelope(decoded) == frame

    @given(
        envelope=_envelopes if HAVE_HYPOTHESIS else st.nothing(),
        cut=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncation_never_misdecodes(self, envelope, cut):
        frame = wire.encode_envelope(envelope)
        with pytest.raises(wire.WireDecodeError):
            wire.decode_envelope(frame[: cut % len(frame)])

    @given(
        envelope=_envelopes if HAVE_HYPOTHESIS else st.nothing(),
        index=st.integers(min_value=0, max_value=10_000),
        flip=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_byte_corruption_never_misdecodes(self, envelope, index, flip):
        frame = bytearray(wire.encode_envelope(envelope))
        frame[index % len(frame)] ^= flip
        with pytest.raises(wire.WireDecodeError):
            wire.decode_envelope(bytes(frame))

    @given(
        uid=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))
        if HAVE_HYPOTHESIS
        else st.nothing()
    )
    @settings(max_examples=40, deadline=None)
    def test_ack_round_trip(self, uid):
        assert wire.decode_ack(wire.encode_ack(uid)) == uid

    @given(
        envelope=_envelopes if HAVE_HYPOTHESIS else st.nothing(),
        body=st.none() | st.binary(max_size=48) if HAVE_HYPOTHESIS else st.nothing(),
    )
    @settings(max_examples=150, deadline=None)
    def test_payload_only_decode_matches_the_full_decode(self, envelope, body):
        """The leader decodes only the payload of the frame it validated on
        receipt.  That must equal the full decode's inner, and raise
        exactly where the full decode does: on a CRC-valid frame whose
        body (``body``, under the frame's own tag) is malformed, too."""
        frame = wire.encode_envelope(envelope)
        if body is not None:
            frame = _with_body(frame, body)
        relay = wire.decode_envelope(frame, payload=False)
        try:
            full = wire.decode_envelope(frame).inner
        except wire.WireDecodeError:
            with pytest.raises(wire.WireDecodeError):
                relay.inner.decode()
        else:
            # byte-equal re-encodings: same types and values, NaN included
            assert wire.encode_payload(relay.inner.decode()) == wire.encode_payload(full)
            if body is None:
                assert full == envelope.inner


# ---------------------------------------------------------------------------
# differential: end-to-end runs with and without the codec
# ---------------------------------------------------------------------------


def _deployed_fingerprint(result, medium_free=False):
    return (
        result.ledger.fingerprint(),
        result.transmissions,
        result.drops,
        result.delivered_envelopes,
        result.latency,
        result.events_processed,
    )


class TestDifferentialConformance:
    @pytest.fixture(scope="class")
    def stack4(self):
        net = make_deployment(side=4, n_random=100, seed=5)
        return net, deploy(net)

    def _count_round(self, stack, wire_format, loss=0.15):
        va = VirtualArchitecture(4)
        spec = va.synthesize(CountAggregation(lambda c: True))
        result = stack.run_application(
            spec,
            loss_rate=loss,
            rng=np.random.default_rng(11),
            reliable=True,
            max_retries=6,
            wire_format=wire_format,
        )
        return result

    def test_counting_round_identical_with_codec(self, stack4):
        _net, stack = stack4
        plain = self._count_round(stack, wire_format=False)
        wired = self._count_round(stack, wire_format=True)
        assert wired.root_payload == plain.root_payload == 16
        assert _deployed_fingerprint(wired) == _deployed_fingerprint(plain)

    def test_regions_aggregation_identical_with_codec(self, stack4):
        """RegionSummary payloads ride the documented pickle fallback; the
        deployed regions round must still be codec-invariant."""
        from repro.apps.regions import feature_matrix_aggregation

        _net, stack = stack4
        rng = np.random.default_rng(3)
        matrix = rng.random((4, 4)) > 0.5
        results = []
        for wire_format in (False, True):
            va = VirtualArchitecture(4)
            spec = va.synthesize(feature_matrix_aggregation(matrix))
            run = stack.run_application(
                spec,
                loss_rate=0.1,
                rng=np.random.default_rng(7),
                reliable=True,
                max_retries=6,
                wire_format=wire_format,
            )
            results.append((run.root_payload, _deployed_fingerprint(run)))
        assert results[0] == results[1]

    def test_query_round_identical_with_codec(self, stack4):
        _net, stack = stack4
        storage = {(0, 0): 3, (3, 3): 4, (0, 3): 5}
        outcomes = []
        for wire_format in (False, True):
            engine = QueryEngine(
                stack,
                storage,
                ServeConfig(
                    loss_rate=0.1,
                    rng=np.random.default_rng(13),
                    reliable=True,
                    wire_format=wire_format,
                    cache=False,
                ),
            )
            res = engine.query((1, 1), reduce_fn=sum)
            outcomes.append(
                (res.value, res.responses, engine.sim.now, engine.medium.ledger.total,
                 engine.medium.stats.transmissions, engine.stats.drops)
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 12

    def test_churn_workload_fingerprint_codec_invariant(self):
        from repro.sweep.workloads import WORKLOADS

        params = {"side": 4, "n_random": 100, "churn": 0.25, "rotate": True}
        plain = WORKLOADS["churn"]({**params, "wire": False}, seed=21)
        wired = WORKLOADS["churn"]({**params, "wire": True}, seed=21)
        assert plain.fingerprint == wired.fingerprint
        assert plain.metrics == wired.metrics

    def test_cross_shard_audit_matches_codec_on_vs_off(self):
        """One sweep, grid wire=[off, on], pinned seed, audit duplicates on
        a different shard: all four fingerprints must be the same digest."""
        from repro.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            name="wire-audit",
            workload="e1",
            grid={"wire": [False, True]},
            fixed={"seed": 9, "side": 4, "n_random": 100},
            audit_duplicates=2,
        )
        records = run_sweep(spec, out_path=None, workers=2, progress=None)
        assert len(records) == 4
        assert all(r["status"] == "ok" for r in records)
        fingerprints = {r["fingerprint"] for r in records}
        assert len(fingerprints) == 1, (
            f"codec-on vs codec-off runs diverged across shards: {records}"
        )
        assert sum(r["audit"] for r in records) == 2


# ---------------------------------------------------------------------------
# pass-through forwarding
# ---------------------------------------------------------------------------


#: header and uid-block sizes of the frame layout documented in wire.py
HEADER_SIZE, UID_SIZE = 26, 12


def _reseal(frame):
    """``frame`` with its CRC field recomputed."""
    frame = bytearray(frame)
    frame[4:8] = bytes(4)
    frame[4:8] = struct.pack("!I", zlib.crc32(frame))
    return bytes(frame)


def _payload_offset(frame):
    """Offset of the payload tag byte (after the uid block, if any)."""
    return HEADER_SIZE + (UID_SIZE if frame[3] & 0x01 else 0)


def _with_body(frame, body):
    """``frame`` with its payload body swapped for ``body`` (its tag kept)
    and a valid CRC: the header checks pass whatever the body holds."""
    at = _payload_offset(frame)
    return _reseal(frame[:at] + struct.pack("!BI", frame[at], len(body)) + body)


def _with_malformed_body(frame):
    """``frame`` with its payload body swapped for a byte no value codec
    accepts, and a valid CRC: the header checks pass, the payload does not
    decode.  (Flipping one byte cannot produce this: CRC32 catches it.)"""
    return _with_body(frame, b"\xff")


def _wire_round(stack, tx_transform=None, loss=0.1):
    """A reliable wire-mode count round; returns (result, host).  With
    ``tx_transform`` every transmitted packet passes through it."""
    built = []
    build = stack.make_harness

    def make_harness(**kwargs):
        sim, medium, host = build(**kwargs)
        medium.tx_transform = tx_transform
        built.append(host)
        return sim, medium, host

    stack.make_harness = make_harness
    try:
        result = stack.run_application(
            VirtualArchitecture(4).synthesize(CountAggregation(lambda c: True)),
            loss_rate=loss,
            rng=np.random.default_rng(4),
            reliable=True,
            max_retries=8,
            wire_format=True,
        )
    finally:
        del stack.make_harness
    return result, built[0]


class TestPassThroughForwarding:
    @pytest.fixture(scope="class")
    def stack4(self):
        return deploy(make_deployment(side=4, n_random=100, seed=5))

    def test_relay_form_validates_like_the_full_decode(self):
        frame = TestDecodeHardening().frame()
        relay = wire.decode_envelope(frame, payload=False)
        assert isinstance(relay.inner, wire.EncodedPayload)
        assert relay.inner.frame == frame
        assert dataclasses.replace(relay, inner=("x", 9)) == wire.decode_envelope(frame)
        for i in range(len(frame)):
            corrupt = bytearray(frame)
            corrupt[i] ^= 0x41
            with pytest.raises(wire.WireDecodeError):
                wire.decode_envelope(bytes(corrupt), payload=False)
        for cut in range(len(frame)):
            with pytest.raises(wire.WireDecodeError):
                wire.decode_envelope(frame[:cut], payload=False)

    def test_relay_form_rejects_an_unknown_payload_tag(self):
        frame = bytearray(TestDecodeHardening().frame())
        frame[_payload_offset(frame)] = 0x7E
        with pytest.raises(wire.WireDecodeError, match="payload tag"):
            wire.decode_envelope(_reseal(frame), payload=False)

    def test_malformed_body_passes_the_relay_checks_only(self):
        frame = _with_malformed_body(TestDecodeHardening().frame())
        assert isinstance(
            wire.decode_envelope(frame, payload=False).inner, wire.EncodedPayload
        )
        with pytest.raises(wire.WireDecodeError):
            wire.decode_envelope(frame)

    def test_forwarded_frame_is_the_full_encoding_with_one_more_hop(self):
        env = TransportEnvelope(
            (1, 2), (3, 0), inner=Message("mGraph", (1, 2), payload=5, level=1),
            hops=2, uid=(9, 4),
        )
        frame = wire.encode_envelope(env)
        relay = wire.decode_envelope(frame, payload=False)
        relay.hops += 1
        assert wire.encode_envelope(relay) == wire.encode_envelope(
            dataclasses.replace(env, hops=3)
        )

    def test_every_relay_in_a_round_forwards_the_full_encoding(self, stack4):
        """Each uid's frames, in hop order, are one full encoding re-packed
        hop by hop; retransmissions resend the same bytes."""
        frames = defaultdict(set)

        def record(packet):
            if packet.kind == TRANSPORT_KIND:
                env = wire.decode_envelope(packet.payload)
                frames[env.uid].add((env.hops, packet.payload))
            return packet

        result, host = _wire_round(stack4, record)
        assert result.root_payload == 16
        retransmissions = sum(p.retransmissions for p in host.processes.values())
        assert retransmissions > 0
        relayed = 0
        for sent in frames.values():
            by_hops = dict(sent)
            assert len(by_hops) == len(sent), "a retransmission changed the bytes"
            hops = sorted(by_hops)
            assert hops == list(range(1, len(hops) + 1))
            for h in hops[1:]:
                previous = wire.decode_envelope(by_hops[h - 1])
                assert by_hops[h] == wire.encode_envelope(
                    dataclasses.replace(previous, hops=h)
                )
                relayed += 1
        assert relayed > 0

    def test_payload_codec_runs_at_the_origin_and_the_leader_only(
        self, stack4, monkeypatch
    ):
        calls = {"originate": 0, "encode": 0, "decode": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            TransportProcess, "originate", counted("originate", TransportProcess.originate)
        )
        monkeypatch.setattr(wire, "encode_payload", counted("encode", wire.encode_payload))
        monkeypatch.setattr(wire, "decode_payload", counted("decode", wire.decode_payload))
        result, host = _wire_round(stack4)
        stats = [p.transport_stats() for p in host.processes.values()]
        assert result.root_payload == 16
        assert sum(s["retransmissions"] for s in stats) > 0
        assert sum(s["forwarded"] for s in stats) > calls["originate"]
        assert calls["encode"] == calls["originate"]
        assert calls["decode"] == result.delivered_envelopes

    def test_on_drop_receives_the_decoded_inner(self):
        net = make_deployment(side=4, seed=9)
        stack = deploy(net)
        sim = Simulator()
        medium = WirelessMedium(sim, net, loss_rate=0.4, rng=np.random.default_rng(2))
        host = ProcessHost(sim, medium)
        log = []
        for nid in net.alive_ids():
            host.add(
                nid,
                RecordingTransport(
                    [],
                    log,
                    stack.topology,
                    stack.binding,
                    reliable=True,
                    max_retries=0,
                    wire_format=True,
                ),
            )
        host.start()
        cells = sorted(stack.binding.leaders)
        origins = {}
        for i, src_cell in enumerate(cells):
            origin = stack.binding.leader_of(src_cell)
            origins[f"msg-{i}"] = origin
            sim.schedule(0.1 * i, host.get(origin).originate, cells[-1 - i], f"msg-{i}")
        sim.run_until_quiet()
        dropped = [(nid, env) for nid, env, _ in log]
        assert dropped
        assert all(env.inner in origins for _, env in dropped)
        assert any(nid != origins[env.inner] for nid, env in dropped), "no relay dropped"

    def test_malformed_body_is_forwarded_and_rejected_at_the_leader(
        self, stack4, monkeypatch
    ):
        """The behaviour pass-through forwarding moves: relays forward a
        CRC-valid frame whose payload does not decode, and the delivering
        leader rejects it (DESIGN.md §9)."""
        mangled = {}
        frames = defaultdict(set)

        def mangle(packet):
            if packet.kind != TRANSPORT_KIND:
                return packet
            env = wire.decode_envelope(packet.payload, payload=False)
            far = abs(env.dst_cell[0] - env.src_cell[0]) + abs(env.dst_cell[1] - env.src_cell[1])
            if not mangled and env.hops == 1 and far >= 2:
                mangled["uid"] = env.uid
                packet = dataclasses.replace(packet, payload=_with_malformed_body(packet.payload))
            frames[env.uid].add(env.hops)
            return packet

        delivered = []
        deliver = TransportProcess._deliver_once

        def record(self, envelope):
            delivered.append(envelope.uid)
            return deliver(self, envelope)

        monkeypatch.setattr(TransportProcess, "_deliver_once", record)
        result, host = _wire_round(stack4, mangle, loss=0.0)
        uid = mangled["uid"]
        assert max(frames[uid]) >= 2, "no relay forwarded the malformed frame"
        rejecting = [p for p in host.processes.values() if p.rejected_frames]
        assert result.rejected_frames == 1
        assert len(rejecting) == 1
        assert stack4.binding.is_leader(rejecting[0].node_id)
        assert delivered.count(uid) == 1  # reached the leader's delivery gate
        assert result.delivered_envelopes == len(delivered) - 1
        assert result.exfiltrated == {}  # the lost count never completes the round


class TestImportOrder:
    @pytest.mark.parametrize("first", ["repro.runtime.wire", "repro.runtime.routing"])
    def test_either_module_imports_first(self, first):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = f"import {first}; import repro.runtime.wire, repro.runtime.routing"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate_vectors()
        print(f"wrote {VECTORS_PATH}")
    else:
        sys.exit(pytest.main([__file__, "-v"]))
