"""Codec layer tests: golden bytes, split streams, legacy equivalence.

The golden vectors pin the wire formats byte-for-byte (a codec change
that alters them is a protocol break, not a refactor).  The split-offset
and random-chunking tests prove the incremental contract: however a
stream is sliced, the decoded request/response sequence is identical to
the one-shot decode.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.proto import CODECS, LegacyKvCodec, MemcachedCodec, RespCodec
from repro.apps.proto.codec import (ST_COUNT, ST_ERROR, ST_MISS, ST_PONG,
                                    ST_STORED, ST_VALUE, CodecError, Request,
                                    Response)

# Shared test scripts: every codec must round-trip the ops it supports.
KV_REQUESTS = [
    Request(op="set", key=b"alpha", value=b"0123456789"),
    Request(op="get", key=b"alpha"),
    Request(op="get", key=b"missing"),
    Request(op="delete", key=b"alpha"),
]
KV_RESPONSES = [
    Response(status=ST_STORED, op="set"),
    Response(status=ST_VALUE, value=b"0123456789", op="get"),
    Response(status=ST_MISS, op="get"),
    Response(status=ST_COUNT, count=1, op="delete"),
]


def one_shot_requests(codec_cls, wire):
    return codec_cls().feed(wire)


class TestRespGoldenBytes:
    def test_encode_request_get(self):
        wire = RespCodec().encode_request(Request(op="get", key=b"k1"))
        assert wire == b"*2\r\n$3\r\nGET\r\n$2\r\nk1\r\n"

    def test_encode_request_set(self):
        wire = RespCodec().encode_request(
            Request(op="set", key=b"k", value=b"vv"))
        assert wire == b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\nvv\r\n"

    def test_encode_request_set_with_ttl(self):
        wire = RespCodec().encode_request(
            Request(op="set", key=b"k", value=b"v", ttl_ms=1500))
        assert wire == (b"*5\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"
                        b"$2\r\nPX\r\n$4\r\n1500\r\n")

    def test_encode_request_delete_multi(self):
        wire = RespCodec().encode_request(
            Request(op="delete", key=b"a",
                    pairs=((b"a", b""), (b"b", b""))))
        assert wire == b"*3\r\n$3\r\nDEL\r\n$1\r\na\r\n$1\r\nb\r\n"

    def test_encode_request_ping(self):
        assert RespCodec().encode_request(Request(op="ping")) \
            == b"*1\r\n$4\r\nPING\r\n"

    def test_encode_responses(self):
        codec = RespCodec()
        assert codec.encode(Response(status=ST_STORED)) == b"+OK\r\n"
        assert codec.encode(Response(status=ST_PONG)) == b"+PONG\r\n"
        assert codec.encode(Response(status=ST_VALUE, value=b"hello")) \
            == b"$5\r\nhello\r\n"
        assert codec.encode(Response(status=ST_MISS)) == b"$-1\r\n"
        assert codec.encode(Response(status=ST_COUNT, count=2)) == b":2\r\n"
        assert codec.encode(Response(status=ST_ERROR, message="boom")) \
            == b"-ERR boom\r\n"

    def test_decode_set_px_keeps_milliseconds(self):
        request = Request(op="set", key=b"k", value=b"v", ttl_ms=1500)
        [decoded] = RespCodec().feed(RespCodec().encode_request(request))
        assert decoded == request

    def test_decode_set_ex_is_seconds(self):
        [decoded] = RespCodec().feed(b"*5\r\n$3\r\nSET\r\n$1\r\nk\r\n"
                                     b"$1\r\nv\r\n$2\r\nex\r\n$1\r\n2\r\n")
        assert (decoded.op, decoded.ttl_ms) == ("set", 2000)

    @pytest.mark.parametrize("unit,amount", [(b"XX", b"5"), (b"PX", b"-5")],
                             ids=["unknown-unit", "negative"])
    def test_decode_set_bad_expiry_is_invalid(self, unit, amount):
        wire = (b"*5\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"
                b"$%d\r\n%s\r\n$%d\r\n%s\r\n"
                % (len(unit), unit, len(amount), amount))
        wire += RespCodec().encode_request(Request(op="ping"))
        # A bad expiry is the request's error, not a desync of the stream.
        bad, ping = RespCodec().feed(wire)
        assert (bad.op, bad.error) == ("invalid", "syntax error")
        assert ping.op == "ping"

    def test_decode_request_case_insensitive(self):
        reqs = RespCodec().feed(b"*2\r\n$3\r\ngEt\r\n$1\r\nk\r\n")
        assert len(reqs) == 1 and reqs[0].op == "get"

    def test_unknown_command_is_invalid_not_desync(self):
        reqs = RespCodec().feed(b"*1\r\n$5\r\nBLPOP\r\n")
        assert reqs[0].op == "invalid"
        assert "unknown command" in reqs[0].error

    def test_arity_error_is_invalid(self):
        reqs = RespCodec().feed(b"*1\r\n$3\r\nGET\r\n")
        assert reqs[0].op == "invalid"

    def test_non_array_opener_raises(self):
        with pytest.raises(CodecError):
            RespCodec().feed(b"PING\r\n")

    def test_overlong_line_raises(self):
        with pytest.raises(CodecError):
            RespCodec().feed(b"*" + b"9" * 100)

    def test_pipelined_batch_decodes_in_order(self):
        wire = (b"*1\r\n$4\r\nPING\r\n"
                b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
                b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n")
        assert [r.op for r in RespCodec().feed(wire)] \
            == ["ping", "get", "set"]


class TestMemcachedGoldenBytes:
    HEADER = struct.Struct("!BBHBBHIIQ")

    def test_get_request_header(self):
        wire = MemcachedCodec().encode_request(
            Request(op="get", key=b"k1", opaque=9))
        magic, opcode, klen, xlen, _dt, status, blen, opaque, cas = \
            self.HEADER.unpack(wire[:24])
        assert (magic, opcode, klen, xlen, status, blen, opaque, cas) \
            == (0x80, 0x00, 2, 0, 0, 2, 9, 0)
        assert wire[24:] == b"k1"

    def test_set_request_carries_flags_and_expiry(self):
        wire = MemcachedCodec().encode_request(
            Request(op="set", key=b"k", value=b"vv", ttl_ms=2000))
        magic, opcode, klen, xlen, _dt, _st, blen, _op, _cas = \
            self.HEADER.unpack(wire[:24])
        assert (magic, opcode, klen, xlen, blen) == (0x80, 0x01, 1, 8, 11)
        flags, expiry_s = struct.unpack("!II", wire[24:32])
        assert (flags, expiry_s) == (0, 2)
        assert wire[32:] == b"kvv"

    def test_ttl_rounds_up_to_seconds(self):
        wire = MemcachedCodec().encode_request(
            Request(op="set", key=b"k", value=b"v", ttl_ms=1))
        (_f, expiry_s) = struct.unpack("!II", wire[24:32])
        assert expiry_s == 1  # never silently immortal

    def test_get_hit_response(self):
        wire = MemcachedCodec().encode(
            Response(status=ST_VALUE, value=b"vv", op="get", opaque=3,
                     cas=17))
        magic, opcode, klen, xlen, _dt, status, blen, opaque, cas = \
            self.HEADER.unpack(wire[:24])
        assert (magic, opcode, status, opaque, cas) == (0x81, 0x00, 0, 3, 17)
        assert (klen, xlen, blen) == (0, 4, 6)
        assert wire[28:] == b"vv"

    def test_miss_response_is_not_found(self):
        wire = MemcachedCodec().encode(Response(status=ST_MISS, op="get"))
        (_m, _o, _k, _x, _d, status, _b, _op, _c) = \
            self.HEADER.unpack(wire[:24])
        assert status == 0x0001
        assert wire[24:] == b"Not found"

    def test_unknown_opcode_decodes_as_invalid_with_opaque(self):
        wire = self.HEADER.pack(0x80, 0x1C, 0, 0, 0, 0, 0, 77, 0)
        reqs = MemcachedCodec().feed(wire)
        assert reqs[0].op == "invalid"
        assert reqs[0].opaque == 77

    def test_bad_magic_raises(self):
        wire = self.HEADER.pack(0x42, 0x00, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(CodecError):
            MemcachedCodec().feed(wire)

    def test_header_exceeding_body_raises(self):
        wire = self.HEADER.pack(0x80, 0x00, 8, 0, 0, 0, 2, 0, 0) + b"xx"
        with pytest.raises(CodecError):
            MemcachedCodec().feed(wire)

    def test_opaque_round_trips_through_both_directions(self):
        codec = MemcachedCodec()
        wire = codec.encode_request(Request(op="get", key=b"k", opaque=41))
        req = MemcachedCodec().feed(wire)[0]
        assert req.opaque == 41
        reply = codec.encode(Response(status=ST_MISS, op="get",
                                      opaque=req.opaque))
        assert MemcachedCodec().feed_responses(reply)[0].opaque == 41


class TestLegacyGoldenBytes:
    """The two original binary formats, pinned byte for byte."""

    def test_kv_requests(self):
        codec = LegacyKvCodec()
        assert codec.encode_request(Request(op="get", key=b"mykey")) \
            == struct.pack("!BH", ord("G"), 5) + b"mykey"
        assert codec.encode_request(
            Request(op="set", key=b"k", value=b"v" * 33)) \
            == (struct.pack("!BH", ord("P"), 1) + b"k"
                + struct.pack("!I", 33) + b"v" * 33)

    def test_kv_responses(self):
        codec = LegacyKvCodec()
        assert codec.encode(Response(status=ST_VALUE, value=b"abc")) \
            == struct.pack("!BI", ord("K"), 3) + b"abc"
        assert codec.encode(Response(status=ST_STORED)) \
            == struct.pack("!BI", ord("K"), 0)
        assert codec.encode(Response(status=ST_MISS)) == b"N"
        assert codec.value_header(3) + b"abc" \
            == codec.encode(Response(status=ST_VALUE, value=b"abc"))

    def test_decode_message_is_one_whole_request(self):
        req = LegacyKvCodec.decode_message(
            LegacyKvCodec().encode_request(Request(op="get", key=b"a")))
        assert (req.op, req.key) == ("get", b"a")
        req = LegacyKvCodec.decode_message(LegacyKvCodec().encode_request(
            Request(op="set", key=b"a", value=b"xyz")))
        assert (req.op, req.key, req.value) == ("set", b"a", b"xyz")

    def test_decode_message_rejects_truncation(self):
        # The old parser silently stored a truncated value here.
        whole = LegacyKvCodec().encode_request(
            Request(op="set", key=b"key", value=b"0123456789"))
        for cut in range(len(whole)):
            with pytest.raises(CodecError):
                LegacyKvCodec.decode_message(whole[:cut])
        with pytest.raises(CodecError):
            LegacyKvCodec.decode_message(whole + whole)  # not *one*

    def test_decode_reply(self):
        ok_wire = LegacyKvCodec().encode(
            Response(status=ST_VALUE, value=b"v"))
        reply = LegacyKvCodec.decode_reply(ok_wire)
        assert (reply.status, reply.value) == (ST_VALUE, b"v")
        assert LegacyKvCodec.decode_reply(b"N").status == ST_MISS
        with pytest.raises(CodecError):
            LegacyKvCodec.decode_reply(ok_wire[:-1])
        with pytest.raises(CodecError):
            LegacyKvCodec.decode_reply(b"M")  # the replica tier's MOVED

    def test_legacy_codecs_reject_inline_errors(self):
        # The legacy format has no error status on the wire.
        with pytest.raises(CodecError):
            LegacyKvCodec().encode(Response(status=ST_ERROR, message="nope"))


def _request_wire(codec_cls):
    codec = codec_cls()
    reqs = [r for r in KV_REQUESTS
            if codec_cls is not LegacyKvCodec or r.op in ("get", "set")]
    return b"".join(codec.encode_request(r) for r in reqs), reqs


def test_registry_is_keyed_by_wire_name():
    # Workloads and the load generator look a codec up by its name.
    assert {name: cls.name for name, cls in CODECS.items()} \
        == {"resp": "resp", "memcached": "memcached",
            "legacy-kv": "legacy-kv"}


class TestEverySplitOffset:
    """Splitting the stream at EVERY byte offset decodes identically."""

    @pytest.mark.parametrize("codec_cls", sorted(CODECS.values(),
                                                 key=lambda c: c.name),
                             ids=lambda c: c.name)
    def test_requests_split_anywhere(self, codec_cls):
        wire, _reqs = _request_wire(codec_cls)
        expected = codec_cls().feed(wire)
        assert expected, "script must decode to something"
        for cut in range(1, len(wire)):
            codec = codec_cls()
            got = codec.feed(wire[:cut]) + codec.feed(wire[cut:])
            assert got == expected, "split at %d diverged" % cut
            assert not codec.pending()

    @pytest.mark.parametrize("codec_cls", sorted(CODECS.values(),
                                                 key=lambda c: c.name),
                             ids=lambda c: c.name)
    def test_responses_split_anywhere(self, codec_cls):
        codec = codec_cls()
        encodable = [r for r in KV_RESPONSES
                     if codec_cls is not LegacyKvCodec
                     or r.status in (ST_STORED, ST_VALUE, ST_MISS)]
        wire = b"".join(codec.encode(r) for r in encodable)
        expected = codec_cls().feed_responses(wire)
        for cut in range(1, len(wire)):
            fresh = codec_cls()
            got = (fresh.feed_responses(wire[:cut])
                   + fresh.feed_responses(wire[cut:]))
            assert got == expected, "split at %d diverged" % cut


class TestRandomChunking:
    """Hypothesis: arbitrary chunkings are identity-preserving."""

    @given(st.data(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_request_chunking_identity(self, data, rnd):
        codec_cls = data.draw(st.sampled_from(
            sorted(CODECS.values(), key=lambda c: c.name)))
        wire, _reqs = _request_wire(codec_cls)
        expected = codec_cls().feed(wire)
        codec = codec_cls()
        got = []
        offset = 0
        while offset < len(wire):
            size = rnd.randint(1, len(wire) - offset)
            got.extend(codec.feed(wire[offset:offset + size]))
            offset += size
        assert got == expected
        assert not codec.pending()

    @given(st.data(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_response_chunking_identity(self, data, rnd):
        codec_cls = data.draw(st.sampled_from(
            sorted(CODECS.values(), key=lambda c: c.name)))
        encodable = [r for r in KV_RESPONSES
                     if codec_cls is not LegacyKvCodec
                     or r.status in (ST_STORED, ST_VALUE, ST_MISS)]
        wire = b"".join(codec_cls().encode(r) for r in encodable)
        expected = codec_cls().feed_responses(wire)
        codec = codec_cls()
        got = []
        offset = 0
        while offset < len(wire):
            size = rnd.randint(1, len(wire) - offset)
            got.extend(codec.feed_responses(wire[offset:offset + size]))
            offset += size
        assert got == expected
