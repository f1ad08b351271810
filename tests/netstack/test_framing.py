"""Tests for length-prefix framing and partial-inspection accounting."""

import pytest

from repro.netstack.framing import Deframer, FramingError, frame_message


def test_frame_roundtrip_single_feed():
    d = Deframer()
    assert d.feed(frame_message(b"atomic-unit")) == [b"atomic-unit"]


def test_multiple_messages_one_chunk():
    d = Deframer()
    chunk = frame_message(b"one") + frame_message(b"two") + frame_message(b"three")
    assert d.feed(chunk) == [b"one", b"two", b"three"]


def test_message_split_across_chunks():
    d = Deframer()
    raw = frame_message(b"0123456789")
    assert d.feed(raw[:3]) == []
    assert d.feed(raw[3:7]) == []
    assert d.feed(raw[7:]) == [b"0123456789"]


def test_partial_inspections_counted():
    d = Deframer()
    raw = frame_message(b"0123456789")
    d.feed(raw[:5])
    d.feed(raw[5:8])
    assert d.feed(raw[8:]) == [b"0123456789"]
    assert d.partial_inspections == 2


def test_empty_message_allowed():
    d = Deframer()
    assert d.feed(frame_message(b"")) == [b""]


def test_byte_at_a_time():
    d = Deframer()
    raw = frame_message(b"slow")
    out = []
    for i in range(len(raw)):
        out.extend(d.feed(raw[i:i + 1]))
    assert out == [b"slow"]
    assert d.partial_inspections == len(raw) - 1


def test_desync_detected():
    d = Deframer()
    with pytest.raises(FramingError):
        d.feed(b"\xff\xff\xff\xff-garbage")


def test_oversized_message_rejected_at_source():
    with pytest.raises(FramingError):
        frame_message(b"x" * (64 * 1024 * 1024 + 1))


def test_pending_reflects_partial_state():
    d = Deframer()
    assert not d.pending()
    d.feed(frame_message(b"abc")[:2])
    assert d.pending()
    d.feed(frame_message(b"abc")[2:])
    assert not d.pending()
