"""Property tests at the payload boundary, and the pinned ``microloc decode`` views.

Payloads come in two kinds: a known lead (every Eddystone frame type byte
and an unknown one included) followed by arbitrary bytes, so that every
format-specific check is reached; and valid encodings that are truncated,
extended or have one byte changed.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from microloc.cli import main
from microloc.codec import (
    IBEACON_PREFIX,
    URL_EXPANSIONS,
    URL_SCHEMES,
    _DECODED_FRAMES,
    AltBeaconFrame,
    EddystoneEidFrame,
    EddystoneTlmFrame,
    EddystoneUidFrame,
    EddystoneUrlFrame,
    IBeaconFrame,
    _decode,
    decode,
    encode,
    encode_url,
)
from microloc.errors import MicrolocError

SETTINGS = settings(max_examples=1000, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

LEADS = (b"\x4c\x00", IBEACON_PREFIX, b"\xbe\xac", b"\xaa\xfe", b"\xaa\xfe\x20\x00",
         *(b"\xaa\xfe" + bytes([t]) for t in (0x00, 0x10, 0x20, 0x30, 0x40)))

i8 = st.integers(-128, 127)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)


def _encodable(url: str) -> bool:
    try:
        encode_url(url)
    except ValueError:
        return False
    return True


urls = st.builds(
    lambda scheme, tokens: scheme + "".join(tokens),
    st.sampled_from(list(URL_SCHEMES.values())),
    st.lists(st.sampled_from(list(URL_EXPANSIONS.values()))
             | st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=17),
).filter(_encodable)

frames = st.one_of(
    st.builds(IBeaconFrame, st.binary(min_size=16, max_size=16), u16, u16, i8),
    st.builds(AltBeaconFrame, st.binary(min_size=20, max_size=20), i8, st.integers(0, 255)),
    st.builds(EddystoneUidFrame, i8, st.binary(min_size=10, max_size=10),
              st.binary(min_size=6, max_size=6)),
    st.builds(EddystoneUrlFrame, i8, urls),
    st.builds(EddystoneTlmFrame, u16, st.integers(-32768, 32767).map(lambda raw: raw / 256),
              u32, u32),
    st.builds(EddystoneEidFrame, i8, st.binary(min_size=8, max_size=8)),
)

led_payloads = st.builds(lambda lead, rest: lead + rest,
                         st.sampled_from(LEADS), st.binary(max_size=30))


@st.composite
def damaged_encodings(draw) -> bytes:
    payload = encode(draw(frames))
    how = draw(st.sampled_from(("truncate", "extend", "mutate")))
    if how == "truncate":
        return payload[:draw(st.integers(0, len(payload) - 1))]
    if how == "extend":
        return payload + draw(st.binary(min_size=1, max_size=8))
    i = draw(st.integers(0, len(payload) - 1))
    return payload[:i] + bytes([draw(st.integers(0, 255))]) + payload[i + 1:]


def _check_decode(payload: bytes) -> None:
    try:
        frame = decode(payload)
    except MicrolocError:
        return  # the only failure decode may raise
    assert decode(encode(frame)) == frame
    if not isinstance(frame, EddystoneUrlFrame):  # URL decoding accepts non-canonical bodies
        assert encode(frame) == payload


@SETTINGS
@given(led_payloads)
def test_decode_behind_every_known_lead(payload):
    _check_decode(payload)


@SETTINGS
@given(damaged_encodings())
def test_decode_of_damaged_encodings(payload):
    _check_decode(payload)


def _outcome(call, payload):
    """The frame a call gives, or the class and message of what it raises."""
    try:
        return call(payload)
    except MicrolocError as exc:
        return type(exc), str(exc)


@SETTINGS
@given(st.one_of(led_payloads, damaged_encodings()))
def test_memoised_decode_gives_what_a_fresh_decode_gives(payload):
    # the payload, again, in the other bytes-like types, then a payload that
    # differs only in its last byte, each against a decode that keeps nothing
    sibling = payload[:-1] + bytes([payload[-1] ^ 1]) if payload else b"\x00"
    for p in (payload, payload, bytearray(payload), memoryview(payload), sibling, payload):
        assert _outcome(decode, p) == _outcome(_decode.__wrapped__, bytes(p))


def test_memo_keeps_at_most_its_bound():
    for count in range(1000):  # distinct TLM advertisement counts
        decode(encode(EddystoneTlmFrame(3000, 21.5, count, 60)))
    assert 0 < _decode.cache_info().currsize <= _DECODED_FRAMES


def _as_bytearray(frame):
    """The same frame built with every bytes field passed as a bytearray."""
    return type(frame)(*(bytearray(v) if isinstance(v, bytes) else v
                         for v in vars(frame).values()))


@SETTINGS
@given(st.one_of(
    frames,
    frames.map(_as_bytearray),
    # a whole-degree temperature given as an int is stored as a float
    st.builds(EddystoneTlmFrame, u16, st.integers(-128, 127), u32, u32),
))
def test_decoded_frame_equals_the_constructed_frame(frame):
    got = decode(encode(frame))
    assert type(got) is type(frame)
    assert got == frame and hash(got) == hash(frame)
    assert [(k, type(v)) for k, v in vars(got).items()] == \
        [(k, type(v)) for k, v in vars(frame).items()]
    assert all(type(v) is bytes for v in vars(got).values() if isinstance(v, (bytes, bytearray)))
    if isinstance(frame, EddystoneTlmFrame):
        assert type(got.temperature_c) is float
        assert got.temperature_c.hex() == frame.temperature_c.hex()


# --- the decode views, pinned byte for byte ---

DECODE_STDOUT = [
    ("4c00021500112233445566778899aabbccddeeff12345678c5",
     """\
{
  "frame_type": "ibeacon",
  "uuid": "00112233445566778899aabbccddeeff",
  "major": 4660,
  "minor": 22136,
  "power_dbm": -59,
  "measured_power_dbm": -59
}
"""),
    ("beac000102030405060708090a0b0c0d0e0f10111213bf42",
     """\
{
  "frame_type": "altbeacon",
  "beacon_id": "000102030405060708090a0b0c0d0e0f10111213",
  "ref_rssi_dbm": -65,
  "mfg_reserved": 66,
  "measured_power_dbm": -65
}
"""),
    ("aafe00ec0102030405060708090a0b0c0d0e0f100000",
     """\
{
  "frame_type": "eddystone_uid",
  "tx_power_dbm": -20,
  "namespace": "0102030405060708090a",
  "instance": "0b0c0d0e0f10",
  "measured_power_dbm": -20
}
"""),
    ("aafe10f0006578616d706c6500",
     """\
{
  "frame_type": "eddystone_url",
  "tx_power_dbm": -16,
  "url": "http://www.example.com/",
  "measured_power_dbm": -16
}
"""),
    ("aafe20000b54f5c0000186a000015180",
     """\
{
  "frame_type": "eddystone_tlm",
  "battery_mv": 2900,
  "temperature_c": -10.25,
  "adv_count": 100000,
  "uptime_ds": 86400,
  "measured_power_dbm": null
}
"""),
    ("aafe30f81122334455667788",
     """\
{
  "frame_type": "eddystone_eid",
  "tx_power_dbm": -8,
  "eid": "1122334455667788",
  "measured_power_dbm": -8
}
"""),
]


@pytest.mark.parametrize("payload,stdout", DECODE_STDOUT)
def test_decode_stdout_is_pinned(payload, stdout, capsys):
    assert main(["decode", payload]) == 0
    assert capsys.readouterr().out == stdout
