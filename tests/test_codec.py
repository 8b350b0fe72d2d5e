"""Frame codec: golden byte layouts, error taxonomy, round trips.

Expected payloads are written out by hand from the layout tables, so the
encoder is checked against an independent rendering of each format, not
against itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import FRAME_VARIANTS, random_frame
from microloc import codec
from microloc.codec import (
    AltBeaconFrame,
    EddystoneEidFrame,
    EddystoneTlmFrame,
    EddystoneUidFrame,
    EddystoneUrlFrame,
    IBeaconFrame,
    decode,
    encode,
    measured_power,
)
from microloc.errors import (
    FrameTooLong,
    FrameTooShort,
    MalformedFrame,
    MicrolocError,
    UnknownProtocol,
)

UUID16 = bytes.fromhex("00112233445566778899aabbccddeeff")


# --- golden layouts, assembled by hand ---

def test_ibeacon_golden_bytes():
    f = IBeaconFrame(uuid=UUID16, major=0x1234, minor=0x5678, power=-59)
    expected = bytes.fromhex("4c000215" + UUID16.hex() + "1234" + "5678" + "c5")
    assert encode(f) == expected
    assert len(expected) == 25
    assert decode(expected) == f


def test_altbeacon_golden_bytes():
    bid = bytes(range(20))
    f = AltBeaconFrame(beacon_id=bid, ref_rssi=-65, mfg_reserved=0x42)
    expected = bytes.fromhex("beac" + bid.hex() + "bf" + "42")
    assert encode(f) == expected
    assert len(expected) == 24
    assert decode(expected) == f


def test_eddystone_uid_golden_bytes():
    ns = bytes.fromhex("0102030405060708090a")
    inst = bytes.fromhex("0b0c0d0e0f10")
    f = EddystoneUidFrame(tx_power=-20, namespace=ns, instance=inst)
    expected = bytes.fromhex("aafe" + "00" + "ec" + ns.hex() + inst.hex() + "0000")
    assert encode(f) == expected
    assert len(expected) == 22
    assert decode(expected) == f


def test_eddystone_url_golden_bytes():
    f = EddystoneUrlFrame(tx_power=-16, url="http://www.example.com/")
    # scheme 00, "example" literal, 00 expansion for ".com/"
    expected = bytes.fromhex("aafe" + "10" + "f0" + "00" + b"example".hex() + "00")
    assert encode(f) == expected
    assert decode(expected) == f


def test_eddystone_tlm_golden_bytes():
    f = EddystoneTlmFrame(battery_mv=2900, temperature_c=25.5,
                          adv_count=100_000, uptime_ds=86_400)
    expected = bytes.fromhex("aafe" + "20" + "00" + "0b54" + "1980" + "000186a0" + "00015180")
    assert encode(f) == expected
    assert len(expected) == 16
    assert decode(expected) == f


def test_eddystone_tlm_negative_temperature():
    f = EddystoneTlmFrame(battery_mv=0, temperature_c=-10.25, adv_count=0, uptime_ds=0)
    # -10.25 * 256 = -2624 -> 0xf5c0 in two's complement
    assert encode(f)[6:8] == bytes.fromhex("f5c0")
    assert decode(encode(f)).temperature_c == -10.25


def test_eddystone_eid_golden_bytes():
    eid = bytes.fromhex("1122334455667788")
    f = EddystoneEidFrame(tx_power=-8, eid=eid)
    expected = bytes.fromhex("aafe" + "30" + "f8" + eid.hex())
    assert encode(f) == expected
    assert len(expected) == 12
    assert decode(expected) == f


@pytest.mark.parametrize("value,byte", [(-1, 0xFF), (-59, 0xC5), (-128, 0x80),
                                        (0, 0x00), (127, 0x7F)])
def test_power_byte_twos_complement(value, byte):
    f = IBeaconFrame(uuid=UUID16, major=0, minor=0, power=value)
    assert encode(f)[24] == byte


def test_twos_complement_all_negative_values():
    for v in range(-128, 0):
        assert encode(AltBeaconFrame(beacon_id=bytes(20), ref_rssi=v))[22] == v + 256


# --- URL compression ---

def test_url_scheme_table():
    cases = {
        0x00: "http://www.x", 0x01: "https://www.x", 0x02: "http://x", 0x03: "https://x",
    }
    for code, url in cases.items():
        payload = encode(EddystoneUrlFrame(tx_power=0, url=url))
        assert payload[4] == code


def test_url_expansion_bytes_decode():
    # body: "go" then 0x06 -> ".gov/"
    payload = bytes.fromhex("aafe10" + "00" + "02") + b"go" + bytes([0x06])
    assert decode(payload).url == "http://go.gov/"


def test_url_encode_prefers_longest_expansion():
    # ".com/" must compress to the single 0x00 byte, not ".com" + "/"
    body = encode(EddystoneUrlFrame(tx_power=0, url="https://a.com/"))[5:]
    assert body == b"a" + bytes([0x00])


def test_url_scheme_longest_match():
    # "https://www." must use scheme 0x01, never 0x03 plus literal "www."
    payload = encode(EddystoneUrlFrame(tx_power=0, url="https://www.q"))
    assert payload[4] == 0x01
    assert payload[5:] == b"q"


def test_url_non_canonical_body_still_decodes():
    payload = bytes.fromhex("aafe10" + "00" + "02") + b"a.com"  # literal dot-com
    f = decode(payload)
    assert f.url == "http://a.com"
    # re-encoding is canonical (shorter), decode is unchanged
    assert decode(encode(f)) == f
    assert len(encode(f)) < len(payload)


def test_url_body_limit_enforced_at_construction():
    EddystoneUrlFrame(tx_power=0, url="https://" + "a" * 17)
    with pytest.raises(ValueError):
        EddystoneUrlFrame(tx_power=0, url="https://" + "a" * 18)


def test_url_bad_scheme_or_chars_rejected_at_construction():
    with pytest.raises(ValueError):
        EddystoneUrlFrame(tx_power=0, url="ftp://x")
    with pytest.raises(ValueError):
        EddystoneUrlFrame(tx_power=0, url="https://a b")


@pytest.mark.parametrize("bad", [0x0E, 0x20, 0x7F, 0xFF])
def test_url_reserved_bytes_rejected_on_decode(bad):
    payload = bytes.fromhex("aafe10" + "00" + "00") + bytes([bad])
    with pytest.raises(MalformedFrame):
        decode(payload)


def test_url_reserved_scheme_rejected():
    with pytest.raises(MalformedFrame):
        decode(bytes.fromhex("aafe10" + "00" + "04") + b"x")


# --- error taxonomy ---

def test_empty_and_tiny_payloads():
    with pytest.raises(FrameTooShort):
        decode(b"")
    with pytest.raises(FrameTooShort):
        decode(b"\xaa")
    with pytest.raises(FrameTooShort):
        decode(b"\xaa\xfe")  # no frame type byte


def test_unknown_preamble():
    with pytest.raises(UnknownProtocol):
        decode(b"\x12\x34" + bytes(23))


def test_unknown_eddystone_frame_type():
    with pytest.raises(UnknownProtocol):
        decode(bytes.fromhex("aafe40") + bytes(9))


def test_truncated_and_padded_ibeacon():
    good = encode(IBeaconFrame(uuid=UUID16, major=1, minor=2, power=-50))
    with pytest.raises(FrameTooShort):
        decode(good[:-1])
    with pytest.raises(FrameTooLong):
        decode(good + b"\x00")


def test_ibeacon_bad_type_bytes():
    good = bytearray(encode(IBeaconFrame(uuid=UUID16, major=1, minor=2, power=-50)))
    good[2] = 0x03
    with pytest.raises(MalformedFrame):
        decode(bytes(good))


def test_uid_nonzero_rfu_rejected():
    good = bytearray(encode(EddystoneUidFrame(tx_power=0, namespace=bytes(10),
                                              instance=bytes(6))))
    good[21] = 0x01
    with pytest.raises(MalformedFrame):
        decode(bytes(good))


def test_tlm_nonzero_version_rejected():
    good = bytearray(encode(EddystoneTlmFrame(battery_mv=1, temperature_c=0.0,
                                              adv_count=1, uptime_ds=1)))
    good[3] = 0x01
    with pytest.raises(MalformedFrame):
        decode(bytes(good))


def test_construction_validation():
    with pytest.raises(ValueError):
        IBeaconFrame(uuid=bytes(15), major=0, minor=0, power=0)
    with pytest.raises(ValueError):
        IBeaconFrame(uuid=UUID16, major=-1, minor=0, power=0)
    with pytest.raises(ValueError):
        IBeaconFrame(uuid=UUID16, major=0, minor=0, power=128)
    with pytest.raises(ValueError):
        AltBeaconFrame(beacon_id=bytes(19), ref_rssi=0)
    with pytest.raises(ValueError):
        EddystoneTlmFrame(battery_mv=0, temperature_c=0.001, adv_count=0, uptime_ds=0)
    with pytest.raises(ValueError):
        EddystoneTlmFrame(battery_mv=0, temperature_c=200.0, adv_count=0, uptime_ds=0)
    with pytest.raises(ValueError):
        EddystoneEidFrame(tx_power=0, eid=bytes(7))


def test_decode_is_total_over_random_bytes():
    rng = np.random.default_rng(99)
    ok = 0
    for _ in range(3000):
        n = int(rng.integers(0, 40))
        payload = bytes(rng.integers(0, 256, n, dtype=np.uint8))
        try:
            decode(payload)
            ok += 1
        except MicrolocError:
            pass
    assert ok >= 0  # reaching here means nothing else leaked


# --- round trips and measured power ---

@pytest.mark.parametrize("variant", FRAME_VARIANTS)
def test_roundtrip_random_frames(variant):
    rng = np.random.default_rng(hash(variant) % (1 << 32))
    for _ in range(300):
        f = random_frame(rng, variant)
        assert decode(encode(f)) == f


def test_measured_power_per_variant():
    assert measured_power(IBeaconFrame(uuid=UUID16, major=0, minor=0, power=-59)) == -59
    assert measured_power(AltBeaconFrame(beacon_id=bytes(20), ref_rssi=-65)) == -65
    assert measured_power(EddystoneUidFrame(tx_power=-20, namespace=bytes(10),
                                            instance=bytes(6))) == -20
    assert measured_power(EddystoneUrlFrame(tx_power=-7, url="https://x")) == -7
    assert measured_power(EddystoneEidFrame(tx_power=-3, eid=bytes(8))) == -3
    assert measured_power(EddystoneTlmFrame(battery_mv=1, temperature_c=0.0,
                                            adv_count=0, uptime_ds=0)) is None


def test_frame_to_dict_fields():
    d = codec.frame_to_dict(IBeaconFrame(uuid=UUID16, major=7, minor=9, power=-59))
    assert d["frame_type"] == "ibeacon"
    assert d["uuid"] == UUID16.hex()
    assert d["measured_power_dbm"] == -59
    d = codec.frame_to_dict(EddystoneTlmFrame(battery_mv=3000, temperature_c=21.0,
                                              adv_count=5, uptime_ds=10))
    assert d["measured_power_dbm"] is None
    assert d["battery_mv"] == 3000


@pytest.mark.parametrize("make", [
    lambda: IBeaconFrame(UUID16, True, 2, -59),
    lambda: IBeaconFrame(UUID16, 1, False, -59),
    lambda: AltBeaconFrame(bytes(20), -59, True),
    lambda: EddystoneTlmFrame(3000, 20.0, True, 1),
])
def test_integer_fields_reject_bools(make):
    with pytest.raises(ValueError, match="must be an integer in .*, got (True|False)$"):
        make()


def test_bytes_fields_store_bytes():
    frame = IBeaconFrame(bytearray(UUID16), 1, 2, -59)
    assert type(frame.uuid) is bytes and frame.uuid == UUID16


@pytest.mark.parametrize("temperature, message", [
    ("20", "temperature_c must be a number, got '20'"),
    (float("nan"), "temperature_c must not be NaN"),
])
def test_tlm_temperature_must_be_a_number(temperature, message):
    with pytest.raises(ValueError) as info:
        EddystoneTlmFrame(3000, temperature, 1, 1)
    assert str(info.value) == message


def test_tlm_negative_zero_temperature_survives_a_round_trip():
    frame = EddystoneTlmFrame(3000, -0.0, 1, 2)
    assert codec.frame_to_dict(frame) == codec.frame_to_dict(decode(encode(frame)))
    assert str(frame.temperature_c) == "0.0"


def test_encode_rejects_non_frames_and_non_string_urls():
    with pytest.raises(TypeError, match="not a beacon frame"):
        encode(object())
    with pytest.raises(ValueError, match="url must be a string"):
        codec.encode_url(5)
