"""Encoders and decoders for BLE beacon advertisement payloads.

Supported formats and their layouts (offsets in bytes, integers big-endian
unless noted):

iBeacon, manufacturer-specific data, 25 bytes::

    0-1   4C 00       Apple company identifier (little-endian on the wire)
    2     02          beacon type
    3     15          remaining length (21)
    4-19  uuid        16-byte proximity UUID
    20-21 major       u16
    22-23 minor       u16
    24    power       i8, calibrated RSSI at 1 m

AltBeacon, manufacturer-specific data, 24 bytes::

    0-1   BE AC       beacon code
    2-21  beacon id   20 bytes, organisational prefix + instance
    22    ref rssi    i8, calibrated RSSI at 1 m
    23    reserved    u8, manufacturer defined

Eddystone, service data for 16-bit UUID 0xFEAA (AA FE little-endian on the
wire), frame type at offset 2::

    UID (22 bytes): 2: 00 | 3: tx i8 at 0 m | 4-13 namespace | 14-19 instance
                    | 20-21 RFU, must be 00 00
    URL (5..22):    2: 10 | 3: tx i8 at 0 m | 4: scheme code | 5.. encoded body
    TLM (16 bytes): 2: 20 | 3: version, must be 00 | 4-5 battery mV u16
                    | 6-7 temperature, signed 8.8 fixed point
                    | 8-11 advertisement count u32 | 12-15 uptime u32, 0.1 s units
    EID (12 bytes): 2: 30 | 3: tx i8 at 0 m | 4-11 ephemeral id

Unknown leading bytes raise UnknownProtocol; an unknown Eddystone frame
type does too. Wrong lengths raise FrameTooShort or FrameTooLong, and
field-level violations raise MalformedFrame. decode never lets a raw
struct.error or IndexError escape.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import FrameTooLong, FrameTooShort, MalformedFrame, UnknownProtocol

IBEACON_PREFIX = b"\x4c\x00\x02\x15"
ALTBEACON_CODE = b"\xbe\xac"
EDDYSTONE_UUID = b"\xaa\xfe"

URL_SCHEMES = {
    0x00: "http://www.",
    0x01: "https://www.",
    0x02: "http://",
    0x03: "https://",
}

URL_EXPANSIONS = {
    0x00: ".com/",
    0x01: ".org/",
    0x02: ".edu/",
    0x03: ".net/",
    0x04: ".info/",
    0x05: ".biz/",
    0x06: ".gov/",
    0x07: ".com",
    0x08: ".org",
    0x09: ".edu",
    0x0A: ".net",
    0x0B: ".info",
    0x0C: ".biz",
    0x0D: ".gov",
}

# longest match first, so encoding is greedy and canonical
_SCHEMES_BY_LENGTH = sorted(URL_SCHEMES.items(), key=lambda kv: len(kv[1]), reverse=True)
_EXPANSIONS_BY_LENGTH = sorted(URL_EXPANSIONS.items(), key=lambda kv: len(kv[1]), reverse=True)

MAX_URL_BODY_BYTES = 17


def _check_int(value: int, lo: int, hi: int, name: str) -> None:
    if not isinstance(value, int) or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


def _check_bytes(value: bytes, length: int, name: str) -> None:
    if not isinstance(value, (bytes, bytearray)) or len(value) != length:
        raise ValueError(f"{name} must be exactly {length} bytes")


@dataclass(frozen=True)
class IBeaconFrame:
    """Apple iBeacon identity: UUID plus major/minor grouping numbers."""

    uuid: bytes
    major: int
    minor: int
    power: int  # calibrated RSSI at 1 m, dBm

    def __post_init__(self):
        _check_bytes(self.uuid, 16, "uuid")
        object.__setattr__(self, "uuid", bytes(self.uuid))
        _check_int(self.major, 0, 0xFFFF, "major")
        _check_int(self.minor, 0, 0xFFFF, "minor")
        _check_int(self.power, -128, 127, "power")


@dataclass(frozen=True)
class AltBeaconFrame:
    beacon_id: bytes
    ref_rssi: int  # calibrated RSSI at 1 m, dBm
    mfg_reserved: int = 0

    def __post_init__(self):
        _check_bytes(self.beacon_id, 20, "beacon_id")
        object.__setattr__(self, "beacon_id", bytes(self.beacon_id))
        _check_int(self.ref_rssi, -128, 127, "ref_rssi")
        _check_int(self.mfg_reserved, 0, 0xFF, "mfg_reserved")


@dataclass(frozen=True)
class EddystoneUidFrame:
    """Eddystone-UID: 10-byte namespace plus 6-byte instance."""

    tx_power: int  # calibrated RSSI at 0 m, dBm
    namespace: bytes
    instance: bytes

    def __post_init__(self):
        _check_int(self.tx_power, -128, 127, "tx_power")
        _check_bytes(self.namespace, 10, "namespace")
        _check_bytes(self.instance, 6, "instance")
        object.__setattr__(self, "namespace", bytes(self.namespace))
        object.__setattr__(self, "instance", bytes(self.instance))


@dataclass(frozen=True)
class EddystoneUrlFrame:
    """Eddystone-URL: a compressed URL broadcast.

    The url must start with one of the four scheme prefixes and its
    compressed body must fit in 17 bytes; both are checked here so every
    constructed frame is encodable.
    """

    tx_power: int
    url: str

    def __post_init__(self):
        _check_int(self.tx_power, -128, 127, "tx_power")
        encode_url(self.url)  # raises ValueError if not representable


@dataclass(frozen=True)
class EddystoneTlmFrame:
    """Eddystone-TLM (unencrypted): beacon health telemetry."""

    battery_mv: int
    temperature_c: float
    adv_count: int
    uptime_ds: int  # deciseconds since power-on

    def __post_init__(self):
        _check_int(self.battery_mv, 0, 0xFFFF, "battery_mv")
        _check_int(self.adv_count, 0, 0xFFFFFFFF, "adv_count")
        _check_int(self.uptime_ds, 0, 0xFFFFFFFF, "uptime_ds")
        t = self.temperature_c
        if not isinstance(t, (int, float)) or isinstance(t, bool):
            raise ValueError(f"temperature_c must be a number, got {t!r}")
        scaled = t * 256.0
        if scaled != scaled:  # NaN
            raise ValueError("temperature_c must not be NaN")
        if not float(scaled).is_integer() or not -32768 <= scaled <= 32767:
            raise ValueError(
                f"temperature_c must be a multiple of 1/256 in [-128, 128), got {t!r}"
            )
        object.__setattr__(self, "temperature_c", float(t))


@dataclass(frozen=True)
class EddystoneEidFrame:
    tx_power: int
    eid: bytes  # 8-byte ephemeral identifier

    def __post_init__(self):
        _check_int(self.tx_power, -128, 127, "tx_power")
        _check_bytes(self.eid, 8, "eid")
        object.__setattr__(self, "eid", bytes(self.eid))


BeaconFrame = (
    IBeaconFrame
    | AltBeaconFrame
    | EddystoneUidFrame
    | EddystoneUrlFrame
    | EddystoneTlmFrame
    | EddystoneEidFrame
)


def encode_url(url: str) -> bytes:
    """Compress a URL to scheme byte + body, greedy longest-match.

    Raises ValueError if the url has no known scheme prefix, contains a
    character outside printable ASCII (0x21-0x7E) that no expansion
    covers, or compresses to more than 17 body bytes.
    """
    if not isinstance(url, str):
        raise ValueError("url must be a string")
    scheme_code = None
    rest = ""
    for code, prefix in _SCHEMES_BY_LENGTH:
        if url.startswith(prefix):
            scheme_code = code
            rest = url[len(prefix):]
            break
    if scheme_code is None:
        raise ValueError(f"url must start with one of {sorted(URL_SCHEMES.values())}")
    body = bytearray()
    i = 0
    while i < len(rest):
        for code, text in _EXPANSIONS_BY_LENGTH:
            if rest.startswith(text, i):
                body.append(code)
                i += len(text)
                break
        else:
            ch = rest[i]
            o = ord(ch)
            if not 0x21 <= o <= 0x7E:
                raise ValueError(f"url character {ch!r} not encodable")
            body.append(o)
            i += 1
    if len(body) > MAX_URL_BODY_BYTES:
        raise ValueError(f"encoded url body is {len(body)} bytes, limit {MAX_URL_BODY_BYTES}")
    return bytes([scheme_code]) + bytes(body)


def decode_url(data: bytes) -> str:
    """Expand a scheme byte + body back to a URL string.

    Liberal in what it accepts: any mix of expansion codes and literal
    characters decodes, whether or not it is the canonical greedy form.
    """
    if len(data) < 1:
        raise FrameTooShort("url field missing scheme byte")
    scheme = URL_SCHEMES.get(data[0])
    if scheme is None:
        raise MalformedFrame(f"reserved url scheme byte 0x{data[0]:02x}")
    out = [scheme]
    for b in data[1:]:
        if b in URL_EXPANSIONS:
            out.append(URL_EXPANSIONS[b])
        elif 0x21 <= b <= 0x7E:
            out.append(chr(b))
        else:
            raise MalformedFrame(f"reserved url character byte 0x{b:02x}")
    return "".join(out)


def _expect_length(payload: bytes, length: int, what: str) -> None:
    if len(payload) < length:
        raise FrameTooShort(f"{what} needs {length} bytes, got {len(payload)}")
    if len(payload) > length:
        raise FrameTooLong(f"{what} is {length} bytes, got {len(payload)}")


def _decode_ibeacon(payload: bytes) -> IBeaconFrame:
    _expect_length(payload, 25, "iBeacon payload")
    if payload[2] != 0x02 or payload[3] != 0x15:
        raise MalformedFrame(
            f"iBeacon type/length bytes must be 02 15, got {payload[2]:02x} {payload[3]:02x}"
        )
    uuid, major, minor, power = struct.unpack(">16sHHb", payload[4:25])
    return IBeaconFrame(uuid=uuid, major=major, minor=minor, power=power)


def _decode_altbeacon(payload: bytes) -> AltBeaconFrame:
    _expect_length(payload, 24, "AltBeacon payload")
    beacon_id = payload[2:22]
    ref_rssi, reserved = struct.unpack(">bB", payload[22:24])
    return AltBeaconFrame(beacon_id=beacon_id, ref_rssi=ref_rssi, mfg_reserved=reserved)


def _decode_eddystone(payload: bytes) -> BeaconFrame:
    if len(payload) < 3:
        raise FrameTooShort("Eddystone payload needs a frame type byte")
    frame_type = payload[2]
    if frame_type == 0x00:
        _expect_length(payload, 22, "Eddystone-UID payload")
        tx = struct.unpack(">b", payload[3:4])[0]
        if payload[20:22] != b"\x00\x00":
            raise MalformedFrame("Eddystone-UID RFU bytes must be zero")
        return EddystoneUidFrame(tx_power=tx, namespace=payload[4:14], instance=payload[14:20])
    if frame_type == 0x10:
        if len(payload) < 5:
            raise FrameTooShort("Eddystone-URL payload needs at least 5 bytes")
        if len(payload) > 5 + MAX_URL_BODY_BYTES:
            raise FrameTooLong(
                f"Eddystone-URL payload is at most {5 + MAX_URL_BODY_BYTES} bytes, got {len(payload)}"
            )
        tx = struct.unpack(">b", payload[3:4])[0]
        return EddystoneUrlFrame(tx_power=tx, url=decode_url(payload[4:]))
    if frame_type == 0x20:
        _expect_length(payload, 16, "Eddystone-TLM payload")
        version, battery, temp_raw, count, uptime = struct.unpack(">BHhII", payload[3:16])
        if version != 0x00:
            raise MalformedFrame(f"Eddystone-TLM version must be 0, got {version}")
        return EddystoneTlmFrame(
            battery_mv=battery,
            temperature_c=temp_raw / 256.0,
            adv_count=count,
            uptime_ds=uptime,
        )
    if frame_type == 0x30:
        _expect_length(payload, 12, "Eddystone-EID payload")
        tx = struct.unpack(">b", payload[3:4])[0]
        return EddystoneEidFrame(tx_power=tx, eid=payload[4:12])
    raise UnknownProtocol(f"unknown Eddystone frame type 0x{frame_type:02x}")


def decode(payload: bytes) -> BeaconFrame:
    """Decode an advertisement payload into the matching frame type.

    Dispatch is on the first two bytes: 4C 00 for iBeacon, BE AC for
    AltBeacon, AA FE for Eddystone. Anything else is UnknownProtocol.
    """
    payload = bytes(payload)
    if len(payload) < 2:
        raise FrameTooShort(f"payload needs at least 2 bytes, got {len(payload)}")
    lead = payload[:2]
    if lead == IBEACON_PREFIX[:2]:
        return _decode_ibeacon(payload)
    if lead == ALTBEACON_CODE:
        return _decode_altbeacon(payload)
    if lead == EDDYSTONE_UUID:
        return _decode_eddystone(payload)
    raise UnknownProtocol(f"unrecognized leading bytes {lead.hex()}")


def encode(frame: BeaconFrame) -> bytes:
    """Serialize a frame to its exact wire payload (inverse of decode)."""
    if isinstance(frame, IBeaconFrame):
        return IBEACON_PREFIX + struct.pack(">16sHHb", frame.uuid, frame.major, frame.minor, frame.power)
    if isinstance(frame, AltBeaconFrame):
        return ALTBEACON_CODE + frame.beacon_id + struct.pack(">bB", frame.ref_rssi, frame.mfg_reserved)
    if isinstance(frame, EddystoneUidFrame):
        return (
            EDDYSTONE_UUID
            + b"\x00"
            + struct.pack(">b", frame.tx_power)
            + frame.namespace
            + frame.instance
            + b"\x00\x00"
        )
    if isinstance(frame, EddystoneUrlFrame):
        return EDDYSTONE_UUID + b"\x10" + struct.pack(">b", frame.tx_power) + encode_url(frame.url)
    if isinstance(frame, EddystoneTlmFrame):
        temp_raw = int(frame.temperature_c * 256.0)
        return EDDYSTONE_UUID + b"\x20" + struct.pack(
            ">BHhII", 0x00, frame.battery_mv, temp_raw, frame.adv_count, frame.uptime_ds
        )
    if isinstance(frame, EddystoneEidFrame):
        return EDDYSTONE_UUID + b"\x30" + struct.pack(">b", frame.tx_power) + frame.eid
    raise TypeError(f"not a beacon frame: {type(frame).__name__}")


def measured_power(frame: BeaconFrame) -> int | None:
    """Calibrated reference power carried by the frame, in dBm.

    iBeacon and AltBeacon calibrate at 1 m; Eddystone UID/URL/EID calibrate
    at 0 m. Telemetry frames carry no reference power, so TLM yields None.
    """
    if isinstance(frame, IBeaconFrame):
        return frame.power
    if isinstance(frame, AltBeaconFrame):
        return frame.ref_rssi
    if isinstance(frame, (EddystoneUidFrame, EddystoneUrlFrame, EddystoneEidFrame)):
        return frame.tx_power
    if isinstance(frame, EddystoneTlmFrame):
        return None
    raise TypeError(f"not a beacon frame: {type(frame).__name__}")


def frame_to_dict(frame: BeaconFrame) -> dict:
    """JSON-friendly view of a frame, used by the command line decoder."""
    if isinstance(frame, IBeaconFrame):
        d = {
            "frame_type": "ibeacon",
            "uuid": frame.uuid.hex(),
            "major": frame.major,
            "minor": frame.minor,
            "power_dbm": frame.power,
        }
    elif isinstance(frame, AltBeaconFrame):
        d = {
            "frame_type": "altbeacon",
            "beacon_id": frame.beacon_id.hex(),
            "ref_rssi_dbm": frame.ref_rssi,
            "mfg_reserved": frame.mfg_reserved,
        }
    elif isinstance(frame, EddystoneUidFrame):
        d = {
            "frame_type": "eddystone_uid",
            "tx_power_dbm": frame.tx_power,
            "namespace": frame.namespace.hex(),
            "instance": frame.instance.hex(),
        }
    elif isinstance(frame, EddystoneUrlFrame):
        d = {"frame_type": "eddystone_url", "tx_power_dbm": frame.tx_power, "url": frame.url}
    elif isinstance(frame, EddystoneTlmFrame):
        d = {
            "frame_type": "eddystone_tlm",
            "battery_mv": frame.battery_mv,
            "temperature_c": frame.temperature_c,
            "adv_count": frame.adv_count,
            "uptime_ds": frame.uptime_ds,
        }
    elif isinstance(frame, EddystoneEidFrame):
        d = {"frame_type": "eddystone_eid", "tx_power_dbm": frame.tx_power, "eid": frame.eid.hex()}
    else:
        raise TypeError(f"not a beacon frame: {type(frame).__name__}")
    d["measured_power_dbm"] = measured_power(frame)
    return d
