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

The layout table ``_LAYOUTS`` is the one declaration of each layout: decode,
encode, the frames' constructor checks, measured_power and frame_to_dict
all read it. Eddystone-URL's variable-length body and TLM's 8.8 fixed-point
temperature are the only special cases.

Unknown leading bytes raise UnknownProtocol; an unknown Eddystone frame
type does too. Wrong lengths raise FrameTooShort or FrameTooLong, and
field-level violations raise MalformedFrame. decode never lets a raw
struct.error or IndexError escape.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import ClassVar

from .errors import FrameTooLong, FrameTooShort, MalformedFrame, UnknownProtocol
from .model import real

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
_FIXED_8_8 = "/256"  # struct code suffix of a float field sent as 8.8 fixed point


class _Frame:
    """Base of the frame classes: checks each field its layout gives a code."""

    _layout: ClassVar[_Layout]

    def __post_init__(self):
        for name, kind, lo, hi in self._layout.checks:
            value = getattr(self, name)
            if kind == "s":
                if not isinstance(value, (bytes, bytearray)) or len(value) != lo:
                    raise ValueError(f"{name} must be exactly {lo} bytes")
                if type(value) is not bytes:
                    object.__setattr__(self, name, bytes(value))
            elif kind == "i":
                if type(value) is bool or not isinstance(value, int) or not lo <= value <= hi:
                    raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
            else:  # a float carried as signed 8.8 fixed point, which has no -0.0
                number = real(value, name) + 0.0
                scaled = number * 256.0
                if scaled != scaled:  # NaN
                    raise ValueError(f"{name} must not be NaN")
                if not scaled.is_integer() or not lo <= scaled <= hi:
                    raise ValueError(f"{name} must be a multiple of 1/256 in "
                                     f"[{lo // 256}, {(hi + 1) // 256}), got {value!r}")
                object.__setattr__(self, name, number)


@dataclass(frozen=True)
class IBeaconFrame(_Frame):
    """Apple iBeacon identity: UUID plus major/minor grouping numbers."""

    uuid: bytes
    major: int
    minor: int
    power: int  # calibrated RSSI at 1 m, dBm


@dataclass(frozen=True)
class AltBeaconFrame(_Frame):
    beacon_id: bytes
    ref_rssi: int  # calibrated RSSI at 1 m, dBm
    mfg_reserved: int = 0


@dataclass(frozen=True)
class EddystoneUidFrame(_Frame):
    """Eddystone-UID: 10-byte namespace plus 6-byte instance."""

    tx_power: int  # calibrated RSSI at 0 m, dBm
    namespace: bytes
    instance: bytes


@dataclass(frozen=True)
class EddystoneUrlFrame(_Frame):
    """Eddystone-URL: a compressed URL broadcast.

    The url must start with one of the four scheme prefixes and its
    compressed body must fit in 17 bytes; both are checked here so every
    constructed frame is encodable.
    """

    tx_power: int
    url: str

    def __post_init__(self):
        super().__post_init__()
        encode_url(self.url)  # raises ValueError if not representable


@dataclass(frozen=True)
class EddystoneTlmFrame(_Frame):
    """Eddystone-TLM (unencrypted): beacon health telemetry."""

    battery_mv: int
    temperature_c: float
    adv_count: int
    uptime_ds: int  # deciseconds since power-on


@dataclass(frozen=True)
class EddystoneEidFrame(_Frame):
    tx_power: int
    eid: bytes  # 8-byte ephemeral identifier


BeaconFrame = (IBeaconFrame | AltBeaconFrame | EddystoneUidFrame | EddystoneUrlFrame
               | EddystoneTlmFrame | EddystoneEidFrame)


class _Layout:
    """One row of the layout table, and what is derived from it once, at import.

    ``codes`` holds one struct code per field, in declaration order; the field
    after the last code is Eddystone-URL's variable-length body. A code ending
    in ``/256`` marks a float field carried as 8.8 fixed point in that integer.
    """

    __slots__ = ("cls", "frame_type", "head", "tail", "power", "names", "struct",
                 "size", "longest", "get", "checks")

    def __init__(self, cls, frame_type: str, head: bytes, codes: str, tail: bytes,
                 power: str | None):
        self.cls, self.frame_type, self.head, self.tail, self.power = (
            cls, frame_type, head, tail, power)
        self.names = tuple(f.name for f in fields(cls))
        self.get = attrgetter(*self.names)  # every frame has two fields or more
        self.struct = struct.Struct(">" + codes.replace(_FIXED_8_8, ""))
        self.size = len(head) + self.struct.size + len(tail)
        # Eddystone-URL's variable-length body: a scheme byte, then up to 17 bytes
        self.longest = self.size + (1 + MAX_URL_BODY_BYTES if cls is EddystoneUrlFrame else 0)
        checks = []
        for name, code in zip(self.names, codes.split()):
            if code.endswith("s"):
                checks.append((name, "s", int(code[:-1]), None))  # exactly lo bytes
                continue
            code, fixed, _ = code.partition(_FIXED_8_8)
            bits = 8 * struct.calcsize(">" + code)
            lo = -(1 << (bits - 1)) if code.islower() else 0
            hi = lo + (1 << bits) - 1
            checks.append((name, "f" if fixed else "i", lo, hi))
        self.checks = tuple(checks)
        cls._layout = self


# class, frame_type, fixed bytes before the fields, one struct code per field
# (/256: 8.8 fixed point), fixed bytes after them, the reference-power field
_LAYOUTS = tuple(_Layout(*row) for row in (
    (IBeaconFrame, "ibeacon", IBEACON_PREFIX, "16s H H b", b"", "power"),
    (AltBeaconFrame, "altbeacon", ALTBEACON_CODE, "20s b B", b"", "ref_rssi"),
    (EddystoneUidFrame, "eddystone_uid", b"\xaa\xfe\x00", "b 10s 6s", b"\x00\x00", "tx_power"),
    (EddystoneUrlFrame, "eddystone_url", b"\xaa\xfe\x10", "b", b"", "tx_power"),
    (EddystoneTlmFrame, "eddystone_tlm", b"\xaa\xfe\x20\x00", "H h/256 I I", b"", None),
    (EddystoneEidFrame, "eddystone_eid", b"\xaa\xfe\x30", "b 8s", b"", "tx_power"),
))
# decode dispatches on the first two bytes, or three for Eddystone's frame type
_BY_LEAD = {
    layout.head[:3] if layout.head.startswith(EDDYSTONE_UUID) else layout.head[:2]: layout
    for layout in _LAYOUTS
}


def _layout_of(frame: BeaconFrame) -> _Layout:
    if not isinstance(frame, _Frame):
        raise TypeError(f"not a beacon frame: {type(frame).__name__}")
    return frame._layout


def encode_url(url: str) -> bytes:
    """Compress a URL to scheme byte + body, greedy longest-match.

    Raises ValueError if the url has no known scheme prefix, contains a
    character outside printable ASCII (0x21-0x7E) that no expansion
    covers, or compresses to more than 17 body bytes.
    """
    if not isinstance(url, str):
        raise ValueError("url must be a string")
    scheme_code, prefix = next(((code, prefix) for code, prefix in _SCHEMES_BY_LENGTH
                                if url.startswith(prefix)), (None, ""))
    if scheme_code is None:
        raise ValueError(f"url must start with one of {sorted(URL_SCHEMES.values())}")
    rest = url[len(prefix):]
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


_new_object = object.__new__


def decode(payload: bytes) -> BeaconFrame:
    """Decode an advertisement payload into the matching frame type.

    Dispatch is on the first two bytes: 4C 00 for iBeacon, BE AC for
    AltBeacon, AA FE for Eddystone. Anything else is UnknownProtocol.
    """
    payload = bytes(payload)
    n = len(payload)
    if n < 2:
        raise FrameTooShort(f"payload needs at least 2 bytes, got {n}")
    layout = _BY_LEAD.get(payload[:2]) or _BY_LEAD.get(payload[:3])
    if layout is None:
        if payload[:2] != EDDYSTONE_UUID:
            raise UnknownProtocol(f"unrecognized leading bytes {payload[:2].hex()}")
        if n < 3:
            raise FrameTooShort("Eddystone payload needs a frame type byte")
        raise UnknownProtocol(f"unknown Eddystone frame type 0x{payload[2]:02x}")
    if n < layout.size:
        raise FrameTooShort(f"{layout.frame_type} payload needs {layout.size} bytes, got {n}")
    if n > layout.longest:
        raise FrameTooLong(
            f"{layout.frame_type} payload is at most {layout.longest} bytes, got {n}")
    if not payload.startswith(layout.head) or not payload.endswith(layout.tail):
        raise MalformedFrame(f"{layout.frame_type} payload must be {layout.head.hex(' ')} ... "
                             f"{layout.tail.hex(' ')}, got {payload.hex(' ')}")
    values = layout.struct.unpack_from(payload, len(layout.head))
    if layout.cls is EddystoneUrlFrame:  # the constructor checks the url encodes
        return EddystoneUrlFrame(*values, decode_url(payload[layout.size:]))
    if layout.cls is EddystoneTlmFrame:
        battery_mv, temperature_raw, adv_count, uptime_ds = values
        values = (battery_mv, temperature_raw / 256.0, adv_count, uptime_ds)
    # each struct code bounds its field as the constructor's check would, so
    # the frame is built without running the checks again
    frame = _new_object(layout.cls)
    frame.__dict__.update(zip(layout.names, values))
    return frame


def encode(frame: BeaconFrame) -> bytes:
    """Serialize a frame to its exact wire payload (inverse of decode)."""
    layout = _layout_of(frame)
    values = layout.get(frame)
    if layout.cls is EddystoneUrlFrame:
        return layout.head + layout.struct.pack(values[0]) + encode_url(frame.url)
    if layout.cls is EddystoneTlmFrame:  # a multiple of 1/256, checked at construction
        battery_mv, temperature_c, adv_count, uptime_ds = values
        values = (battery_mv, int(temperature_c * 256.0), adv_count, uptime_ds)
    return layout.head + layout.struct.pack(*values) + layout.tail


def measured_power(frame: BeaconFrame) -> int | None:
    """Calibrated reference power carried by the frame, in dBm.

    iBeacon and AltBeacon calibrate at 1 m; Eddystone UID/URL/EID calibrate
    at 0 m. Telemetry frames carry no reference power, so TLM yields None.
    """
    power = _layout_of(frame).power
    return None if power is None else getattr(frame, power)


def frame_to_dict(frame: BeaconFrame) -> dict:
    """JSON-friendly view of a frame, used by the command line decoder.

    Byte fields are shown in hex and the reference-power field's key gains
    a ``_dbm`` suffix.
    """
    layout = _layout_of(frame)
    d = {"frame_type": layout.frame_type}
    for name in layout.names:
        value = getattr(frame, name)
        d[name + "_dbm" if name == layout.power else name] = (
            value.hex() if isinstance(value, bytes) else value)
    d["measured_power_dbm"] = measured_power(frame)
    return d
