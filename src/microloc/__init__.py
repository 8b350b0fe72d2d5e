"""Micro-location from BLE beacon advertisements.

Submodules:

    codec     advertisement payload encoding and decoding
    model     RSSI samples, traces, CSV/JSON serialization
    ranging   RSSI and time-of-flight to distance conversion
    filters   static and variance-tracking Kalman smoothing
    position  proximity, lateration, angulation, TDoA, fingerprinting
    sim       deterministic advertisement simulator
    evaluate  ranging metrics and the ten-spot evaluation report
    cli       the ``microloc`` command line tool

``import microloc`` loads none of them, nor numpy: each submodule loads on
first use, when a name in ``__all__`` (``microloc.simulate``, say) or the
submodule itself (``microloc.sim``) is first looked up, so a command loads
only the modules it runs (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it gives the package, in __all__ order
_EXPORTS = {
    "errors": ("MicrolocError",),
    "model": ("RssiSample", "Trace", "load_trace", "save_trace"),
    "ranging": ("PathLossModel", "rssi_to_distance", "distance_to_rssi"),
    "filters": ("KalmanParams", "KalmanState", "default_params", "smooth_trace",
                "smooth_trace_dynamic"),
    "position": ("Anchor", "Method", "Zone", "PositionEstimate", "classify_proximity",
                 "proximity_region", "trilaterate", "triangulate", "tdoa_locate",
                 "fingerprint_build", "fingerprint_locate"),
    "codec": ("BeaconFrame", "decode", "encode", "measured_power"),
    "sim": ("SimConfig", "Scenario", "simulate", "ranging_experiment"),
    "evaluate": ("ErrorReport", "accuracy", "precision", "error_histogram", "ranging_report"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "rng"}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here, so the next lookup of the name does not come back to __getattr__
    value = globals()[name] = getattr(__getattr__(_SOURCE[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
