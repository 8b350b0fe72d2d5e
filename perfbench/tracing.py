"""Span and counter recording around microloc's public functions.

The benchmark records spans from outside the package: ``install`` replaces
public functions on their modules with wrappers, so calls made by ``cli``
and ``evaluate`` into ``sim``, ``filters`` and ``ranging`` are captured as
long as the caller looks the function up on its module at call time.

A span has an id, the id of the span that caused it, a name and its start
and end in ``perf_counter_ns``. Spans of coarse calls are kept in memory
and written when the process ends; per-sample leaf calls (RSSI to
distance, frame decode and encode) are only aggregated, because a span
each would cost more memory than the work they time. Every wrapped call
adds to its name's aggregate: calls, busy time, self time (busy minus the
time covered by child spans), samples handled and failures by exception
type. ``rng.draws`` is counted without timing.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 0

    def _stat(self, name: str) -> dict:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "busy_ns": 0, "self_ns": 0,
                                     "samples": 0, "failed": {}}
        return st

    def wrap(self, fn, name, samples=None, keep: bool = True):
        """Wrap fn; name is a string or a function of the call's arguments.

        samples(args, kwargs, result) gives the samples the call handled.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name if isinstance(name, str) else name(args, kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, 0]
            tracer._stack.append(frame)
            st = tracer._stat(key)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                failed = st["failed"]
                failed[type(exc).__name__] = failed.get(type(exc).__name__, 0) + 1
                raise
            finally:
                t1 = _clock()
                tracer._stack.pop()
                dur = t1 - t0
                st["calls"] += 1
                st["busy_ns"] += dur
                st["self_ns"] += dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                if keep:
                    tracer.spans.append((sid, parent, key, t0, t1))
            if samples is not None:
                st["samples"] += samples(args, kwargs, result)
            return result

        return wrapper

    def count(self, fn, name: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"stats": self.stats, "counters": dict(self.counters), "spans": self.spans}


def _arg(args, kwargs, index: int, key: str, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _file_bytes(path: str) -> int:
    size = os.path.getsize(path)
    sidecar = path + ".meta.json"
    if os.path.exists(sidecar):
        size += os.path.getsize(sidecar)
    return size


def install(tracer: Tracer) -> None:
    """Replace microloc's public functions with traced wrappers."""
    from microloc import cli, codec, evaluate, filters, model, position, ranging, rng, sim

    def simulate_samples(args, kwargs, result):
        scenario, config = args[0], _arg(args, kwargs, 1, "config", None)
        per_beacon = -(-config.duration_ms // config.advertising_interval_ms)
        tracer.counters["sim.events"] += len(scenario.beacons) * per_beacon
        return len(result.samples)

    def save_samples(args, kwargs, result):
        tracer.counters["model.bytes_written"] += _file_bytes(args[1])
        return len(args[0].samples)

    def trace_samples(args, kwargs, result):
        return len(args[0].samples)

    def result_samples(args, kwargs, result):
        return len(result.samples)

    def save_name(args, kwargs):
        return f"model.save_trace.{_arg(args, kwargs, 2, 'format', 'csv')}"

    def load_name(args, kwargs):
        return f"model.load_trace.{_arg(args, kwargs, 1, 'format', 'csv')}"

    def dynamic_name(args, kwargs):
        return f"filters.smooth_trace_dynamic.w{_arg(args, kwargs, 2, 'window_n', 10)}"

    cli.main = tracer.wrap(cli.main, "cli.main")
    sim.simulate = tracer.wrap(sim.simulate, "sim.simulate", simulate_samples)
    sim.ranging_experiment = tracer.wrap(sim.ranging_experiment, "sim.ranging_experiment")
    rng.SplitMix64.next_u64 = tracer.count(rng.SplitMix64.next_u64, "rng.draws")
    filters.smooth_trace = tracer.wrap(filters.smooth_trace, "filters.smooth_trace", trace_samples)
    filters.smooth_trace_dynamic = tracer.wrap(filters.smooth_trace_dynamic, dynamic_name,
                                               trace_samples)
    model.save_trace = tracer.wrap(model.save_trace, save_name, save_samples)
    model.load_trace = tracer.wrap(model.load_trace, load_name, result_samples)
    model.Trace.__init__ = tracer.wrap(model.Trace.__init__, "model.Trace", trace_samples)
    ranging.rssi_to_distance = tracer.wrap(ranging.rssi_to_distance,
                                           "ranging.rssi_to_distance", keep=False)
    for fname in ("proximity_region", "trilaterate", "tdoa_locate", "fingerprint_locate",
                  "fingerprint_build"):
        setattr(position, fname, tracer.wrap(getattr(position, fname), f"position.{fname}"))
    codec.decode = tracer.wrap(codec.decode, "codec.decode", keep=False)
    codec.encode = tracer.wrap(codec.encode, "codec.encode", keep=False)
    for fname in ("ranging_report", "window_sweep", "write_report", "write_window_sweep"):
        setattr(evaluate, fname, tracer.wrap(getattr(evaluate, fname), f"evaluate.{fname}"))
