"""Child-process side of the benchmark.

Each mode runs in a fresh interpreter started by run.py, with microloc
imported from the checkout's ``src`` directory:

    worker.py setup WORKLOAD [FIXES_SITE]
        Import microloc and build the workload's one-time state, then print
        one JSON line and exit. run.py times this from spawn to that line.
    worker.py fixes FIXES_SITE FIXES_STREAM OUT_JSON [--trace]
        The fixes client: set up, then one closed-loop pass over every 1 s
        window of the scan stream, the next window starting when the last
        fix returns. Writes per-fix latencies, the results digest and,
        with --trace, the per-layer record to OUT_JSON. Untraced, it runs
        a burst of host-speed probes (probe.py) before the first fix and
        after every BURST_EVERY fixes.
    worker.py cli OUT_JSON ARG...
        Run ``microloc ARG...`` in-process with tracing installed and write
        the per-layer record to OUT_JSON. Exits with the CLI's exit code.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from gen import EDDYSTONE_0M_OFFSET_DB

_clock = time.perf_counter_ns

FINGERPRINT_K = 3
BURST_EVERY = 50


def _import_microloc() -> int:
    t0 = _clock()
    import microloc  # noqa: F401
    import microloc.cli  # noqa: F401
    return _clock() - t0


def _round12(v: float) -> float:
    return float(f"{v:.12g}")


def _write_json(doc, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


# --- the fixes client ---

class FixClient:
    """One positioning client: fingerprint DB, anchors and the fix pipeline."""

    def __init__(self, doc: dict):
        from microloc import model, position

        self.exponent = float(doc["exponent"])
        self.anchors = tuple(
            position.Anchor(a["beacon_id"], (a["x"], a["y"]), a["tx_power_dbm"])
            for a in doc["anchors"]
        )
        surveys = []
        for point in doc["survey"]:
            samples = tuple(model.RssiSample(0, bid, float(rssi)) for bid, rssi in point["samples"])
            surveys.append(((point["x"], point["y"]), model.Trace(samples)))
        self.db = position.fingerprint_build(surveys)

    def fix(self, records, method: str):
        """Locate from one window of (timestamp, rssi, payload) records.

        Returns (estimate, method actually used). A solver that does not
        converge falls back to the next in tdoa -> lateration -> proximity,
        as a client wanting a position would; the tracer still counts each
        NoConvergence, and the failed attempt's time stays in the fix.
        """
        from microloc import codec, model, position, ranging
        from microloc.errors import NoConvergence

        samples = []
        for t, rssi, payload in records:
            frame = codec.decode(payload)
            power = codec.measured_power(frame)
            if power is None:
                continue  # telemetry: no identity and no reference power
            beacon_id, ref_1m = _identity(codec, frame, power)
            samples.append(model.RssiSample(t, beacon_id, rssi, ref_1m))
        trace = model.Trace(tuple(samples))
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        refs: dict[str, float] = {}
        for s in trace.samples:
            sums[s.beacon_id] = sums.get(s.beacon_id, 0.0) + s.rssi_dbm
            counts[s.beacon_id] = counts.get(s.beacon_id, 0) + 1
            refs[s.beacon_id] = s.tx_power_dbm
        means = {b: sums[b] / counts[b] for b in sums}
        if method == "fingerprint":
            return position.fingerprint_locate(self.db, means, FINGERPRINT_K), method
        used = [a for a in self.anchors if a.beacon_id in means]
        dists = [
            ranging.rssi_to_distance(means[a.beacon_id],
                                     ranging.PathLossModel(refs[a.beacon_id], self.exponent))
            for a in used
        ]
        if method == "tdoa":
            try:
                return position.tdoa_locate(used, [d - dists[0] for d in dists[1:]]), method
            except NoConvergence:
                method = "lateration"
        if method == "lateration":
            try:
                return position.trilaterate(used, dists), method
            except NoConvergence:
                pass
        return position.proximity_region(used, dists), "proximity"


def _identity(codec, frame, power: int) -> tuple[str, float]:
    """Beacon id and 1 m reference power of an identity frame."""
    if isinstance(frame, codec.IBeaconFrame):
        return f"ib-{frame.uuid.hex()}-{frame.major}-{frame.minor}", float(power)
    if isinstance(frame, codec.AltBeaconFrame):
        return f"alt-{frame.beacon_id.hex()}", float(power)
    if isinstance(frame, codec.EddystoneUidFrame):
        return f"uid-{frame.namespace.hex()}{frame.instance.hex()}", float(power - EDDYSTONE_0M_OFFSET_DB)
    if isinstance(frame, codec.EddystoneEidFrame):
        return f"eid-{frame.eid.hex()}", float(power - EDDYSTONE_0M_OFFSET_DB)
    raise ValueError(f"unexpected frame {type(frame).__name__}")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _windows(doc: dict) -> list[list[tuple]]:
    windows: list[list[tuple]] = [[] for _ in range(doc["windows"])]
    width = doc["window_ms"]
    for t, rssi, payload in doc["records"]:
        windows[t // width].append((t, rssi, bytes.fromhex(payload)))
    return windows


def run_fixes(site_path: str, stream_path: str, out_path: str, traced: bool) -> int:
    tracer = None
    if traced:
        from tracing import Tracer, install
        tracer = Tracer()
    import_ns = _import_microloc()
    if tracer is not None:
        install(tracer)
    from microloc import codec
    from microloc.errors import MicrolocError

    t0 = _clock()
    client = FixClient(_load_json(site_path))
    setup_ns = _clock() - t0
    stream = _load_json(stream_path)
    windows = _windows(stream)

    if not traced:
        import probe
    bursts = []
    latencies = []
    rows = []
    failures: dict[str, int] = {}
    fallbacks = 0
    for index, (records, method) in enumerate(zip(windows, stream["methods"])):
        if not traced and index % BURST_EVERY == 0:
            bursts.append(round(probe.burst() * 1e9))
        t0 = _clock()
        try:
            est, used = client.fix(records, method)
        except MicrolocError as exc:
            latencies.append(_clock() - t0)
            failures[type(exc).__name__] = failures.get(type(exc).__name__, 0) + 1
            rows.append([index, method, type(exc).__name__])
            continue
        latencies.append(_clock() - t0)
        fallbacks += used != method
        pos = None if est.position is None else [_round12(v) for v in est.position]
        rows.append([index, used, pos, _round12(est.residual)])

    if not traced:
        bursts.append(round(probe.burst() * 1e9))

    payloads = {p for records in windows for _, _, p in records}
    round_trip_ok = all(codec.encode(codec.decode(p)) == p for p in sorted(payloads))

    result = {
        "import_ns": import_ns,
        "setup_ns": setup_ns,
        "latencies_ns": latencies,
        "bursts_ns": bursts,
        "burst_every": BURST_EVERY,
        "failures": failures,
        "fallbacks": fallbacks,
        "round_trip_ok": round_trip_ok,
        "digest": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    _write_json(result, out_path)
    return 0


def run_traced_cli(out_path: str, argv: list[str]) -> int:
    from tracing import Tracer, install

    tracer = Tracer()
    import_ns = _import_microloc()
    install(tracer)
    from microloc import cli

    code = cli.main(argv)
    _write_json({"import_ns": import_ns, "exit": code, "trace": tracer.dump()}, out_path)
    return code


def run_setup(workload: str, fixes_site: str | None) -> int:
    _import_microloc()
    if workload == "fixes":
        FixClient(_load_json(fixes_site))
    import microloc
    import numpy

    print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                      "microloc": microloc.__file__}), flush=True)
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        return run_setup(argv[1], argv[2] if len(argv) > 2 else None)
    if mode == "fixes":
        return run_fixes(argv[1], argv[2], argv[3], "--trace" in argv[4:])
    if mode == "cli":
        return run_traced_cli(argv[1], argv[2:])
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
