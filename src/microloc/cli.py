"""Command line interface.

    microloc [--config FILE] [--set KEY=VALUE ...] [--seed N] COMMAND ...

Commands:

    simulate SCENARIO OUT      generate a trace for a scenario file
    filter IN OUT              Kalman-smooth a trace (--mode static|dynamic)
    locate TRACE REF OUT       estimate a position from a trace plus an
                               anchors file (or fingerprint db)
    reproduce OUT_DIR          run the ten-spot ranging sweep and write
                               report.json, spot_summary.csv, error_hist.csv
    decode HEX                 decode a beacon advertisement payload

Configuration is a flat key/value table. Precedence, lowest to highest:
built-in defaults, --config JSON file, --set overrides, --seed. Unknown
keys are rejected rather than ignored.

Exit codes: 0 success, 2 for anything wrong with the input (bad config,
unreadable file, malformed payload, infeasible geometry), 1 for an
internal fault.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import EmptyInput, MicrolocError, NoAnchors

if TYPE_CHECKING:
    from . import model, position, sim

# Each command imports only the modules it runs, and calls their functions
# through the module (sim.simulate), so that one replaced there is called.

# SimConfig fields that are config keys under the same name
_SIM_KEYS = ("seed", "shadow_sigma_db", "advertising_interval_ms", "interval_jitter_ms",
             "packet_loss_prob", "duration_ms")

# Every default is the library's own, as tests/test_cli.py holds; _coerce
# takes each key's type from it.
DEFAULT_CONFIG: dict[str, int | float] = {
    # sim.SimConfig
    "seed": 0, "shadow_sigma_db": 4.0, "advertising_interval_ms": 100, "interval_jitter_ms": 10,
    "packet_loss_prob": 0.0, "duration_ms": 120_000,
    # ranging.PathLossModel
    "ref_power_dbm": -59.0, "exponent": 2.0,
    # filters.KalmanParams, then the dynamic filter's window and Q scale
    "dt": 0.2, "q": 0.001, "r": 0.1, "p0": 100.0, "window_n": 10, "q_scale": 1.0,
    # position and evaluate
    "fingerprint_k": 1, "bin_width_m": 0.25, "immediate_m": 0.5, "near_m": 4.0,
}


def _coerce(key: str, value) -> int | float:
    """Coerce a raw override onto the default's type, or raise ValueError."""
    from . import model
    try:
        if isinstance(DEFAULT_CONFIG[key], int):
            return model.as_int(value)
        return model.real(value, "value")
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def build_config(config_path: str | None, overrides: list[str] | None,
                 seed: int | None) -> dict[str, int | float]:
    """Merge defaults, config file, --set pairs and --seed, in that order."""
    config = dict(DEFAULT_CONFIG)
    if config_path is not None:
        from . import model
        doc = model.read_json(config_path)
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in doc.items():
            if key not in DEFAULT_CONFIG:
                raise ValueError(f"unknown config key {key!r} in {config_path}")
            config[key] = _coerce(key, value)
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(f"--set needs KEY=VALUE, got {item!r}")
        if key not in DEFAULT_CONFIG:
            raise ValueError(f"unknown config key {key!r}")
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError):
            raise ValueError(f"config key {key!r}: cannot parse value {raw!r}") from None
        config[key] = _coerce(key, value)
    if seed is not None:
        config["seed"] = int(seed)
    return config


def _sim_config(config: dict) -> sim.SimConfig:
    from . import ranging, sim
    return sim.SimConfig(path_loss=ranging.model_from_config(config),
                         **{key: config[key] for key in _SIM_KEYS})


def cmd_simulate(args, config: dict) -> int:
    from . import model, sim
    scenario = sim.load_scenario(args.scenario)
    trace = sim.simulate(scenario, _sim_config(config))
    model.save_trace(trace, args.out, model.trace_format_for_path(args.out))
    print(f"wrote {len(trace.samples)} samples to {args.out}")
    return 0


def cmd_filter(args, config: dict) -> int:
    from . import filters, model
    trace = model.load_trace(args.infile, model.trace_format_for_path(args.infile))
    params = filters.params_from_config(config)
    if args.mode == "static":
        smoothed = filters.smooth_trace(trace, params)
    else:
        smoothed = filters.smooth_trace_dynamic(trace, params, config["window_n"],
                                                config["q_scale"])
    model.save_trace(smoothed, args.out, model.trace_format_for_path(args.out))
    print(f"wrote {len(smoothed.samples)} samples to {args.out}")
    return 0


def _ranged_anchors(trace: model.Trace, anchors: tuple[position.Anchor, ...],
                    config: dict) -> tuple[list[position.Anchor], list[float]]:
    """Distance per anchor that appears in the trace, via mean RSSI."""
    from . import ranging
    means = trace.mean_rssi_by_beacon()
    used: list[position.Anchor] = []
    dists: list[float] = []
    for anchor in anchors:
        if anchor.beacon_id not in means:
            continue
        ref = anchor.tx_power_dbm if anchor.tx_power_dbm is not None else config["ref_power_dbm"]
        plm = ranging.PathLossModel(ref, config["exponent"])
        used.append(anchor)
        dists.append(ranging.rssi_to_distance(means[anchor.beacon_id], plm))
    if not used:
        raise NoAnchors("no anchor in the file matches a beacon in the trace")
    return used, dists


def _estimate_to_dict(est: position.PositionEstimate) -> dict:
    doc: dict = {"method": est.method.value, "position": est.position, "residual": est.residual}
    if est.region:
        doc["region"] = [{"x": c.center[0], "y": c.center[1], "radius_m": c.radius_m}
                         for c in est.region]
    return doc


def cmd_locate(args, config: dict) -> int:
    from . import model, position
    trace = model.load_trace(args.trace, model.trace_format_for_path(args.trace))
    extra: dict = {}  # what the method adds to the estimate, in document order
    if args.method == "fingerprint":
        db = position.load_fingerprint_db(args.ref)
        observation = trace.mean_rssi_by_beacon()
        if not observation:
            raise MicrolocError("trace holds no samples to build an observation from")
        est = position.fingerprint_locate(db, observation, config["fingerprint_k"])
    else:
        anchors = position.load_anchors(args.ref)
        used, dists = _ranged_anchors(trace, anchors, config)
        if args.method == "proximity":
            est = position.proximity_region(used, dists)
            extra["zones"] = {
                a.beacon_id: position.classify_proximity(
                    d, config["immediate_m"], config["near_m"]).zone.value
                for a, d in zip(used, dists)
            }
        elif args.method == "lateration":
            est = position.trilaterate(used, dists)
        else:  # tdoa: range differences against the first matched anchor
            diffs = [d - dists[0] for d in dists[1:]]
            est = position.tdoa_locate(used, diffs)
        extra["distances_m"] = {a.beacon_id: d for a, d in zip(used, dists)}
    doc = {**_estimate_to_dict(est), **extra}
    model.atomic_write_text(args.out, json.dumps(model.rounded(doc), indent=2) + "\n")
    if est.position is None:
        print(f"{args.method}: no feasible position (residual {est.residual:.3f} m)")
    else:
        print(f"{args.method}: ({est.position[0]:.3f}, {est.position[1]:.3f}) "
              f"residual {est.residual:.3f}")
    return 0


def cmd_reproduce(args, config: dict) -> int:
    from . import evaluate, filters
    sizes = [int(tok) for tok in (args.sweep_window or "").split(",") if tok.strip()]
    if args.sweep_window and not sizes:
        raise EmptyInput("--sweep-window needs at least one window size")
    report = evaluate.ranging_report(
        _sim_config(config), filters.params_from_config(config), config["window_n"],
        config["q_scale"], config["bin_width_m"], sizes,
    )
    paths = evaluate.write_report(report, args.out_dir)
    for name in evaluate.PIPELINES:
        worst = report.summary[name]["max_spot_rms_m"]
        print(f"{name}: worst-spot rms error {worst:.3f} m")
    if sizes:
        paths["window_sweep"] = evaluate.write_window_sweep(report.window_sweep, args.out_dir)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


def cmd_decode(args, config: dict) -> int:
    from . import codec
    text = args.payload.replace(":", "").replace(" ", "")
    try:
        payload = bytes.fromhex(text)
    except ValueError:
        raise ValueError(f"invalid hex payload {args.payload!r}") from None
    frame = codec.decode(payload)
    print(json.dumps(codec.frame_to_dict(frame), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microloc",
        description="Beacon micro-location: simulate, filter, range and locate.",
    )
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", dest="overrides",
                        help="override one config value (repeatable)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a trace from a scenario file")
    p.add_argument("scenario", help="scenario JSON path")
    p.add_argument("out", help="output trace path (.csv or .json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("filter", help="Kalman-smooth a trace")
    p.add_argument("infile", help="input trace path")
    p.add_argument("out", help="output trace path")
    p.add_argument("--mode", choices=("static", "dynamic"), default="static")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("locate", help="estimate a position from a trace")
    p.add_argument("trace", help="input trace path")
    p.add_argument("ref", help="anchors JSON, or fingerprint db for --method fingerprint")
    p.add_argument("out", help="output estimate JSON path")
    p.add_argument("--method", choices=("proximity", "lateration", "tdoa", "fingerprint"),
                   default="lateration")
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("reproduce", help="run the ten-spot ranging sweep and write reports")
    p.add_argument("out_dir", help="directory for report.json and CSV outputs")
    p.add_argument("--sweep-window", metavar="N,N,...",
                   help="also sweep the dynamic filter window over these sizes")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("decode", help="decode a hex advertisement payload")
    p.add_argument("payload", help="payload bytes as hex")
    p.set_defaults(func=cmd_decode)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = build_config(args.config, args.overrides, args.seed)
        return args.func(args, config)
    except (MicrolocError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal fault path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
