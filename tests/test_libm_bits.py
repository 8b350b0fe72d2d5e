"""The libm bits under the pinned traces.

The simulator's Box-Muller deviates call math.log and math.cos, the path
loss model math.log10, and the evaluation turns RSSI into distance with
Python's float pow (10.0 ** x). None of these is correctly rounded on
every platform, so the pinned sweep and site digests hold only on a libm
that rounds these arguments as this one does. This test records every
call the seed-42 sweep's first spot makes, through reproduce's pipelines,
and compares a sha256 of the distinct outputs' float.hex with the pinned
one, per function: a digest that moves on another host is then explained
by name. Distinct outputs, in order of first call, so that a function
called once per value or once per sample pins the same bits.
"""

from __future__ import annotations

import hashlib
import math
import types

from microloc import cli, evaluate, filters, ranging, rng, sim

SWEEP_WINDOWS = (2, 5, 10, 20, 50)

# function: (distinct outputs, sha256 of their float.hex, one per line in order of first call)
PINNED = {
    "log": (1200, "2615c3dfb75b0bb897401b8e482635b7ed1d62f2e9b594cf4137f5a16b8573b3"),
    "cos": (1200, "1b21be558a388c962b2a94670bd2e5462c76d35d5f71b6476cc248feb69dcd2d"),
    "log10": (1, "3b11bdf19791506ec2bdeb63c8fdb50c81678a29f81a5e2fef78489bbe2804a7"),
    "10.0 **": (8361, "6de0df1d9a1428ace2cb3796821780dd7845fe155e08a23f5ef56b937c31f9fd"),
}


def _recording_math(outputs: dict[str, list[float]]):
    """The math module, but log, cos and log10 also record what they return."""
    def recorded(name):
        fn, out = getattr(math, name), outputs[name]

        def call(x):
            y = fn(x)
            out.append(y)
            return y
        return call
    return types.SimpleNamespace(**{**vars(math),
                                    **{name: recorded(name) for name in ("log", "cos", "log10")}})


def test_libm_outputs_of_the_first_sweep_spot_match_the_pinned_bits(monkeypatch):
    outputs: dict[str, list[float]] = {name: [] for name in PINNED}
    recording = _recording_math(outputs)
    for module in (sim, rng, ranging):
        monkeypatch.setattr(module, "math", recording)
    distances = evaluate._distances

    def recorded_distances(rssi_dbm, model):
        out = distances(rssi_dbm, model)
        outputs["10.0 **"].extend(out.tolist())
        return out
    monkeypatch.setattr(evaluate, "_distances", recorded_distances)
    monkeypatch.setattr(sim, "EXPERIMENT_SPOT_COUNT", 1)
    config = cli.build_config(None, [], 42)
    evaluate.ranging_report(cli._sim_config(config), filters.params_from_config(config),
                            config["window_n"], config["q_scale"], config["bin_width_m"],
                            SWEEP_WINDOWS)
    distinct = {name: list(dict.fromkeys(map(float.hex, values)))
                for name, values in outputs.items()}
    got = {name: (len(hexes), hashlib.sha256("\n".join(hexes).encode()).hexdigest())
           for name, hexes in distinct.items()}
    moved = [f"{name}: {got[name][0]} distinct outputs, sha256 {got[name][1]}"
             for name in PINNED if got[name] != PINNED[name]]
    assert not moved, "libm bits differ from the pinned ones for " + "; ".join(moved)
