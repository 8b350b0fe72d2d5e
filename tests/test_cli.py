"""Command line behaviour: config precedence, commands, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from microloc import cli, evaluate, filters, position, sim
from microloc.cli import DEFAULT_CONFIG, build_config, main
from microloc.errors import InvalidScenario
from microloc.model import RssiSample, Trace, load_trace, save_trace


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


ANCHORS = [
    {"beacon_id": "b0", "x": 0.0, "y": 0.0, "tx_power_dbm": -59.0},
    {"beacon_id": "b1", "x": 8.0, "y": 0.0, "tx_power_dbm": -59.0},
    {"beacon_id": "b2", "x": 0.0, "y": 8.0, "tx_power_dbm": -59.0},
]
SCENARIO = {"beacons": ANCHORS, "device_path": [{"start_ms": 0, "x": 2.0, "y": 1.0}]}


@pytest.fixture
def scenario_path(tmp_path):
    return write_json(tmp_path / "scenario.json", SCENARIO)


@pytest.fixture
def anchors_path(tmp_path):
    return write_json(tmp_path / "anchors.json", ANCHORS)


QUIET = ["--set", "shadow_sigma_db=0.0", "--set", "interval_jitter_ms=0",
         "--set", "duration_ms=5000"]


# --- config assembly ---

def test_defaults_pass_through():
    assert build_config(None, None, None) == DEFAULT_CONFIG


def test_config_file_overrides_defaults(tmp_path):
    path = write_json(tmp_path / "cfg.json", {"exponent": 2.5, "window_n": 20})
    cfg = build_config(path, None, None)
    assert cfg["exponent"] == 2.5
    assert cfg["window_n"] == 20
    assert cfg["seed"] == 0


def test_set_overrides_config_file(tmp_path):
    path = write_json(tmp_path / "cfg.json", {"exponent": 2.5})
    cfg = build_config(path, ["exponent=3.0"], None)
    assert cfg["exponent"] == 3.0


def test_seed_flag_beats_set():
    cfg = build_config(None, ["seed=7"], 11)
    assert cfg["seed"] == 11


def test_integer_keys_accept_integral_floats_only():
    assert build_config(None, ["window_n=20.0"], None)["window_n"] == 20
    with pytest.raises(ValueError):
        build_config(None, ["window_n=20.5"], None)


def test_unknown_and_malformed_overrides_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown config key"):
        build_config(None, ["no_such_key=1"], None)
    with pytest.raises(ValueError, match="unknown config key"):
        build_config(write_json(tmp_path / "c.json", {"bogus": 1}), None, None)
    with pytest.raises(ValueError, match="KEY=VALUE"):
        build_config(None, ["window_n"], None)
    with pytest.raises(ValueError, match="cannot parse"):
        build_config(None, ["exponent=abc"], None)
    with pytest.raises(ValueError,
                       match="^config key 'exponent': value must be a number, got True$"):
        build_config(None, ["exponent=true"], None)
    with pytest.raises(ValueError, match="JSON object"):
        build_config(write_json(tmp_path / "l.json", [1, 2]), None, None)


# --- simulate / filter ---

def test_simulate_writes_deterministic_csv(tmp_path, scenario_path):
    out1 = str(tmp_path / "t1.csv")
    out2 = str(tmp_path / "t2.csv")
    assert main(["--seed", "5", *QUIET, "simulate", scenario_path, out1]) == 0
    assert main(["--seed", "5", *QUIET, "simulate", scenario_path, out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()
    trace = load_trace(out1)
    assert trace.beacon_ids() == ("b0", "b1", "b2")


def test_simulate_json_output(tmp_path, scenario_path):
    out = str(tmp_path / "t.json")
    assert main(["--seed", "5", *QUIET, "simulate", scenario_path, out]) == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["samples"]


def test_seed_changes_simulated_noise(tmp_path, scenario_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    noisy = ["--set", "duration_ms=5000"]
    assert main(["--seed", "1", *noisy, "simulate", scenario_path, out1]) == 0
    assert main(["--seed", "2", *noisy, "simulate", scenario_path, out2]) == 0
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


def test_filter_static_and_dynamic(tmp_path, scenario_path):
    raw = str(tmp_path / "raw.csv")
    assert main(["--seed", "3", "--set", "duration_ms=20000", "simulate",
                 scenario_path, raw]) == 0
    for mode in ("static", "dynamic"):
        out = str(tmp_path / f"{mode}.csv")
        assert main(["filter", raw, out, "--mode", mode]) == 0
        smoothed = load_trace(out)
        assert len(smoothed.samples) == len(load_trace(raw).samples)
        assert smoothed.metadata["filter"] == ("kalman" if mode == "static"
                                               else "kalman_dynamic_q")


def test_filter_dynamic_rejects_single_sample_stream(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("timestamp_ms,beacon_id,rssi_dbm,tx_power_dbm,channel\n"
                    "0,b0,-60.0000,-59.0000,37\n")
    out = str(tmp_path / "out.csv")
    assert main(["filter", str(path), out, "--mode", "dynamic"]) == 2
    err = capsys.readouterr().err
    assert "InsufficientSamples" in err


def test_missing_input_exits_2(tmp_path, capsys):
    assert main(["filter", str(tmp_path / "absent.csv"), str(tmp_path / "o.csv")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("offset", [100, 400_000])
@pytest.mark.parametrize("format", ["csv", "json"])
def test_invalid_utf8_names_its_offset_in_the_file(tmp_path, capsys, format, offset):
    # a file read a block at a time still names the byte's offset in the
    # file, not in the piece being decoded
    path = str(tmp_path / f"t.{format}")
    save_trace(Trace([RssiSample(i, f"b{i % 3}", -60.0 - i % 7, -59.0, 37 + i % 3)
                      for i in range(15_000)]), path, format)
    assert os.path.getsize(path) > 400_000
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(b"\xff")
    assert main(["filter", path, str(tmp_path / "o.csv")]) == 2
    assert f"can't decode byte 0xff in position {offset}: invalid start byte" in capsys.readouterr().err


# --- locate ---

def simulate_quiet(tmp_path, scenario_path) -> str:
    raw = str(tmp_path / "trace.csv")
    assert main(["--seed", "9", *QUIET, "simulate", scenario_path, raw]) == 0
    return raw


def test_locate_lateration_recovers_position(tmp_path, scenario_path, anchors_path):
    trace = simulate_quiet(tmp_path, scenario_path)
    out = tmp_path / "est.json"
    assert main(["locate", trace, anchors_path, str(out),
                 "--method", "lateration"]) == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "lateration"
    # noise-free trace, exact path-loss model: recover (2, 1) to the quantizer
    assert doc["position"][0] == pytest.approx(2.0, abs=1e-3)
    assert doc["position"][1] == pytest.approx(1.0, abs=1e-3)
    assert set(doc["distances_m"]) == {"b0", "b1", "b2"}


def test_locate_proximity_reports_zones(tmp_path, scenario_path, anchors_path):
    trace = simulate_quiet(tmp_path, scenario_path)
    out = tmp_path / "est.json"
    assert main(["locate", trace, anchors_path, str(out), "--method", "proximity"]) == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "proximity"
    assert doc["zones"]["b0"] == "near"      # ~2.24 m
    assert doc["zones"]["b1"] == "far"       # ~6.08 m
    assert doc["region"]


def test_locate_tdoa(tmp_path, scenario_path, anchors_path):
    trace = simulate_quiet(tmp_path, scenario_path)
    out = tmp_path / "est.json"
    assert main(["locate", trace, anchors_path, str(out), "--method", "tdoa"]) == 0
    doc = json.loads(out.read_text())
    assert doc["position"][0] == pytest.approx(2.0, abs=1e-2)
    assert doc["position"][1] == pytest.approx(1.0, abs=1e-2)


def test_locate_fingerprint(tmp_path, scenario_path):
    trace = simulate_quiet(tmp_path, scenario_path)
    db = position.FingerprintDb(entries=(
        position.Fingerprint((2.0, 1.0), {"b0": -65.9897, "b1": -74.6833, "b2": -76.2428}),
        position.Fingerprint((6.0, 6.0), {"b0": -77.0, "b1": -74.0, "b2": -74.0}),
    ))
    db_path = str(tmp_path / "db.json")
    position.save_fingerprint_db(db, db_path)
    out = tmp_path / "est.json"
    assert main(["locate", trace, db_path, str(out), "--method", "fingerprint"]) == 0
    doc = json.loads(out.read_text())
    assert doc["position"] == [2.0, 1.0]


def test_locate_with_two_anchors_exits_2(tmp_path, scenario_path, capsys):
    trace = simulate_quiet(tmp_path, scenario_path)
    two = write_json(tmp_path / "two.json", [
        {"beacon_id": "b0", "x": 0.0, "y": 0.0},
        {"beacon_id": "b1", "x": 8.0, "y": 0.0},
    ])
    assert main(["locate", trace, two, str(tmp_path / "o.json"),
                 "--method", "lateration"]) == 2
    assert "at least three anchors" in capsys.readouterr().err


def test_locate_fingerprint_empty_db_exits_2(tmp_path, scenario_path, capsys):
    trace = simulate_quiet(tmp_path, scenario_path)
    empty = write_json(tmp_path / "empty_db.json",
                       {"metric": "euclidean", "entries": []})
    assert main(["locate", trace, empty, str(tmp_path / "o.json"),
                 "--method", "fingerprint"]) == 2
    assert "at least one entry" in capsys.readouterr().err


@pytest.mark.parametrize("metric", [None, 5])
def test_locate_fingerprint_names_a_metric_that_is_not_a_string(tmp_path, scenario_path, capsys,
                                                               metric):
    trace = simulate_quiet(tmp_path, scenario_path)
    db = write_json(tmp_path / "db.json", {"metric": metric, "entries": [
        {"x": 2.0, "y": 1.0, "signature": {"b0": -66.0}}]})
    assert main(["locate", trace, db, str(tmp_path / "o.json"), "--method", "fingerprint"]) == 2
    assert (f"error: ValueError: metric must be euclidean or manhattan, got {metric!r}\n"
            in capsys.readouterr().err)


def test_locate_without_matching_anchors_exits_2(tmp_path, scenario_path, capsys):
    trace = simulate_quiet(tmp_path, scenario_path)
    other = write_json(tmp_path / "other.json", [
        {"beacon_id": "zz", "x": 0.0, "y": 0.0},
        {"beacon_id": "zy", "x": 1.0, "y": 0.0},
        {"beacon_id": "zx", "x": 0.0, "y": 1.0},
    ])
    assert main(["locate", trace, other, str(tmp_path / "o.json")]) == 2
    assert "NoAnchors" in capsys.readouterr().err


def _bool_x(doc, index: int):
    """A copy of a JSON list of objects whose item index has x = true."""
    doc = json.loads(json.dumps(doc))
    doc[index]["x"] = True
    return doc


def test_locate_rejects_bool_in_anchors_file(tmp_path, scenario_path, capsys):
    trace = simulate_quiet(tmp_path, scenario_path)
    anchors = write_json(tmp_path / "anchors.json", _bool_x(ANCHORS, 0))
    assert main(["locate", trace, anchors, str(tmp_path / "o.json")]) == 2
    assert "error: ValueError: anchor 0: " in capsys.readouterr().err


def test_locate_rejects_bool_in_fingerprint_db(tmp_path, scenario_path, capsys):
    trace = simulate_quiet(tmp_path, scenario_path)
    entries = _bool_x([{"x": 2.0, "y": 1.0, "signature": {"b0": -66.0}}], 0)
    db = write_json(tmp_path / "db.json", {"metric": "euclidean", "entries": entries})
    assert main(["locate", trace, db, str(tmp_path / "o.json"), "--method", "fingerprint"]) == 2
    assert "error: ValueError: entry 0: " in capsys.readouterr().err


def test_simulate_rejects_bool_in_scenario_file(tmp_path, capsys):
    path = [{"start_ms": 0, "x": 2.0, "y": 1.0}, {"start_ms": 100, "x": 3.0, "y": 1.0}]
    doc = write_json(tmp_path / "scenario.json",
                     {"beacons": ANCHORS, "device_path": _bool_x(path, 1)})
    out = tmp_path / "trace.csv"
    assert main(["simulate", doc, str(out)]) == 2
    assert "error: InvalidScenario: device_path 1: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("beacon_id", [None, 5])
def test_filter_rejects_json_trace_beacon_id_that_is_not_a_string(tmp_path, capsys, beacon_id):
    sample = {"timestamp_ms": 0, "beacon_id": beacon_id, "rssi_dbm": -60.0}
    trace = write_json(tmp_path / "trace.json", {"samples": [sample]})
    assert main(["filter", trace, str(tmp_path / "o.json")]) == 2
    assert ("error: TraceFormatError: sample 0: beacon_id must be a string"
            in capsys.readouterr().err)


@pytest.mark.parametrize("beacon_id", [None, 5])
def test_locate_rejects_anchor_beacon_id_that_is_not_a_string(tmp_path, scenario_path, capsys,
                                                              beacon_id):
    trace = simulate_quiet(tmp_path, scenario_path)
    anchors = write_json(tmp_path / "anchors.json",
                         [dict(ANCHORS[0], beacon_id=beacon_id), *ANCHORS[1:]])
    assert main(["locate", trace, anchors, str(tmp_path / "o.json")]) == 2
    assert (f"error: ValueError: anchor 0: beacon_id must be a str, got {beacon_id!r}"
            in capsys.readouterr().err)


# --- reproduce ---

def test_reproduce_writes_reports_deterministically(tmp_path, capsys):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    assert main(["--seed", "42", "reproduce", str(d1)]) == 0
    out = capsys.readouterr().out
    assert "worst-spot rms error" in out
    assert main(["--seed", "42", "reproduce", str(d2)]) == 0
    for name in ("report.json", "spot_summary.csv", "error_hist.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_reproduce_window_sweep_flag(tmp_path):
    d = tmp_path / "r"
    assert main(["--seed", "1", "reproduce", str(d), "--sweep-window", "2,5"]) == 0
    rows = (d / "window_sweep.csv").read_text().splitlines()
    assert rows[0] == "window_n,max_spot_rms_m,mean_accuracy_m"
    assert len(rows) == 3


def test_reproduce_bad_sweep_window_exits_2(tmp_path, capsys):
    assert main(["reproduce", str(tmp_path / "r"), "--sweep-window", "1,5"]) == 2
    assert ">= 2" in capsys.readouterr().err


# --- decode ---

IBEACON_HEX = "4c000215" + "00112233445566778899aabbccddeeff" + "0001" + "0002" + "c5"


def test_decode_ibeacon(capsys):
    assert main(["decode", IBEACON_HEX]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["frame_type"] == "ibeacon"
    assert doc["major"] == 1
    assert doc["minor"] == 2
    assert doc["power_dbm"] == -59


def test_decode_accepts_separators(capsys):
    spaced = " ".join(IBEACON_HEX[i:i + 2] for i in range(0, len(IBEACON_HEX), 2))
    assert main(["decode", spaced]) == 0
    assert main(["decode", spaced.replace(" ", ":")]) == 0


def test_decode_invalid_hex_exits_2(capsys):
    assert main(["decode", "zz00"]) == 2
    assert "invalid hex payload" in capsys.readouterr().err
    assert main(["decode", "4c0"]) == 2  # odd length
    assert "invalid hex payload" in capsys.readouterr().err


def test_decode_truncated_frame_exits_2(capsys):
    assert main(["decode", "4c000215aabb"]) == 2
    assert "FrameTooShort" in capsys.readouterr().err


def test_decode_unknown_protocol_exits_2(capsys):
    assert main(["decode", "dead"]) == 2
    assert "UnknownProtocol" in capsys.readouterr().err


def test_console_entry_runs_as_a_process():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    run = [sys.executable, "-m", "microloc.cli", "decode"]
    good = subprocess.run([*run, IBEACON_HEX], env=env, capture_output=True, text=True,
                          timeout=60)
    assert good.returncode == 0
    assert json.loads(good.stdout)["frame_type"] == "ibeacon"
    bad = subprocess.run([*run, "zz00"], env=env, capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: ")


# --- argparse plumbing ---

def test_no_command_exits_nonzero(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_set_key_via_main(tmp_path, scenario_path, capsys):
    assert main(["--set", "bogus=1", "simulate", scenario_path,
                 str(tmp_path / "t.csv")]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


# --- hostile JSON at every input boundary ---

HOSTILE_NUMBER = "9" * 400  # a valid JSON integer that overflows float()
HOSTILE_NESTING = "[" * 5000  # deeper than the JSON decoder's recursion limit

# boundary -> (document with @ where a number goes, command line given doc/trace/out paths)
JSON_BOUNDARIES = {
    "anchors": ('[{"beacon_id": "b0", "x": @, "y": 0}]',
                lambda doc, trace, out: ["locate", trace, doc, out]),
    "scenario": ('{"beacons": [{"beacon_id": "b0", "x": 0, "y": 0}],'
                 ' "device_path": [{"start_ms": 0, "x": @, "y": 0}]}',
                 lambda doc, trace, out: ["simulate", doc, out]),
    "trace": ('{"samples": [{"timestamp_ms": 0, "beacon_id": "b0", "rssi_dbm": @}]}',
              lambda doc, trace, out: ["filter", doc, out]),
    "fingerprint db": ('{"entries": [{"x": 0, "y": 0, "signature": {"b0": @}}]}',
                       lambda doc, trace, out: ["locate", trace, doc, out,
                                                "--method", "fingerprint"]),
    "config": ('{"q": @}', lambda doc, trace, out: ["--config", doc, "decode", "00"]),
}


@pytest.mark.parametrize("hostile", ["number", "nesting"])
@pytest.mark.parametrize("boundary", [*JSON_BOUNDARIES, "--set"])
def test_hostile_json_exits_2(tmp_path, capsys, boundary, hostile):
    value = HOSTILE_NUMBER if hostile == "number" else HOSTILE_NESTING
    if boundary == "--set":
        argv = ["--set", "q=" + value, "decode", "00"]
    else:
        template, make_argv = JSON_BOUNDARIES[boundary]
        doc = tmp_path / "doc.json"
        doc.write_text(template.replace("@", value) if hostile == "number" else value)
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp_ms,beacon_id,rssi_dbm,tx_power_dbm,channel\n"
                         "0,b0,-60.0000,-59.0000,37\n")
        argv = make_argv(str(doc), str(trace), str(tmp_path / "out.json"))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# --- byte-identical reproduce artifacts ---

def test_reproduce_matches_pinned_sweep_digests(tmp_path, capsys):
    """The seed-42 sweep artifacts hash to the digests the benchmark pins."""
    pinned = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    doc = json.loads(pinned.read_text(encoding="utf-8"))
    assert doc["seed"] == 42
    assert main(["--seed", "42", "reproduce", str(tmp_path / "report"),
                 "--sweep-window", "2,5,10,20,50"]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in doc["digests"]["sweep"]}
    assert digests == doc["digests"]["sweep"]


# --- one pass, one source ---

def test_reproduce_simulates_and_filters_each_spot_once(tmp_path, monkeypatch, capsys):
    calls = {"ranging_experiment": 0, "smooth_trace_dynamic": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(sim, "ranging_experiment")
    count(filters, "smooth_trace_dynamic")
    assert main(["--seed", "42", "reproduce", str(tmp_path / "r"),
                 "--sweep-window", "2,5,10,20,50"]) == 0
    # ten spots, each filtered once per distinct window in (window_n=10, 2, 5, 10, 20, 50)
    assert calls == {"ranging_experiment": 1, "smooth_trace_dynamic": 10 * 5}
    for bad in (",", "1"):
        assert main(["reproduce", str(tmp_path / "bad"), "--sweep-window", bad]) == 2
    assert calls["ranging_experiment"] == 1  # rejected before simulating
    capsys.readouterr()

    report = evaluate.ranging_report(sim.SimConfig(seed=42), window_sizes=(10, 2, 2))
    assert [row["window_n"] for row in report.window_sweep] == [10, 2, 2]
    assert report.window_sweep[0]["max_spot_rms_m"] == report.summary["dynamic"]["max_spot_rms_m"]
    assert report.window_sweep[1] == report.window_sweep[2]


def test_cli_defaults_are_the_librarys():
    assert cli._sim_config(DEFAULT_CONFIG) == sim.SimConfig(seed=0)
    assert filters.params_from_config(DEFAULT_CONFIG) == filters.default_params()
    assert DEFAULT_CONFIG["window_n"] == filters.DEFAULT_WINDOW_N
    assert DEFAULT_CONFIG["q_scale"] == filters.DEFAULT_Q_SCALE
    assert DEFAULT_CONFIG["bin_width_m"] == evaluate.DEFAULT_BIN_WIDTH_M
    assert DEFAULT_CONFIG["immediate_m"] == position.IMMEDIATE_THRESHOLD_M
    assert DEFAULT_CONFIG["near_m"] == position.NEAR_THRESHOLD_M
    assert DEFAULT_CONFIG["fingerprint_k"] == position.DEFAULT_FINGERPRINT_K
    # _coerce takes each key's type from its default
    assert type(DEFAULT_CONFIG["packet_loss_prob"]) is float
    assert type(DEFAULT_CONFIG["advertising_interval_ms"]) is int


@pytest.mark.parametrize("argv", [
    ["--set", "dt=1e308", "filter", "{trace}", "{out}"],
    ["--set", "q=1e308", "filter", "{trace}", "{out}"],
    ["--set", "q=1e308", "--set", "q_scale=1e308", "filter", "--mode", "dynamic",
     "{trace}", "{out}"],
    ["--set", "dt=1e308", "--seed", "42", "reproduce", "{out}"],
], ids=["dt-static", "q-static", "q-dynamic", "dt-reproduce"])
def test_diverged_filter_exits_2(tmp_path, capsys, argv):
    trace = tmp_path / "t.csv"
    trace.write_text("timestamp_ms,beacon_id,rssi_dbm,tx_power_dbm,channel\n" + "".join(
        f"{100 * i},b0,{-60 - i % 5}.0000,-59.0000,37\n" for i in range(20)))
    out = tmp_path / "out.csv"
    assert main([arg.format(trace=trace, out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError") and "'b0'" in err
    assert not out.exists()


# --- resource bounds ---

def test_simulate_refuses_oversized_request_before_allocating(scenario_path, tmp_path,
                                                               monkeypatch, capsys):
    import tracemalloc

    def no_generator(seed):
        raise AssertionError("simulation started")
    monkeypatch.setattr(sim, "SplitMix64", no_generator)
    out = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        code = main(["--set", "duration_ms=1000000000000000", "simulate", scenario_path, str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidScenario") and str(sim.MAX_SIM_EVENTS) in err
    assert peak < 1 << 20
    assert not out.exists()


def test_simulate_schedule_past_int64_exits_2(scenario_path, tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["--set", "duration_ms=9223372036854775813",
                 "--set", "advertising_interval_ms=4611686018427387904",
                 "--set", "interval_jitter_ms=0", "simulate", scenario_path, str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidScenario") and "2**63" in err
    assert not out.exists()


def test_simulate_cap_is_on_all_events():
    scenario = sim.Scenario(beacons=tuple(position.Anchor(f"b{i}", (float(i), 0.0))
                                          for i in range(4)),
                            device_path=((0, (0.0, 1.0)),))
    per_beacon = sim.MAX_SIM_EVENTS // 4
    with pytest.raises(InvalidScenario):
        sim.simulate(scenario, sim.SimConfig(seed=1, duration_ms=100 * per_beacon + 1))
    assert sim.MAX_SIM_EVENTS >= 10 * 60_000


# --- byte-identical site chain ---

def test_site_chain_matches_pinned_digests(tmp_path, monkeypatch, capsys):
    """The seed-42 site CLI chain writes the eight artifacts the benchmark pins."""
    import importlib.util

    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_gen", bench / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    doc = json.loads((bench / "expected.json").read_text(encoding="utf-8"))
    assert doc["seed"] == 42
    monkeypatch.chdir(tmp_path)
    gen.write_site(42, "scenario.json", "anchors.json")
    chain = [
        ["--seed", "42", "--set", f"duration_ms={gen.SITE_DURATION_MS}",
         "simulate", "scenario.json", "raw.csv"],
        ["filter", "raw.csv", "static.csv", "--mode", "static"],
        ["filter", "raw.csv", "dynamic.json", "--mode", "dynamic"],
        ["locate", "static.csv", "anchors.json", "lateration.json", "--method", "lateration"],
        ["locate", "dynamic.json", "anchors.json", "tdoa.json", "--method", "tdoa"],
        ["locate", "static.csv", "anchors.json", "proximity.json", "--method", "proximity"],
    ]
    for argv in chain:
        assert main(argv) == 0, argv
    capsys.readouterr()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in doc["digests"]["site"]}
    assert digests == doc["digests"]["site"]


@pytest.mark.parametrize("width", ["1e-300", "1e-9"])
def test_tiny_bin_width_exits_2_before_allocating_bins(width, tmp_path, monkeypatch, capsys):
    import tracemalloc

    histogram = evaluate.error_histogram
    peaks = []

    def traced_histogram(errors_m, bin_width_m):
        tracemalloc.start()
        try:
            return histogram(errors_m, bin_width_m)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    monkeypatch.setattr(evaluate, "error_histogram", traced_histogram)
    out = tmp_path / "out"
    assert main(["--seed", "1", "--set", f"bin_width_m={width}", "reproduce", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError") and str(evaluate.MAX_HIST_BINS) in err
    assert len(peaks) == 1 and peaks[0] < 1 << 20
    assert not (out / "report.json").exists()


# --- every --set value through every command ---

SET_VALUES = ["NaN", "Infinity", "-Infinity", "1e308", "-1e308", "-1", "0", "true", '"x"',
              "[1]", "null"]

# command -> (arguments before the drawn --set, arguments after it)
SET_COMMANDS = {
    "simulate": (["--set", "duration_ms=2000"], ["simulate", "{scenario}", "{out}/sim.csv"]),
    "filter static": ([], ["filter", "{trace}", "{out}/static.csv"]),
    "filter dynamic": ([], ["filter", "--mode", "dynamic", "{trace}", "{out}/dynamic.json"]),
    **{f"locate {method}": ([], ["locate", "{trace}", "{anchors}", "{out}/est.json",
                                 "--method", method])
       for method in ("proximity", "lateration", "tdoa")},
    "locate fingerprint": ([], ["locate", "{trace}", "{db}", "{out}/est.json",
                                "--method", "fingerprint"]),
    "reproduce": ([], ["reproduce", "{out}/report"]),
}


@pytest.fixture(scope="module")
def set_inputs(tmp_path_factory):
    """Every command's input files, and a directory for its outputs."""
    d = tmp_path_factory.mktemp("set")
    paths = {"scenario": write_json(d / "scenario.json", SCENARIO),
             "anchors": write_json(d / "anchors.json", ANCHORS),
             "db": str(d / "db.json"), "trace": str(d / "trace.csv"), "out": str(d)}
    position.save_fingerprint_db(position.FingerprintDb(entries=(
        position.Fingerprint((2.0, 1.0), {"b0": -66.0, "b1": -74.7, "b2": -76.2}),
        position.Fingerprint((6.0, 6.0), {"b0": -77.0, "b1": -74.0, "b2": -74.0}),
    )), paths["db"])
    assert main(["--set", "duration_ms=2000", "simulate", paths["scenario"], paths["trace"]]) == 0
    return paths


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(key=st.sampled_from(sorted(DEFAULT_CONFIG)), value=st.sampled_from(SET_VALUES),
       command=st.sampled_from(sorted(SET_COMMANDS)))
def test_any_set_value_exits_0_or_2(set_inputs, key, value, command):
    before, after = SET_COMMANDS[command]
    argv = [*before, "--set", f"{key}={value}", *(arg.format(**set_inputs) for arg in after)]
    assert main(argv) in (0, 2)


@pytest.mark.parametrize("value, message", [
    ("1.5", "config key 'window_n': expected an integer, got 1.5"),
    ('"3"', "config key 'window_n': expected an integer, got '3'"),
    ("true", "config key 'window_n': expected an integer, got True"),
])
def test_integer_key_messages(value, message):
    with pytest.raises(ValueError) as info:
        build_config(None, [f"window_n={value}"], None)
    assert str(info.value) == message


@pytest.mark.parametrize("command", ["filter dynamic", "reproduce"])
def test_window_n_beyond_int64_exits_0(set_inputs, command):
    before, after = SET_COMMANDS[command]
    argv = [*before, "--set", "window_n=1e308", *(arg.format(**set_inputs) for arg in after)]
    assert main(argv) == 0


# --- locate --method fingerprint bytes ---

FINGERPRINT_DB = {"entries": [
    {"x": 1.1, "y": 2.2, "signature": {"b0": -66.0, "b1": -75.5, "b2": -76.25}},
    {"x": 2.2, "y": 0.7, "signature": {"b0": -70.0, "b1": -71.0, "b2": -79.0}},
    {"x": 6.0, "y": 6.0, "signature": {"b0": -77.0, "b1": -74.0, "b2": -74.0}},
]}
# sha256 of the estimate these inputs give, rounded to 12 significant digits
FINGERPRINT_ESTIMATE_SHA256 = "808157721edff15754861c89324cd0372c90db8f30bb18ee20de0d221c5ad887"


def test_locate_fingerprint_matches_pinned_digest(tmp_path, scenario_path, capsys):
    raw = str(tmp_path / "trace.csv")
    assert main(["--seed", "9", "--set", "duration_ms=5000", "simulate", scenario_path, raw]) == 0
    db = write_json(tmp_path / "db.json", FINGERPRINT_DB)
    out = tmp_path / "est.json"
    assert main(["--set", "fingerprint_k=2", "locate", raw, db, str(out),
                 "--method", "fingerprint"]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FINGERPRINT_ESTIMATE_SHA256


# --- scenario start_ms ---

def write_two_stop_scenario(path, start: str) -> str:
    """A scenario whose second device_path entry has start_ms given as JSON text."""
    path.write_text('{"beacons": [{"beacon_id": "b0", "x": 0, "y": 0}], "device_path": '
                    '[{"start_ms": 0, "x": 1, "y": 0}, '
                    '{"start_ms": ' + start + ', "x": 2, "y": 0}]}')
    return str(path)


@pytest.mark.parametrize("start", ["1.9", "true", '"100"'])
def test_simulate_rejects_non_integer_start_ms(tmp_path, capsys, start):
    doc = write_two_stop_scenario(tmp_path / "scenario.json", start)
    out = tmp_path / "trace.csv"
    assert main(["simulate", doc, str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: InvalidScenario: ")
    assert not out.exists()


def test_simulate_takes_integer_valued_start_ms(tmp_path, capsys):
    traces = []
    for start in ("100", "100.0"):
        doc = write_two_stop_scenario(tmp_path / "scenario.json", start)
        out = tmp_path / f"trace-{start}.csv"
        assert main([*QUIET, "simulate", doc, str(out)]) == 0
        traces.append(out.read_bytes())
    capsys.readouterr()
    assert traces[0] == traces[1]


def test_locate_fingerprint_on_header_only_trace_exits_2(tmp_path, capsys):
    trace = tmp_path / "empty.csv"
    trace.write_text("timestamp_ms,beacon_id,rssi_dbm,tx_power_dbm,channel\n")
    db = write_json(tmp_path / "db.json", {"entries": [{"x": 0, "y": 0, "signature": {"b0": -60}}]})
    assert main(["locate", str(trace), db, str(tmp_path / "o.json"),
                 "--method", "fingerprint"]) == 2
    assert "trace holds no samples" in capsys.readouterr().err
