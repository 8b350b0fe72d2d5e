"""Metrics, histograms, and the ten-spot evaluation report."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microloc.errors import EmptyInput, InsufficientSamples
from microloc.evaluate import (
    HIST_CSV_HEADER,
    PIPELINES,
    SPOT_CSV_HEADER,
    ErrorReport,
    Histogram,
    PipelineStats,
    SpotReport,
    _distances,
    _write_csv,
    accuracy,
    error_histogram,
    precision,
    ranging_report,
    report_to_dict,
    rounded,
    window_sweep,
    write_report,
    write_window_sweep,
)
from microloc.model import _round12
from microloc.ranging import MAX_EXPONENT, MIN_EXPONENT, PathLossModel, rssi_to_distance
from microloc.sim import SimConfig


# --- scalar metrics ---

def test_accuracy_worked_example():
    # |2.0-2.5| = 0.5, |3.0-2.5| = 0.5, |2.5-2.5| = 0 -> mean 1/3
    assert accuracy([2.0, 3.0, 2.5], 2.5) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_accuracy_exact_when_all_match():
    assert accuracy([1.5, 1.5, 1.5], 1.5) == 0.0


def test_accuracy_matches_numpy_on_random_input():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ests = rng.uniform(0.1, 10.0, size=rng.integers(1, 40))
        truth = float(rng.uniform(0.1, 10.0))
        assert accuracy(ests, truth) == pytest.approx(
            float(np.mean(np.abs(ests - truth))), rel=1e-14)


def test_accuracy_rejects_empty():
    with pytest.raises(EmptyInput):
        accuracy([], 1.0)


def test_precision_worked_example():
    # population std of [1, 3] is 1
    assert precision([1.0, 3.0]) == pytest.approx(1.0, rel=1e-15)


def test_precision_is_population_not_sample():
    vals = [1.0, 2.0, 3.0, 4.0]
    assert precision(vals) == pytest.approx(float(np.std(vals)), rel=1e-14)
    assert precision(vals) != pytest.approx(float(np.std(vals, ddof=1)), rel=1e-6)


def test_precision_ignores_truth_shift():
    assert precision([10.0, 11.0, 12.0]) == pytest.approx(precision([0.0, 1.0, 2.0]), rel=1e-12)


def test_precision_needs_two_samples():
    with pytest.raises(InsufficientSamples):
        precision([1.0])


# --- histograms ---

def test_histogram_worked_example():
    h = error_histogram([0.1, 0.2, 0.3, 0.6], bin_width_m=0.25)
    assert h.edges == (0.0, 0.25, 0.5, 0.75)
    assert h.counts == (2, 1, 1)


def test_histogram_counts_conserve():
    rng = np.random.default_rng(3)
    for _ in range(100):
        errors = rng.uniform(0.0, 5.0, size=rng.integers(1, 200))
        h = error_histogram(errors, bin_width_m=0.25)
        assert sum(h.counts) == len(errors)


def test_histogram_matches_brute_force_binning():
    rng = np.random.default_rng(11)
    w = 0.25
    errors = rng.uniform(0.0, 3.0, size=500)
    h = error_histogram(errors, bin_width_m=w)
    for i, count in enumerate(h.counts):
        lo, hi = h.edges[i], h.edges[i + 1]
        expected = sum(1 for e in errors if lo <= e < hi)
        assert count == expected


def test_histogram_value_on_edge_goes_to_upper_bin():
    h = error_histogram([0.25], bin_width_m=0.25)
    assert h.edges == (0.25, 0.5)
    assert h.counts == (1,)


def test_histogram_edges_align_to_width_multiples():
    h = error_histogram([1.1, 1.9], bin_width_m=0.5)
    assert h.edges == (1.0, 1.5, 2.0)
    assert h.counts == (1, 1)


def test_histogram_validation():
    with pytest.raises(EmptyInput):
        error_histogram([])
    with pytest.raises(ValueError):
        error_histogram([0.1], bin_width_m=0.0)
    with pytest.raises(ValueError):
        error_histogram([-0.1])
    with pytest.raises(ValueError):
        error_histogram([math.nan])
    with pytest.raises(ValueError):
        Histogram(edges=(0.0, 1.0), counts=(1, 2))


@pytest.mark.parametrize("errors,width", [([5.0], 1e-300), ([1e6, 1e6 + 1e-9], 1e-12)])
def test_histogram_rejects_width_finer_than_float_spacing(errors, width):
    # few enough bins for the cap, but their edges would not strictly increase
    with pytest.raises(ValueError, match="float spacing"):
        error_histogram(errors, bin_width_m=width)


# --- the full report ---

def test_noise_free_report_is_essentially_exact():
    cfg = SimConfig(seed=1, shadow_sigma_db=0.0, interval_jitter_ms=0)
    report = ranging_report(cfg)
    for spot in report.spots:
        assert spot.pipelines["raw"].accuracy_m <= 1e-12
        assert spot.pipelines["raw"].rms_error_m <= 1e-12
        assert spot.pipelines["filtered"].accuracy_m <= 1e-9
    assert report.summary["raw"]["max_spot_rms_m"] <= 1e-12


def test_report_shape_and_config_echo():
    cfg = SimConfig(seed=5)
    report = ranging_report(cfg, window_n=7, q_scale=2.0)
    assert len(report.spots) == 10
    assert tuple(s.true_distance_m for s in report.spots) == tuple(
        0.5 * (i + 1) for i in range(10))
    assert set(report.histograms) == set(PIPELINES)
    assert set(report.summary) == set(PIPELINES)
    assert report.config["seed"] == 5
    assert report.config["window_n"] == 7
    assert report.config["q_scale"] == 2.0
    for spot in report.spots:
        assert spot.n_samples == 1200
        assert set(spot.pipelines) == set(PIPELINES)


def test_filtered_beats_raw_on_noisy_spots():
    report = ranging_report(SimConfig(seed=2))
    assert (report.summary["filtered"]["max_spot_rms_m"]
            < report.summary["raw"]["max_spot_rms_m"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_filtered_accuracy_wins_per_spot_beyond_two_metres(seed):
    report = ranging_report(SimConfig(seed=seed))
    for spot in report.spots:
        if spot.true_distance_m >= 2.0:
            assert (spot.pipelines["filtered"].accuracy_m
                    <= spot.pipelines["raw"].accuracy_m), spot.true_distance_m


def test_histogram_totals_match_sample_count():
    report = ranging_report(SimConfig(seed=3))
    for name in PIPELINES:
        assert sum(report.histograms[name].counts) == 12_000  # 10 spots x 1200


def test_report_is_deterministic():
    a = report_to_dict(ranging_report(SimConfig(seed=17)))
    b = report_to_dict(ranging_report(SimConfig(seed=17)))
    assert a == b
    c = report_to_dict(ranging_report(SimConfig(seed=18)))
    assert a != c


def test_round12_stabilizes_serialization():
    assert _round12(0.1 + 0.2) == 0.3
    assert _round12(1.0) == 1.0
    assert _round12(2.741059) == 2.741059


def test_report_dict_is_json_round_trippable():
    d = report_to_dict(ranging_report(SimConfig(seed=9)))
    assert json.loads(json.dumps(d)) == d


# --- writers ---

def test_write_report_files_and_schemas(tmp_path):
    report = ranging_report(SimConfig(seed=4))
    paths = write_report(report, str(tmp_path / "out"))
    with open(paths["report"]) as f:
        doc = json.load(f)
    assert doc == report_to_dict(report)

    with open(paths["spots"], newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == SPOT_CSV_HEADER
    assert len(rows) == 1 + 10 * len(PIPELINES)
    assert {r[1] for r in rows[1:]} == set(PIPELINES)
    assert all(r[5] == "1200" for r in rows[1:])

    with open(paths["histogram"], newline="") as f:
        hrows = list(csv.reader(f))
    assert hrows[0] == HIST_CSV_HEADER
    total = sum(int(r[3]) for r in hrows[1:])
    assert total == 3 * 12_000


def test_write_report_is_byte_identical_across_runs(tmp_path):
    report = ranging_report(SimConfig(seed=6))
    p1 = write_report(report, str(tmp_path / "a"))
    p2 = write_report(ranging_report(SimConfig(seed=6)), str(tmp_path / "b"))
    for key in p1:
        with open(p1[key], "rb") as f1, open(p2[key], "rb") as f2:
            assert f1.read() == f2.read()


# --- window sweep ---

def test_window_sweep_rows_and_determinism(tmp_path):
    cfg = SimConfig(seed=8, duration_ms=20_000)
    rows = window_sweep(cfg, window_sizes=(2, 5, 10))
    assert [r["window_n"] for r in rows] == [2, 5, 10]
    for r in rows:
        assert r["max_spot_rms_m"] > 0.0
        assert r["mean_accuracy_m"] > 0.0
    assert window_sweep(cfg, window_sizes=(2, 5, 10)) == rows

    path = write_window_sweep(rows, str(tmp_path))
    with open(path, newline="") as f:
        written = list(csv.reader(f))
    assert written[0] == ["window_n", "max_spot_rms_m", "mean_accuracy_m"]
    assert len(written) == 4


def test_window_sweep_validation():
    cfg = SimConfig(seed=1, duration_ms=5000)
    with pytest.raises(EmptyInput):
        window_sweep(cfg, window_sizes=())
    with pytest.raises(ValueError):
        window_sweep(cfg, window_sizes=(1,))


def test_window_sweep_is_ranging_reports_rows_without_other_pipelines(monkeypatch):
    from microloc import filters

    cfg = SimConfig(seed=11)
    sizes = (5, 2, 5)
    expected = ranging_report(cfg, window_n=3, window_sizes=sizes).window_sweep

    def no_static(*args, **kwargs):
        raise AssertionError("window_sweep ran the static pipeline")
    monkeypatch.setattr(filters, "smooth_trace", no_static)
    assert window_sweep(cfg, window_sizes=sizes) == expected


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(-120.0, 0.0), max_size=50),
       ref=st.floats(-100.0, 0.0) | st.integers(-100, 0),
       exponent=st.floats(MIN_EXPONENT, MAX_EXPONENT, exclude_min=True) | st.integers(1, 8))
def test_column_distances_equal_rssi_to_distance(values, ref, exponent):
    model = PathLossModel(ref, exponent)
    got = _distances(np.array(values, dtype=np.float64), model)
    assert got.dtype == np.float64
    assert got.tolist() == [rssi_to_distance(v, model) for v in values]


# --- one rounding walk, one CSV cell format ---

def _reference_report_to_dict(report: ErrorReport) -> dict:
    """The field-by-field report.json builder that rounded() replaced, as it was."""
    return {
        "config": {k: (_round12(v) if isinstance(v, float) else v)
                   for k, v in report.config.items()},
        "bin_width_m": _round12(report.bin_width_m),
        "spots": [
            {
                "true_distance_m": _round12(s.true_distance_m),
                "n_samples": s.n_samples,
                "pipelines": {
                    name: {
                        "mean_est_m": _round12(st.mean_est_m),
                        "accuracy_m": _round12(st.accuracy_m),
                        "precision_m": _round12(st.precision_m),
                        "rms_error_m": _round12(st.rms_error_m),
                    }
                    for name, st in s.pipelines.items()
                },
            }
            for s in report.spots
        ],
        "histograms": {name: {"edges": [_round12(e) for e in h.edges], "counts": list(h.counts)}
                       for name, h in report.histograms.items()},
        "summary": {
            name: {k: _round12(v) for k, v in vals.items()}
            for name, vals in report.summary.items()
        },
    }


def _hand_made_report() -> ErrorReport:
    stats = PipelineStats(mean_est_m=1 / 3, accuracy_m=0.1 + 0.2, precision_m=2.0,
                          rms_error_m=np.float64(2) ** 0.5)
    spot = SpotReport(true_distance_m=0.5, n_samples=7,
                      pipelines={"dynamic": stats, "raw": stats})
    return ErrorReport(
        spots=(spot, spot),
        histograms={"raw": Histogram(edges=(0.0, 0.1 + 0.2, 0.6000000000000001), counts=(3, 4))},
        summary={"raw": {"max_spot_rms_m": 1e-20 / 3, "max_sample_error_m": -0.0}},
        config={"seed": 7, "q": 0.1 + 0.2, "window_n": 10, "q_scale": 1.0, "exponent": 2,
                "big": 10 ** 20, "label": "x"},
        bin_width_m=0.30000000000000004,
        window_sweep=({"window_n": 2, "max_spot_rms_m": 1 / 7, "mean_accuracy_m": 0.5},),
    )


@pytest.mark.parametrize("seed, bin_width_m", [(1, 0.25), (29, 0.1), (42, 1)])
def test_report_to_dict_matches_field_by_field_reference(seed, bin_width_m):
    report = ranging_report(SimConfig(seed=seed), bin_width_m=bin_width_m, window_sizes=(2, 5))
    assert json.dumps(report_to_dict(report)) == json.dumps(_reference_report_to_dict(report))
    # an int width still gives float edges, so the CSV and JSON artifacts keep their bytes
    assert all(type(e) is float for h in report.histograms.values() for e in h.edges)
    assert type(report.bin_width_m) is float


def test_report_to_dict_of_hand_made_report_matches_reference():
    report = _hand_made_report()
    got = json.dumps(report_to_dict(report), indent=2)
    assert got == json.dumps(_reference_report_to_dict(report), indent=2)
    assert '"seed": 7,' in got and '"exponent": 2,' in got and '"q": 0.3,' in got


def test_rounded_walks_every_depth_and_keeps_other_values():
    doc = {"b": (0.1 + 0.2, [np.float64(1) / 3, {"z": 1 / 7, "a": 5}]), "a": None,
           "t": True, "s": "0.30000000000000004", "i": 10 ** 20}
    got = rounded(doc)
    assert got == {"b": [0.3, [0.333333333333, {"z": 0.142857142857, "a": 5}]], "a": None,
                   "t": True, "s": "0.30000000000000004", "i": 10 ** 20}
    assert list(got) == ["b", "a", "t", "s", "i"] and list(got["b"][1][1]) == ["z", "a"]
    assert type(got["b"][1][0]) is float and got["t"] is True and type(got["i"]) is int
    assert doc["b"][0] == 0.1 + 0.2  # the input is left as it was


def test_write_csv_formats_float_cells_only(tmp_path):
    floats = [0.1 + 0.2, np.float64(2) / 3, -0.0, 1e20]
    others = [7, np.int64(-3), "x,y", 'say "hi"', ""]
    path = tmp_path / "cells.csv"
    _write_csv(str(path), ["h1", "h2"], [floats + others, others])
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerows([["h1", "h2"], [f"{v:.6f}" for v in floats] + others, others])
    assert path.read_bytes() == expected.getvalue().encode()
    assert expected.getvalue().splitlines()[1].startswith(
        "0.300000,0.666667,-0.000000,100000000000000000000.000000,7,-3,")


@pytest.mark.parametrize("size", [2.7, "3", True, 3.0, None])
def test_window_sizes_must_be_ints_and_are_checked_before_simulating(monkeypatch, size):
    from microloc import sim

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the window sizes were checked")
    monkeypatch.setattr(sim, "ranging_experiment", no_simulation)
    cfg = SimConfig(seed=1, duration_ms=5000)
    for run in (lambda: window_sweep(cfg, window_sizes=(5, size)),
                lambda: ranging_report(cfg, window_sizes=(size,))):
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == f"window sizes must be ints, got {size!r}"


def test_report_does_not_depend_on_config_number_types():
    ints = SimConfig(seed=1, path_loss=PathLossModel(-59, 2), shadow_sigma_db=4,
                     packet_loss_prob=0)
    floats = SimConfig(seed=1, path_loss=PathLossModel(-59.0, 2.0), shadow_sigma_db=4.0,
                       packet_loss_prob=0.0)
    a = json.dumps(report_to_dict(ranging_report(ints)))
    assert a == json.dumps(report_to_dict(ranging_report(floats)))
    assert '"ref_power_dbm": -59.0, "exponent": 2.0, "shadow_sigma_db": 4.0' in a


def test_max_sample_error_is_the_largest_error_of_any_spot():
    from microloc.sim import ranging_experiment

    cfg = SimConfig(seed=5)
    expected = max(float(np.max(np.abs(_distances(trace.samples.rssi_dbm, cfg.path_loss) - d)))
                   for d, trace in ranging_experiment(cfg))
    assert ranging_report(cfg).summary["raw"]["max_sample_error_m"] == expected
