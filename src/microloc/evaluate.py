"""Ranging accuracy metrics and the end-to-end evaluation report.

The headline experiment: a beacon and a receiver at ten known separations
(0.5 m to 5 m), two minutes of advertising each. Every trace runs through
three pipelines:

    raw       rssi -> distance, no smoothing
    filtered  static-Q Kalman, then rssi -> distance
    dynamic   variance-tracking-Q Kalman, then rssi -> distance

The report carries per-spot statistics, an error histogram per pipeline,
and a summary keyed on worst-spot RMS error. accuracy here means mean
absolute error against the true distance; precision means the spread
(population standard deviation) of the estimates, independent of truth.

Artifacts are written in one place per format: model.rounded() takes
every float of a JSON document to 12 significant digits, _write_csv every
float cell to six decimals. The report builders pass raw values.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import filters, ranging, sim
from .errors import EmptyInput, InsufficientSamples
from .model import Trace, atomic_write_text, left_to_right_sum, real, rounded

PIPELINES = ("raw", "filtered", "dynamic")

DEFAULT_BIN_WIDTH_M = 0.25
# Most bins one histogram may have: about 1,000 times the 79 bins of the
# seed-42 raw histogram at 0.25 m. A bin_width_m that needs more is a ValueError.
MAX_HIST_BINS = 100_000

SPOT_CSV_HEADER = ["true_m", "pipeline", "mean_m", "accuracy_m", "precision_m", "n"]
HIST_CSV_HEADER = ["pipeline", "bin_lo", "bin_hi", "count"]
# report.json's top-level keys, in the order they are written
REPORT_KEYS = ("config", "bin_width_m", "spots", "histograms", "summary")


def _floats(values: Sequence[float], name: str) -> np.ndarray:
    """values as a float array: an ndarray as numpy converts it, any other sequence through real."""
    if isinstance(values, np.ndarray):
        return np.asarray(values, dtype=float)
    return np.array([real(v, name) for v in values], dtype=float)


def accuracy(estimates_m: Sequence[float], true_m: float) -> float:
    """Mean absolute error of distance estimates against the truth."""
    if len(estimates_m) == 0:
        raise EmptyInput("accuracy needs at least one estimate")
    return float(np.mean(np.abs(_floats(estimates_m, "estimates_m") - real(true_m, "true_m"))))


def precision(estimates_m: Sequence[float]) -> float:
    """Population standard deviation of the estimates themselves; each must be finite."""
    if len(estimates_m) < 2:
        raise InsufficientSamples("precision needs at least two estimates")
    arr = _floats(estimates_m, "estimates_m")
    if not np.all(np.isfinite(arr)):
        raise ValueError("estimates must be finite")
    return float(np.std(arr))


@dataclass(frozen=True)
class Histogram:
    """Uniform-width bins: edges has one more element than counts."""

    edges: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.counts) + 1:
            raise ValueError("edges must have exactly one more element than counts")


def error_histogram(errors_m: Sequence[float], bin_width_m: float = DEFAULT_BIN_WIDTH_M) -> Histogram:
    """Bin absolute errors into uniform buckets aligned to multiples of the width.

    Bucket i spans [edges[i], edges[i+1]), except the last bucket, which
    also includes its upper edge so the maximum error is always counted.
    A width that would need more than MAX_HIST_BINS buckets is a ValueError,
    raised before any bucket is allocated, and so is a width too fine for
    the float spacing of the errors, which would give edges that do not
    strictly increase.
    """
    if len(errors_m) == 0:
        raise EmptyInput("histogram needs at least one error value")
    bin_width_m = real(bin_width_m, "bin_width_m")
    if not math.isfinite(bin_width_m) or bin_width_m <= 0.0:
        raise ValueError(f"bin_width_m must be positive, got {bin_width_m!r}")
    arr = _floats(errors_m, "errors_m")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("errors must be finite and non-negative")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the check below
        k_lo, k_hi = np.floor(np.array([arr.min(), arr.max()]) / bin_width_m)
        n_bins = k_hi - k_lo + 1
    if not n_bins <= MAX_HIST_BINS:
        raise ValueError(f"bin_width_m={bin_width_m!r} needs more than {MAX_HIST_BINS} bins "
                         f"for errors up to {float(arr.max())!r} m")
    idx = (np.floor(arr / bin_width_m) - k_lo).astype(int)
    counts = np.bincount(idx, minlength=int(n_bins)).tolist()
    k_lo = int(k_lo)
    edges = tuple((k_lo + j) * bin_width_m for j in range(len(counts) + 1))
    if any(lo >= hi for lo, hi in zip(edges, edges[1:])):
        raise ValueError(f"bin_width_m={bin_width_m!r} is finer than the float spacing "
                         f"of errors up to {float(arr.max())!r} m")
    return Histogram(edges=edges, counts=tuple(counts))


@dataclass(frozen=True)
class PipelineStats:
    mean_est_m: float
    accuracy_m: float
    precision_m: float
    rms_error_m: float


@dataclass(frozen=True)
class SpotReport:
    true_distance_m: float
    n_samples: int
    pipelines: dict[str, PipelineStats]


@dataclass(frozen=True)
class ErrorReport:
    """Everything the ranging evaluation produced, ready to serialize."""

    spots: tuple[SpotReport, ...]
    histograms: dict[str, Histogram]
    summary: dict[str, dict[str, float]]
    config: dict
    bin_width_m: float
    window_sweep: tuple[dict, ...] = ()


def _distances(rssi_dbm: np.ndarray, model: ranging.PathLossModel) -> np.ndarray:
    """ranging.rssi_to_distance of every value of a finite column, with the same bits.

    The exponent is exact IEEE arithmetic on the column; each power goes
    through Python's float pow, which numpy's power need not match.
    """
    exponents = (model.ref_power_dbm - rssi_dbm) / (10.0 * model.exponent)
    return np.array(list(map((10.0).__pow__, exponents.tolist())))


def _pipeline_stats(trace: Trace, model: ranging.PathLossModel,
                    true_d: float) -> tuple[PipelineStats, np.ndarray]:
    """One pipeline's statistics at a spot, and the absolute error of each estimate."""
    ests = _distances(trace.samples.rssi_dbm, model)
    errors = np.abs(ests - true_d)
    stats = PipelineStats(
        mean_est_m=float(np.mean(ests)),
        accuracy_m=accuracy(ests, true_d),
        precision_m=precision(ests),
        rms_error_m=float(np.sqrt(np.mean(errors ** 2))),
    )
    return stats, errors


def _window_sizes(window_sizes: Sequence[int]) -> list[int]:
    sizes = list(window_sizes)
    for n in sizes:
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"window sizes must be ints, got {n!r}")
    if any(n < 2 for n in sizes):
        raise ValueError("window sizes must all be >= 2")
    return sizes


def _dynamic_stats(spots: Sequence[tuple[float, Trace]], model: ranging.PathLossModel,
                   params: filters.KalmanParams, window_sizes: Sequence[int], q_scale: float,
                   ) -> dict[int, list[tuple[PipelineStats, np.ndarray]]]:
    """The dynamic pipeline at every spot, filtered once per distinct window size."""
    return {n: [_pipeline_stats(filters.smooth_trace_dynamic(trace, params, n, q_scale),
                                model, true_d) for true_d, trace in spots]
            for n in dict.fromkeys(window_sizes)}


def _sweep_rows(sizes: Sequence[int],
                dynamic: dict[int, list[tuple[PipelineStats, np.ndarray]]]) -> tuple[dict, ...]:
    """One window_sweep row per requested size, in order."""
    return tuple({"window_n": n,
                  "max_spot_rms_m": max(st.rms_error_m for st, _ in dynamic[n]),
                  "mean_accuracy_m": left_to_right_sum(st.accuracy_m for st, _ in dynamic[n])
                  / len(dynamic[n])}
                 for n in sizes)


def ranging_report(config: sim.SimConfig, params: filters.KalmanParams | None = None,
                   window_n: int = filters.DEFAULT_WINDOW_N,
                   q_scale: float = filters.DEFAULT_Q_SCALE,
                   bin_width_m: float = DEFAULT_BIN_WIDTH_M,
                   window_sizes: Sequence[int] = ()) -> ErrorReport:
    """Run the ten-spot ranging sweep through all three pipelines.

    The dynamic pipeline filters each spot once per distinct size in
    (window_n, *window_sizes); window_sweep has one row per requested size.
    Every size is checked, as _window_sizes checks it, before anything runs.

    Deterministic in config.seed: the same seed yields the exact same
    report object. Raises the usual filter errors if a generated trace is
    unusable (e.g. total packet loss at a spot).
    """
    bin_width_m = real(bin_width_m, "bin_width_m")
    if params is None:
        params = filters.default_params()
    window_n, *sizes = _window_sizes((window_n, *window_sizes))
    spots = sim.ranging_experiment(config)
    model = config.path_loss
    dynamic = _dynamic_stats(spots, model, params, (window_n, *sizes), q_scale)
    table = {  # each pipeline's (stats, errors) at every spot
        "raw": [_pipeline_stats(trace, model, true_d) for true_d, trace in spots],
        "filtered": [_pipeline_stats(filters.smooth_trace(trace, params), model, true_d)
                     for true_d, trace in spots],
        "dynamic": dynamic[window_n],
    }
    pooled_errors = {name: np.concatenate([errs for _, errs in table[name]]) for name in PIPELINES}
    histograms = {name: error_histogram(pooled_errors[name], bin_width_m) for name in PIPELINES}
    summary = {
        name: {
            "max_spot_rms_m": max(stats.rms_error_m for stats, _ in table[name]),
            "max_spot_accuracy_m": max(stats.accuracy_m for stats, _ in table[name]),
            "max_sample_error_m": float(pooled_errors[name].max()),
        }
        for name in PIPELINES
    }
    report_config = {
        "seed": config.seed,
        "ref_power_dbm": model.ref_power_dbm,
        "exponent": model.exponent,
        "shadow_sigma_db": config.shadow_sigma_db,
        "advertising_interval_ms": config.advertising_interval_ms,
        "interval_jitter_ms": config.interval_jitter_ms,
        "packet_loss_prob": config.packet_loss_prob,
        **filters.params_to_config(params),
        "window_n": window_n,
        "q_scale": q_scale,
    }
    return ErrorReport(
        spots=tuple(SpotReport(true_d, len(trace.samples),
                               {name: table[name][i][0] for name in PIPELINES})
                    for i, (true_d, trace) in enumerate(spots)),
        histograms=histograms,
        summary=summary,
        config=report_config,
        bin_width_m=bin_width_m,
        window_sweep=_sweep_rows(sizes, dynamic),
    )


def window_sweep(config: sim.SimConfig, params: filters.KalmanParams | None = None,
                 window_sizes: Sequence[int] = (2, 5, 10, 20, 50),
                 q_scale: float = filters.DEFAULT_Q_SCALE) -> tuple[dict, ...]:
    """Dynamic-pipeline quality per window size: ranging_report's window_sweep rows.

    Only the dynamic pipeline runs, once per distinct size at each spot.
    """
    sizes = _window_sizes(window_sizes)
    if not sizes:
        raise EmptyInput("window_sizes must be non-empty")
    if params is None:
        params = filters.default_params()
    spots = sim.ranging_experiment(config)
    return _sweep_rows(sizes, _dynamic_stats(spots, config.path_loss, params, sizes, q_scale))


def report_to_dict(report: ErrorReport) -> dict:
    """report.json's document: every field but window_sweep, rounded."""
    fields = asdict(report)
    return rounded({key: fields[key] for key in REPORT_KEYS})


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write a header and rows as LF-terminated CSV, atomically.

    Every float cell is written with six decimals; every other cell as
    csv.writer writes it.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.6f}" if isinstance(v, float) else v for v in row])
    atomic_write_text(path, buf.getvalue())


def write_report(report: ErrorReport, out_dir: str) -> dict[str, str]:
    """Write report.json, spot_summary.csv and error_hist.csv into out_dir.

    Returns the mapping of logical name to written path. Files are written
    atomically and byte-identically for identical reports.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "report": os.path.join(out_dir, "report.json"),
        "spots": os.path.join(out_dir, "spot_summary.csv"),
        "histogram": os.path.join(out_dir, "error_hist.csv"),
    }
    atomic_write_text(paths["report"], json.dumps(report_to_dict(report), indent=2) + "\n")
    spot_rows = []
    for spot in report.spots:
        for name in PIPELINES:
            st = spot.pipelines[name]
            spot_rows.append([spot.true_distance_m, name, st.mean_est_m,
                              st.accuracy_m, st.precision_m, spot.n_samples])
    _write_csv(paths["spots"], SPOT_CSV_HEADER, spot_rows)
    hist_rows = []
    for name in PIPELINES:
        h = report.histograms[name]
        for i, count in enumerate(h.counts):
            hist_rows.append([name, h.edges[i], h.edges[i + 1], count])
    _write_csv(paths["histogram"], HIST_CSV_HEADER, hist_rows)
    return paths


def write_window_sweep(rows: Sequence[dict], out_dir: str) -> str:
    """Write window_sweep.csv; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "window_sweep.csv")
    _write_csv(path, ["window_n", "max_spot_rms_m", "mean_accuracy_m"], [
        [row["window_n"], row["max_spot_rms_m"], row["mean_accuracy_m"]] for row in rows
    ])
    return path
