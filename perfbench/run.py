"""Benchmark for microloc: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {sweep,site,fixes} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; microloc is imported from its ``src``
directory, so nothing needs installing. Every child process is a fresh
interpreter with BLAS/OpenMP pinned to one thread and PYTHONHASHSEED=0
(``position.fingerprint_locate`` sums over a set of beacon ids, so the last
bits of its residual otherwise depend on string hashing).

Workloads (see README.md for why each exists and which layers it loads):

    sweep   ``microloc reproduce OUT --sweep-window 2,5,10,20,50``
    site    simulate -> filter static -> filter dynamic -> three locates
            over a 20-beacon, 5-minute, ~60k-sample trace
    fixes   a one-client closed loop of position fixes over 1 s windows of
            a mixed-format scan stream

A run sets up the workload several times in fresh interpreters (setup_s),
then repeats the workload while the next repetition is expected to finish
within --seconds, and at least twice. Every repetition runs the same
steps (CLI commands, or fixes); each step's time is its median over the
repetitions, in reference seconds: probe.py runs between the steps, and
each step's measured time is scaled by the probe time around it, so the
host's changing speed cancels out. With --trace 1 it runs one untraced
repetition and at least two traced ones and reports the per-layer metrics
in measured time, with the tracing overhead against the untraced run.

Every repetition is checked: sha256 of every artifact must agree between
repetitions (and, for seed 42, with expected.json), and in traced runs
every count must repeat exactly and rng.draws must equal 4 * sim.events.
The last line of stdout is the JSON result; a record with quartiles,
sample counts, digests and the environment goes to .bench_results/.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")

sys.path.insert(0, HERE)
import gen  # noqa: E402
import probe  # noqa: E402

DEFAULT_SEED = 42
SETUP_SPAWNS = 7
MIN_REPS = 2
SWEEP_WINDOWS = "2,5,10,20,50"
CLI_CODE = "from microloc.cli import main_entry; main_entry()"


class BenchError(Exception):
    """The benchmark could not run the workload at all."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], cwd: str) -> dict:
    """Run a process to completion; wall time, exit code, peak RSS, output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode, "rss_mib": usage.ru_maxrss / 1024.0,
            "output": out.decode("utf-8", "replace")}


def measure_setup(argv: list[str], cwd: str) -> tuple[float, dict]:
    """Seconds from spawn until the worker reports its one-time state ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    rest = proc.stdout.read()
    proc.stdout.close()
    proc.wait()
    try:
        info = json.loads(line)
    except json.JSONDecodeError:
        info = None
    if proc.returncode != 0 or not isinstance(info, dict):
        raise BenchError(f"set-up failed ({proc.returncode}): {(line + rest).decode()[-2000:]}")
    return elapsed, info


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# --- workloads ---

class CliWorkload:
    """A fixed list of CLI commands whose written files are the artifacts."""

    def __init__(self, name: str, commands: list[list[str]], artifacts: list[str]):
        self.name = name
        self.commands = commands
        self.artifacts = artifacts

    def setup_argv(self) -> list[str]:
        return [sys.executable, WORKER, "setup", self.name]

    def rep(self, work: str, traced: bool, index: int) -> dict:
        for rel in self.artifacts:
            if os.path.exists(os.path.join(work, rel)):
                os.unlink(os.path.join(work, rel))
        ops, traces = [], []
        bursts = [] if traced else [probe.burst()]
        for i, cmd in enumerate(self.commands):
            if traced:
                out = os.path.join(work, f"trace-{index}-{i}.json")
                res = run_child([sys.executable, WORKER, "cli", out, *cmd], work)
                if res["exit"] == 0:
                    with open(out, "r", encoding="utf-8") as fh:
                        traces.append(json.load(fh))
            else:
                res = run_child([sys.executable, "-c", CLI_CODE, *cmd], work)
                bursts.append(probe.burst())
            if res["exit"] != 0:
                print(f"command {' '.join(cmd)} exited {res['exit']}: {res['output'][-500:]}",
                      file=sys.stderr)
            ops.append(res)
        digests = {}
        for rel in self.artifacts:
            path = os.path.join(work, rel)
            digests[rel] = sha256_file(path) if os.path.exists(path) else "missing"
        op_s = [op["wall_s"] for op in ops]
        return {
            "wall_s": sum(op_s),
            "rss_mib": max(op["rss_mib"] for op in ops),
            "op_s": op_s,
            "ref_op_s": None if traced else probe.normalise(op_s, bursts),
            "bursts_s": bursts,
            "attempted": len(ops),
            "failed": sum(op["exit"] != 0 for op in ops),
            "digests": digests,
            "checks": {},
            "traces": traces,
        }


def sweep_workload(seed: int, work: str) -> CliWorkload:
    cmd = ["--seed", str(seed), "reproduce", "report", "--sweep-window", SWEEP_WINDOWS]
    files = ["report.json", "spot_summary.csv", "error_hist.csv", "window_sweep.csv"]
    return CliWorkload("sweep", [cmd], [os.path.join("report", f) for f in files])


def site_workload(seed: int, work: str) -> CliWorkload:
    gen.write_site(seed, os.path.join(work, "scenario.json"), os.path.join(work, "anchors.json"))
    sim = ["--seed", str(seed), "--set", f"duration_ms={gen.SITE_DURATION_MS}"]
    commands = [
        sim + ["simulate", "scenario.json", "raw.csv"],
        ["filter", "raw.csv", "static.csv", "--mode", "static"],
        ["filter", "raw.csv", "dynamic.json", "--mode", "dynamic"],
        ["locate", "static.csv", "anchors.json", "lateration.json", "--method", "lateration"],
        ["locate", "dynamic.json", "anchors.json", "tdoa.json", "--method", "tdoa"],
        ["locate", "static.csv", "anchors.json", "proximity.json", "--method", "proximity"],
    ]
    artifacts = ["raw.csv", "raw.csv.meta.json", "static.csv", "static.csv.meta.json",
                 "dynamic.json", "lateration.json", "tdoa.json", "proximity.json"]
    return CliWorkload("site", commands, artifacts)


class FixesWorkload:
    """The closed-loop fix client; each repetition is one client process."""

    name = "fixes"

    def __init__(self, seed: int, work: str):
        self.site = os.path.join(work, "fixes_site.json")
        self.stream = os.path.join(work, "fixes_stream.json")
        gen.write_fixes(seed, self.site, self.stream)

    def setup_argv(self) -> list[str]:
        return [sys.executable, WORKER, "setup", self.name, self.site]

    def rep(self, work: str, traced: bool, index: int) -> dict:
        out = os.path.join(work, f"fixes-{index}.json")
        argv = [sys.executable, WORKER, "fixes", self.site, self.stream, out]
        res = run_child(argv + (["--trace"] if traced else []), work)
        if res["exit"] != 0:
            raise BenchError(f"fix client exited {res['exit']}: {res['output'][-2000:]}")
        with open(out, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        op_s = [ns / 1e9 for ns in doc["latencies_ns"]]
        bursts = [ns / 1e9 for ns in doc["bursts_ns"]]
        ref_op_s = None if traced else probe.normalise(op_s, bursts, doc["burst_every"])
        return {
            "wall_s": sum(op_s),
            "rss_mib": res["rss_mib"],
            "op_s": op_s,
            "ref_op_s": ref_op_s,
            "bursts_s": bursts,
            "attempted": len(doc["latencies_ns"]),
            "failed": sum(doc["failures"].values()),
            "digests": {"results": doc["digest"]},
            "checks": {"codec_round_trip": doc["round_trip_ok"]},
            "fallbacks": doc["fallbacks"],
            "traces": [doc] if traced else [],
        }


def make_workload(name: str, seed: int, work: str):
    if name == "sweep":
        return sweep_workload(seed, work)
    if name == "site":
        return site_workload(seed, work)
    return FixesWorkload(seed, work)


# --- statistics and per-layer metrics ---

def summary(values: list[float], unit: str, pick: str = "median") -> dict:
    """Quartiles of a run's values; `pick` names the one reported as the value."""
    vals = sorted(values)
    if len(vals) >= 2:
        q1, median, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    else:
        q1 = median = q3 = vals[0]
    out = {"q1": q1, "median": median, "q3": q3, "n": len(vals), "unit": unit}
    out["value"] = out[pick]
    return out


def tail(values: list[float]) -> float:
    """The highest of p99, p90 and p75 with at least ten values beyond it, else the median."""
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) >= 1000:
            return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return statistics.median(values)


def merge_traces(traces: list[dict]) -> dict:
    """Sum the per-process tracer records of one repetition."""
    stats: dict[str, dict] = {}
    counters: dict[str, int] = {}
    imports = []
    for doc in traces:
        imports.append(doc["import_ns"])
        for name, st in doc["trace"]["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0,
                                          "samples": 0, "failed": {}})
            for key in ("calls", "busy_ns", "self_ns", "samples"):
                acc[key] += st[key]
            for exc, n in st["failed"].items():
                acc["failed"][exc] = acc["failed"].get(exc, 0) + n
        for name, n in doc["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + n
    return {"stats": stats, "counters": counters, "import_s": statistics.mean(imports) / 1e9}


def exact_counts(merged: dict, rep: dict) -> dict:
    """Every count of a traced repetition; these must repeat exactly."""
    counts = dict(merged["counters"])
    for name, st in merged["stats"].items():
        counts[f"{name}.calls"] = st["calls"]
        counts[f"{name}.samples"] = st["samples"]
        for exc, n in st["failed"].items():
            counts[f"{name}.failed.{exc}"] = n
    counts["ops.attempted"] = rep["attempted"]
    counts["ops.failed"] = rep["failed"]
    counts["fixes.fallbacks"] = rep.get("fallbacks", 0)
    return counts


SOLVERS = ("proximity_region", "trilaterate", "fingerprint_locate", "tdoa_locate")


def layer_metrics(merged: dict, rep: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced repetition, by name."""
    stats, counters = merged["stats"], merged["counters"]
    empty = {"calls": 0, "busy_ns": 0, "self_ns": 0, "samples": 0, "failed": {}}

    def st(name):
        return stats.get(name, empty)

    def per_sample(name):
        s = st(name)
        return s["busy_ns"] / s["samples"] if s["samples"] else 0.0

    def per_call(name, scale):
        s = st(name)
        return s["busy_ns"] / s["calls"] / scale if s["calls"] else 0.0

    def failed(name):
        return sum(st(name)["failed"].values())

    m: dict[str, tuple[float, str]] = {}
    m["import.microloc_s"] = (merged["import_s"], "s")
    m["cli.main.calls"] = (st("cli.main")["calls"], "count")
    m["cli.main.self_s"] = (st("cli.main")["self_ns"] / 1e9, "s")
    m["sim.simulate.samples"] = (st("sim.simulate")["samples"], "count")
    m["sim.simulate.ns_per_sample"] = (per_sample("sim.simulate"), "ns")
    m["sim.events"] = (counters.get("sim.events", 0), "count")
    m["rng.draws"] = (counters.get("rng.draws", 0), "count")
    m["filters.smooth_trace.samples"] = (st("filters.smooth_trace")["samples"], "count")
    m["filters.smooth_trace.ns_per_sample"] = (per_sample("filters.smooth_trace"), "ns")
    dyn_samples = sum(s["samples"] for n, s in stats.items()
                      if n.startswith("filters.smooth_trace_dynamic."))
    m["filters.smooth_trace_dynamic.samples"] = (dyn_samples, "count")
    for w in (2, 10, 50):
        name = f"filters.smooth_trace_dynamic.w{w}"
        m[f"{name}.ns_per_sample"] = (per_sample(name), "ns")
    for op in ("save_trace", "load_trace"):
        for fmt in ("csv", "json"):
            name = f"model.{op}.{fmt}"
            m[f"{name}.samples"] = (st(name)["samples"], "count")
            m[f"{name}.ns_per_sample"] = (per_sample(name), "ns")
    m["model.bytes_written"] = (counters.get("model.bytes_written", 0), "bytes")
    m["model.Trace.samples"] = (st("model.Trace")["samples"], "count")
    m["model.Trace.ns_per_sample"] = (per_sample("model.Trace"), "ns")
    for fn in SOLVERS:
        name = f"position.{fn}"
        m[f"{name}.calls"] = (st(name)["calls"], "count")
        m[f"{name}.us_per_call"] = (per_call(name, 1e3), "us")
        m[f"{name}.failed"] = (failed(name), "count")
    m["position.fingerprint_build.busy_s"] = (st("position.fingerprint_build")["busy_ns"] / 1e9, "s")
    m["codec.decode.calls"] = (st("codec.decode")["calls"], "count")
    m["codec.decode.ns_per_call"] = (per_call("codec.decode", 1.0), "ns")
    m["codec.decode.failed"] = (failed("codec.decode"), "count")
    m["codec.encode.calls"] = (st("codec.encode")["calls"], "count")
    m["codec.encode.ns_per_call"] = (per_call("codec.encode", 1.0), "ns")
    m["ranging.rssi_to_distance.calls"] = (st("ranging.rssi_to_distance")["calls"], "count")
    m["ranging.rssi_to_distance.ns_per_call"] = (per_call("ranging.rssi_to_distance", 1.0), "ns")
    m["evaluate.ranging_report.self_s"] = (st("evaluate.ranging_report")["self_ns"] / 1e9, "s")
    m["evaluate.window_sweep.self_s"] = (st("evaluate.window_sweep")["self_ns"] / 1e9, "s")
    m["evaluate.write_report.busy_s"] = (st("evaluate.write_report")["busy_ns"] / 1e9, "s")
    m["fixes.fallbacks"] = (rep.get("fallbacks", 0), "count")
    return m


# --- the run ---

def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def expected_digests(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "expected.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload, {})


def repeat(run_once, seconds: float, min_reps: int) -> list:
    """Call run_once(index) while the next call should end within `seconds`."""
    reps: list = []
    t0 = time.perf_counter()
    while True:
        reps.append(run_once(len(reps)))
        elapsed = time.perf_counter() - t0
        if len(reps) >= min_reps and elapsed + elapsed / len(reps) > seconds:
            return reps


def check_reps(reps: list[dict], expected: dict | None, problems: list[str]) -> None:
    first = reps[0]["digests"]
    for i, rep in enumerate(reps):
        if rep["digests"] != first:
            problems.append(f"repetition {i} artifacts differ from repetition 0")
        for name, ok in rep["checks"].items():
            if not ok:
                problems.append(f"repetition {i}: check {name} failed")
    if expected is not None and first != expected:
        problems.append(f"artifacts differ from the digests pinned for seed {DEFAULT_SEED}")


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "microloc", "__init__.py")):
        print(f"error: no microloc sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: str) -> int:
    workload = make_workload(args.workload, args.seed, work)
    expected = expected_digests(args.workload, args.seed)
    problems: list[str] = []
    metrics: dict[str, dict] = {}
    extra: dict = {}

    # The probes and every child share one CPU, so they see the same host.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    measure_setup(workload.setup_argv(), work)  # warm the bytecode and page caches
    setups, bursts = [], [probe.burst()]
    for _ in range(SETUP_SPAWNS):
        elapsed, info = measure_setup(workload.setup_argv(), work)
        setups.append(elapsed)
        bursts.append(probe.burst())
    if not info["microloc"].startswith(SRC + os.sep):
        raise BenchError(f"microloc imported from {info['microloc']}, not from {SRC}")

    if not args.trace:
        reps = ran = repeat(lambda i: workload.rep(work, False, i), args.seconds, MIN_REPS)
        check_reps(reps, expected, problems)
        # every repetition runs the same steps (CLI commands, or fixes); each
        # one's time is its median over the repetitions, in reference seconds
        # (probe.py). A CLI workload's operation is its whole command chain.
        steps_ms = [statistics.median(t) * 1e3 for t in zip(*(r["ref_op_s"] for r in reps))]
        chain = isinstance(workload, CliWorkload)
        ops_ms = [sum(steps_ms)] if chain else steps_ms
        metrics["wall_ref_s"] = {**summary([sum(r["ref_op_s"]) for r in reps], "s"),
                                 "value": sum(steps_ms) / 1e3}
        metrics["setup_s"] = summary(probe.normalise(setups, bursts), "s")
        metrics["peak_rss_mib"] = summary([r["rss_mib"] for r in reps], "MiB")
        metrics["op_p50_ref_ms"] = {"value": statistics.median(ops_ms), "n": len(ops_ms),
                                    "unit": "ms"}
        metrics["op_tail_ref_ms"] = {"value": tail(ops_ms), "n": len(ops_ms), "unit": "ms"}
        metrics["ops_per_ref_s"] = {"value": 1e3 * len(ops_ms) / sum(ops_ms), "n": len(ops_ms),
                                    "unit": "1/s"}
        raw_ms = [statistics.median(t) * 1e3 for t in zip(*(r["op_s"] for r in reps))]
        raw_ops_ms = [sum(raw_ms)] if chain else raw_ms
        extra["raw"] = {"wall_s": sum(raw_ms) / 1e3, "setup_s": statistics.median(setups),
                        "op_p50_ms": statistics.median(raw_ops_ms), "op_tail_ms": tail(raw_ops_ms),
                        "setup_burst_s": statistics.median(bursts)}
        if chain:
            extra["command_ref_ms"] = steps_ms
        # measured times and probe bursts, so another normalisation can be
        # recomputed from the record
        extra["steps"] = {"setup_s": setups, "setup_bursts_s": bursts,
                          "rep_op_s": [r["op_s"] for r in reps],
                          "rep_bursts_s": [r["bursts_s"] for r in reps]}
    else:
        # one untraced repetition, then two traced ones, and again while time allows
        ran = repeat(lambda i: workload.rep(work, i % 3 != 0, i), args.seconds, 3)
        plain = ran[0::3]
        reps = [r for i, r in enumerate(ran) if i % 3]
        check_reps(plain + reps, expected, problems)
        merged = [merge_traces(rep["traces"]) for rep in reps]
        counts = [exact_counts(m, rep) for m, rep in zip(merged, reps)]
        for i, c in enumerate(counts[1:], start=1):
            if c != counts[0]:
                diff = sorted(k for k in set(c) | set(counts[0]) if c.get(k) != counts[0].get(k))
                problems.append(f"traced repetition {i} counts differ: {diff}")
        if counts[0].get("rng.draws", 0) != 4 * counts[0].get("sim.events", 0):
            problems.append(f"rng.draws {counts[0].get('rng.draws')} != 4 * sim.events "
                            f"{counts[0].get('sim.events')}")
        per_rep = [layer_metrics(m, rep) for m, rep in zip(merged, reps)]
        for name, (_, unit) in per_rep[0].items():
            metrics[name] = summary([pr[name][0] for pr in per_rep], unit)
        metrics["trace.untraced_wall_s"] = summary([r["wall_s"] for r in plain], "s")
        metrics["trace.traced_wall_s"] = summary([r["wall_s"] for r in reps], "s")
        metrics["trace.overhead_ratio"] = {
            "value": metrics["trace.traced_wall_s"]["value"] / metrics["trace.untraced_wall_s"]["value"],
            "n": len(reps), "unit": "ratio"}
        extra["counts"] = counts[0]
        extra["spans"] = [doc["trace"]["spans"] for doc in reps[-1]["traces"]]

    attempted = sum(r["attempted"] for r in ran)
    failed = sum(r["failed"] for r in ran)
    correct = not problems
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(reps)} repetitions, {attempted} operations, {failed} failed, "
          f"correct {correct}")
    for name, m in metrics.items():
        spread = f"q1 {m['q1']:.6g}, median {m['median']:.6g}, q3 {m['q3']:.6g}, " if "q1" in m else ""
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} ({spread}n {m['n']})")

    for key, value in extra.get("raw", {}).items():
        print(f"  raw {key:36s} {value:14.6g} (measured, not normalised)")
    for key, n in sorted(extra.get("counts", {}).items()):
        if ".failed." in key:
            print(f"  {key:40s} {n:14d} count")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed, "repetitions": len(reps),
        "metrics": metrics, "rep_wall_s": [r["wall_s"] for r in reps],
        "digests": reps[0]["digests"],
        "env": {"git_sha": git_sha(), "python": info["python"], "numpy": info["numpy"],
                "nproc": os.cpu_count()},
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        **extra,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                     f"{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "site", "fixes"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
