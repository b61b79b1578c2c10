#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fig11-cold --seed 1 --seconds 10 --trace 0

Builds the analysis library and perfbench_driver from source (Release,
into .bench_build/perfbench), runs the driver on the chosen workload and
reduces its raw observations to metrics.  --trace 0 reports the
end-to-end metrics of an untraced run; --trace 1 runs the workload with
the library's tracing on and reports the per-layer metrics.  Standard
output ends with

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by one {"host": ...} line.  The exit code is non-zero when a
correctness gate fails, the build fails, or the library sources are
missing.  README.md describes the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # Write nothing into the benchmark's directory.
import reduce  # noqa: E402

WORKLOADS = ("fig11-cold", "serve-stream", "store-incremental")

# Name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}

# (name, unit, better), in BENCHMARK.json order.
PER_LAYER = [
    ("api.batch_busy_frac", "ratio", "higher"),
    ("api.groups", "count", "lower"),
    ("api.distinct_keys", "count", "lower"),
    ("api.dup_group_frac", "ratio", "lower"),
    ("api.prepare_ms", "ms", "lower"),
    ("api.finalize_ms", "ms", "lower"),
    ("api.promote_ms", "ms", "lower"),
    ("api.queue_ms_p50", "ms", "lower"),
    ("api.queue_ms_p99", "ms", "lower"),
    ("api.exec_ms_p50", "ms", "lower"),
    ("api.exec_ms_p99", "ms", "lower"),
    ("api.shed", "count", "lower"),
    ("verify.self_ms", "ms", "lower"),
    ("infer.solve_self_ms", "ms", "lower"),
    ("infer.reverify_ms", "ms", "lower"),
    ("infer.span_coverage", "ratio", "higher"),
    ("simplex.lp_solves", "count", "lower"),
    ("simplex.ms_per_solve", "ms", "lower"),
    ("solver.sat_queries", "count", "lower"),
    ("solver.local_hit_rate", "ratio", "higher"),
    ("solver.tier_hit_rate", "ratio", "higher"),
    ("solver.interval_answered", "count", "higher"),
    ("solver.omega_ms", "ms", "lower"),
    ("solver.interval_ms", "ms", "lower"),
    ("solver.dnf_ms", "ms", "lower"),
    ("solver.entails_ms", "ms", "lower"),
    ("solver.core_probes", "count", "lower"),
    ("solver.lemma_hits", "count", "higher"),
    ("solver.lemma_yield", "ratio", "higher"),
    ("store.load_ms", "ms", "lower"),
    ("store.prescan_ms", "ms", "lower"),
    ("store.rehydrate_ms", "ms", "lower"),
    ("store.serialize_ms", "ms", "lower"),
    ("store.save_ms", "ms", "lower"),
    ("store.hits", "count", "higher"),
    ("store.misses", "count", "lower"),
    ("store.hit_frac", "ratio", "higher"),
    ("store.bytes", "bytes", "lower"),
    ("arith.arena_bytes", "bytes", "lower"),
    ("arith.reclaims", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.dropped", "count", "lower"),
    ("gate.unsound", "count", "lower"),
    ("gate.failed_frac", "ratio", "lower"),
    ("bench.gen_lag_ms", "ms", "lower"),
]

# A latency that never arrived (failed, shed) is reported as this many ms:
# JSON has no infinity, and the value must miss every limit.
MISSED_MS = 1e9

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build") / "perfbench"  # Relative to ROOT.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path."""
    build_dir = ROOT / BUILD
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench_driver"],
                   stdout=sys.stderr, check=True)
    return build_dir / "perfbench_driver"


def no_aslr():
    """Command prefix that turns address-space randomization off, where the
    host allows it.  The library keys hash tables by pointer, so a fixed
    layout removes one source of run-to-run variation."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    cmd = [setarch, platform.machine(), "-R"]
    probe = subprocess.run(cmd + ["true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return cmd if probe.returncode == 0 else []


def finite_ms(v):
    return v if math.isfinite(v) else MISSED_MS


def end_to_end(raw):
    lat = raw["latency_ms"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "wall_s": statistics.median(raw["wall_s"]),
        "cpu_s": statistics.median(raw["cpu_s"]),
        "req_p50_ms": finite_ms(reduce.windowed_percentile(lat, 50)),
        "req_p99_ms": finite_ms(reduce.windowed_percentile(lat, 99)),
        "decided_frac": raw["decided"] / raw["attempted"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def ratio(num, den):
    return num / den if den else 0.0


def merge(raws):
    """One result from several driver processes of one run."""
    out = dict(raws[0])
    for r in raws[1:]:
        for k in ("setup_s", "wall_s", "cpu_s", "latency_ms", "errors"):
            out[k] = out[k] + r[k]
        for k in ("attempted", "failed", "unsound", "decided"):
            out[k] += r[k]
        out["correct"] = out["correct"] and r["correct"]
        out["peak_rss_mb"] = max(out["peak_rss_mb"], r["peak_rss_mb"])
    return out


def overhead_ratio(traced, untraced):
    """Traced over untraced time of the same units of work: the traced
    units against as many first units of the untraced process, so both
    sides sit at the same point after set-up.  serve-stream's wall time
    is fixed by its schedule, so it compares CPU instead."""
    key = "cpu_s" if traced["workload"] == "serve-stream" else "wall_s"
    n = len(traced[key])
    return statistics.median(traced[key]) / statistics.median(untraced[key][:n])


def per_layer(raw, spans):
    """Per-layer metrics of one traced unit of work: one fig11 pass, one
    store round (averaged over the traced rounds), or the whole stream."""
    units = raw.get("rounds", 1)

    def self_ms(key):
        return spans.get(key, {}).get("self_us", 0.0) / 1000.0 / units

    def total_ms(key):
        return spans.get(key, {}).get("total_us", 0.0) / 1000.0 / units

    def count(key):
        return spans.get(key, {}).get("count", 0) / units

    solve = spans.get("pipeline/solveGroup", {"total_us": 0.0, "self_us": 0.0})
    lp_solves = raw["lp_solves"] / units
    probes = raw["core_probes"] / units
    lemma_hits = raw["lemma_hits"] / units

    queue = exec_ = None
    busy = raw.get("busy_frac", 0.0)
    if "metrics_after" in raw:
        hists = [m["metrics"]["histograms"] for m in
                 (raw["metrics_before"], raw["metrics_after"])]

        def window(name):
            return reduce.hist_diff(hists[1][name], hists[0].get(name))

        queue = window("server.request.queue_us")
        exec_ = window("server.request.exec_us")
        busy = exec_["sum"] / (raw["wall_s"][0] * 1e6 * raw["workers"])

    def hist_ms(h, q):
        return reduce.hist_quantile(h, q) / 1000.0 if h else 0.0

    hits = statistics.mean(raw["store_hits"]) if "store_hits" in raw else 0.0
    misses = statistics.mean(raw["store_misses"]) if "store_misses" in raw else 0.0
    m = {
        "api.batch_busy_frac": busy,
        "api.groups": count("pipeline/group") - count("store/rehydrate"),
        "api.distinct_keys": raw.get("distinct_keys", 0),
        "api.dup_group_frac": (1.0 - ratio(raw["distinct_keys"], raw["keyed_groups"])
                               if "keyed_groups" in raw else 0.0),
        "api.prepare_ms": self_ms("pipeline/prepare"),
        "api.finalize_ms": self_ms("pipeline/finalize"),
        "api.promote_ms": total_ms("pipeline/promote"),
        "api.queue_ms_p50": hist_ms(queue, 0.50),
        "api.queue_ms_p99": hist_ms(queue, 0.99),
        "api.exec_ms_p50": hist_ms(exec_, 0.50),
        "api.exec_ms_p99": hist_ms(exec_, 0.99),
        "api.shed": raw.get("shed", 0),
        "verify.self_ms": self_ms("pipeline/verify"),
        "infer.solve_self_ms": self_ms("pipeline/solveGroup"),
        "infer.reverify_ms": total_ms("pipeline/reVerify"),
        "infer.span_coverage": ratio(solve["total_us"] - solve["self_us"],
                                     solve["total_us"]),
        "simplex.lp_solves": lp_solves,
        "simplex.ms_per_solve": ratio(self_ms("pipeline/solveGroup"), lp_solves),
        "solver.sat_queries": raw["sat_queries"] / units,
        "solver.local_hit_rate": ratio(raw["cache_hits"],
                                       raw["cache_hits"] + raw["cache_misses"]),
        "solver.tier_hit_rate": ratio(raw["tier_sat_hits"], raw["tier_sat_lookups"]),
        "solver.interval_answered": raw["interval_answered"] / units,
        "solver.omega_ms": self_ms("solver/omegaSat"),
        "solver.interval_ms": self_ms("solver/interval"),
        "solver.dnf_ms": self_ms("solver/dnfExpand"),
        "solver.entails_ms": self_ms("solver/entails"),
        "solver.core_probes": probes,
        "solver.lemma_hits": lemma_hits,
        "solver.lemma_yield": ratio(lemma_hits, probes),
        "store.load_ms": total_ms("bench/store_load"),
        "store.prescan_ms": total_ms("store/prescan"),
        "store.rehydrate_ms": total_ms("store/rehydrate"),
        "store.serialize_ms": total_ms("store/serialize"),
        "store.save_ms": total_ms("bench/store_save"),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_frac": ratio(hits, hits + misses),
        "store.bytes": statistics.median(raw["store_bytes"]) if "store_bytes" in raw else 0,
        "arith.arena_bytes": raw["arena_bytes"],
        "arith.reclaims": raw.get("reclaims", 0),
        "trace.overhead_ratio": raw["overhead_ratio"],
        "trace.dropped": raw["trace_dropped"],
        "gate.unsound": raw["unsound"],
        "gate.failed_frac": raw["failed"] / raw["attempted"],
        "bench.gen_lag_ms": (reduce.percentile(raw["gen_lag_ms"], 99)
                             if "gen_lag_ms" in raw else 0.0),
    }
    return {name: {"value": m[name], "unit": unit} for name, unit, _ in PER_LAYER}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    started = time.monotonic()
    if not (ROOT / "src" / "api" / "BatchAnalyzer.h").exists():
        log("perfbench: the library sources (src/) are not in this checkout")
        return 2
    try:
        driver = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed:", e)
        return 3

    # Relative to ROOT: the serve socket path must stay short.
    workdir = BUILD / ("run-%d" % os.getpid())

    def driver_run(trace):
        out = workdir / ("raw-%d.json" % len(done))
        subprocess.run(no_aslr() + [str(driver), "--workload", args.workload,
                                    "--seed", str(args.seed),
                                    "--seconds", str(args.seconds),
                                    "--trace", str(trace), "--workdir", str(workdir),
                                    "--out", str(out)],
                       cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=max(10, RUN_TIMEOUT_S - (time.monotonic() - started)))
        with open(ROOT / out) as f:
            done.append(json.load(f))
        return done[-1]

    done = []
    try:
        if args.trace:
            # The untraced process is the baseline of trace.overhead_ratio;
            # every per-layer metric comes from the traced process.
            untraced = driver_run(0)
            raw = driver_run(1)
            raw["overhead_ratio"] = overhead_ratio(raw, untraced)
            raw["errors"] = untraced["errors"] + raw["errors"]
            with open(ROOT / raw["trace_file"]) as f:
                events = json.load(f)["traceEvents"]
            metrics = per_layer(raw, reduce.span_stats(events))
            correct = raw["correct"] and untraced["correct"]
            if raw["trace_dropped"] > 0:
                # A truncated trace must never report a layer share.
                raw["errors"].append("trace dropped %d events" % raw["trace_dropped"])
                correct = False
        else:
            # Each process measures at least one unit of work (one cold
            # fig11 pass; a stream or store rounds filling --seconds).
            measuring = time.monotonic()
            driver_run(0)
            while time.monotonic() - measuring < args.seconds:
                driver_run(0)
            raw = merge(done)
            correct = raw["correct"]
            metrics = {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in end_to_end(raw).items()}
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log("perfbench: workload run failed:", e)
        return 4
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    for err in raw["errors"]:
        log("perfbench: gate failed:", err)
    for name, m in metrics.items():
        log("  %-26s %14.6g %s" % (name, m["value"], m["unit"]))
    host = {
        "nproc": os.cpu_count(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "workers": raw["workers"],
        "trace.overhead_ratio": raw.get("overhead_ratio"),
    }
    print(json.dumps({"host": host}))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
