#!/usr/bin/env python3
"""Serving-path benchmark of msrs: one command, from the root of a checkout.

    python3 perfbench/run.py --workload warm_hit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare OLD NEW

A run builds the served binary and the load generator from source (under
.bench_build/), drives `msrs_engine_cli serve --tcp=127.0.0.1:0 --shards=2`
with a fixed request list made from the seed, checks every response, and
prints the result. With --trace 1 it also replays the same lines in-process
and reports per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
LOADGEN = os.path.join(BUILD, "perfbench_load")
CLI = os.path.join(BUILD, "msrs", "msrs_engine_cli")
RUN_TIMEOUT_S = 170

WORKLOADS = ["warm_hit", "cold_solve", "session_churn"]

# (name, unit, better) of the metrics a --trace 0 run reports.
END_TO_END = [
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p95_us", "us", "lower"),
    ("cpu_us_per_req", "us", "lower"),
    ("rss_peak_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("makespan_ratio_mean", "ratio", "lower"),
]

# Rungs of the ladder raced on every workload. no_huge is inapplicable to
# almost every lemma9_tight instance, and exact, eptas and one_per_class
# never join these races; their times are printed as diagnostics.
RACED_SOLVERS = ["three_halves", "five_thirds", "list_lpt", "merge_lpt",
                 "hebrard"]

# (name, unit, better) of the metrics a --trace 1 run reports.
PER_LAYER = [
    ("transport.ping_rtt_p50_us", "us", "lower"),
    ("wire.parse_us", "us", "lower"),
    ("wire.compose_us", "us", "lower"),
    ("wire.render_us", "us", "lower"),
    ("wire.resp_bytes", "bytes", "lower"),
    ("instance.parse_us", "us", "lower"),
    ("instance.bytes", "bytes", "lower"),
    ("engine.canonical_us", "us", "lower"),
    ("service.handle_us", "us", "lower"),
    ("service.residual_us", "us", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.cache_entries", "count", "lower"),
    ("service.queue_wait_p50_us", "us", "lower"),
    ("engine.portfolio_us", "us", "lower"),
    ("engine.candidates_us", "us", "lower"),
    ("engine.race_attempts", "count", "lower"),
    ("engine.race_useful_share", "ratio", "higher"),
] + [m for s in RACED_SOLVERS for m in (
    ("algo.%s_us" % s, "us", "lower"),
    ("algo.%s.win_share" % s, "ratio", "higher"))] + [
    ("algo.t_bound_us", "us", "lower"),
    ("validate_us", "us", "lower"),
    ("session.mutation_p50_us", "us", "lower"),
    ("session.snapshot_p50_us", "us", "lower"),
    ("session.repair_share", "ratio", "higher"),
]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the two targets the benchmark runs."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: cmake configure failed")
    make = ["cmake", "--build", BUILD, "-j", jobs,
            "--target", "perfbench_load", "msrs_engine_cli"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")


def stamps():
    """Where and what was measured: cores, CPU, commit."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    if not commit:
        # Not a git checkout: a digest of the program's sources instead.
        digest = hashlib.sha256()
        files = [os.path.join(ROOT, "CMakeLists.txt")]
        for top in ("src", "tools"):
            files += glob.glob(os.path.join(ROOT, top, "**", "*"),
                               recursive=True)
        for path in sorted(p for p in files if os.path.isfile(p)):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
        commit = "tree-sha256:" + digest.hexdigest()[:16]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "commit": commit}


def run_loadgen(workload, seed, seconds, trace, tiny=False, corrupt=False):
    cmd = [LOADGEN, "--cli=" + CLI, "--workload=" + workload,
           "--seed=%d" % seed, "--seconds=%d" % seconds]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace", "--spans=" + os.path.join(
            OUT, "spans-%s-%d.jsonl" % (workload, seed))]
    if tiny:
        cmd.append("--tiny")
    if corrupt:
        cmd.append("--corrupt")
    # Its own process group, so a hung run takes its server down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("perfbench: load generator timed out")
    if proc.returncode != 0:
        raise SystemExit("perfbench: load generator failed (exit %d)"
                         % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def summarize(raw, trace):
    """The contract's last line from the load generator's document."""
    attempted = raw["attempted"]
    failed = raw["failed"]
    if trace:
        attempted += raw["traced_attempted"] + len(raw["sum_checks"])
        failed += raw["traced_failed"] + sum(
            1 for line in raw["sum_checks"] if line.startswith("FAIL"))
    catalogue, values = ((PER_LAYER, raw["per_layer"]) if trace
                         else (END_TO_END, raw["end_to_end"]))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in catalogue}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def report(raw, stamp, result, trace):
    """Human-readable lines ahead of the result line."""
    print("stamp: nproc=%d cpu=%r commit=%s build=%s" % (
        stamp["nproc"], stamp["cpu_model"], stamp["commit"],
        json.dumps(raw["build_info"], sort_keys=True)))
    print("workload: %s seed=%s digest=%s" % (
        raw["workload"], raw["seed"], raw["digest"]))
    print("checked: attempted=%d failed=%d failures=%s" % (
        result["attempted"], result["failed"],
        json.dumps(raw["failures_by_code"], sort_keys=True)))
    for example in raw["failure_examples"]:
        print("  failure:", example[:300])
    units = {name: unit for name, unit, _ in END_TO_END}
    for name, value in raw["end_to_end"].items():
        print("end_to_end: %-22s %14.4f %s" % (name, value, units[name]))
    print("diagnostics:", json.dumps(raw["diagnostics"]))
    if not trace:
        return
    layer_units = {name: unit for name, unit, _ in PER_LAYER}
    for name, value in raw["per_layer"].items():
        unit = layer_units.get(name)
        if unit is None:
            continue
        print("per_layer: %-28s %14.4f %s" % (name, value, unit))
    extra = {k: v for k, v in raw["per_layer"].items() if k not in layer_units}
    print("per_layer diagnostics:", json.dumps(extra))
    for line in raw["sum_checks"]:
        print("sum_check:", line)
    r = raw["replay"]
    print("traced replay: %d requests in %.3f s, handle p50 %.3f us; "
          "untraced replay: %.3f s, handle p50 %.3f us" % (
              r["replayed_requests"], r["traced_wall_s"],
              r["traced_handle_p50_us"], r["untraced_wall_s"],
              r["untraced_handle_p50_us"]))
    print("tracing overhead: %.1f ns per span x %.1f spans per request = "
          "%.3f us per request" % (r["span_cost_ns"], r["spans_per_request"],
                                   r["span_overhead_us_per_request"]))
    print("traced: attempted=%d failed=%d failures=%s spans=%d" % (
        raw["traced_attempted"], raw["traced_failed"],
        json.dumps(raw["traced_failures_by_code"], sort_keys=True),
        raw["spans"]))


def self_test():
    """Every workload in a few seconds: names and units, and a named failure."""
    problems = []
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as f:
            declared = json.load(f)
        for key, catalogue in (("end_to_end", END_TO_END),
                               ("per_layer", PER_LAYER)):
            want = [(m["name"], m["unit"], m["better"])
                    for m in declared[key]]
            if want != list(catalogue):
                problems.append("BENCHMARK.json %s differs from run.py" % key)
        if [w["name"] for w in declared["workloads"]] != WORKLOADS:
            problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace in (False, True):
            raw = run_loadgen(workload, 1, 1, trace, tiny=True)
            result = summarize(raw, trace)
            catalogue = PER_LAYER if trace else END_TO_END
            for name, unit, _ in catalogue:
                got = result["metrics"].get(name)
                if got is None or got["unit"] != unit or not isinstance(
                        got["value"], (int, float)):
                    problems.append("%s trace=%d: %s missing or without "
                                    "unit %s" % (workload, trace, name, unit))
            if not result["correct"]:
                problems.append("%s trace=%d: not correct: %s %s" % (
                    workload, trace, raw["failures_by_code"],
                    raw.get("sum_checks", [])))
            log("self-test: %s trace=%d attempted=%d failed=%d" % (
                workload, trace, result["attempted"], result["failed"]))
    for workload in WORKLOADS:
        raw = run_loadgen(workload, 1, 1, False, tiny=True, corrupt=True)
        result = summarize(raw, False)
        if (result["failed"] != 1 or result["correct"]
                or raw["failures_by_code"] != {"bad_instance": 1}):
            problems.append("%s: the corrupted line was not counted as one "
                            "bad_instance failure: %s" % (
                                workload, raw["failures_by_code"]))
    for problem in problems:
        print("self-test: FAIL", problem)
    print("self-test:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def load_records(path):
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    records = []
    for name in files:
        with open(name) as f:
            records.append(json.load(f))
    if not records:
        raise SystemExit("perfbench: no result records in %s" % path)
    return records


def compare(old_path, new_path):
    """Medians of two sets of saved results (--out), metric by metric."""
    old, new = load_records(old_path), load_records(new_path)
    cores = {r["stamp"]["nproc"] for r in old} | {
        r["stamp"]["nproc"] for r in new}
    if len(cores) > 1:
        print("refused: core_count_mismatch: the results ran on %s cores; "
              "numbers from different core counts differ by up to 1.5x and "
              "are not comparable" % sorted(cores))
        return 2
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as f:
            bounds = {m["name"]: m["bound"]
                      for m in json.load(f)["end_to_end"]}
    keys = sorted({(r["workload"], name) for r in old + new
                   for name in r["result"]["metrics"]})
    for workload, name in keys:
        def values(records):
            return [r["result"]["metrics"][name]["value"] for r in records
                    if r["workload"] == workload
                    and name in r["result"]["metrics"]]
        a, b = values(old), values(new)
        if not a or not b:
            continue
        better = dict((n, d) for n, _, d in END_TO_END + PER_LAYER)[name]
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else 0.0
        worse = change if better == "lower" else -change
        verdict = ""
        if name in bounds:
            verdict = ("WORSE beyond bound %.0f%%" % (bounds[name] * 100)
                       if worse > bounds[name] else "within bound")
        print("%-14s %-28s %14.4f -> %14.4f  %+7.2f%%  %s" % (
            workload, name, ma, mb, change * 100, verdict))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also save the result record here")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    build()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    raw = run_loadgen(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    result = summarize(raw, bool(args.trace))
    stamp = stamps()
    report(raw, stamp, result, bool(args.trace))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "stamp": stamp, "raw": raw, "result": result}, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
