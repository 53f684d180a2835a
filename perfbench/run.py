#!/usr/bin/env python3
"""The repository benchmark.

One run builds the harness (perfbench/CMakeLists.txt) from the checkout's
sources on first use, runs one workload and prints, as its last line, one
JSON object with the keys correct, attempted, failed and metrics:

    python3 perfbench/run.py --workload campaign-n4 --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  The exit code is 0 only when every output passed the
correctness gate; a checkout without the library sources exits 2.

Steadiness mode runs a workload (or "all") once per seed and prints, for
each metric, the median, the quartiles and their spread next to its bound;
it then repeats the first seed and checks that the exact-count block and
the per-cell digests repeat bit for bit:

    python3 perfbench/run.py --workload all --steady 10 --seed 1 --seconds 20 --trace 0

See perfbench/README.md for the workloads, the metrics and the held-out seed.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 19        # fresh-process set-ups per run; setup_s is their median
RUN_TIMEOUT_S = 170    # one run, set-ups included
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds simbench once per checkout; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the library sources (src/) are missing from this checkout")
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        sys.exit(2)
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    build_dir = os.path.join(target_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "simbench", "-j4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)
    return os.path.join(build_dir, "simbench")


def clean_env():
    # The library reads SIMULCAST_* knobs (threads, trace and log sinks);
    # none may leak into a measurement.
    return {k: v for k, v in os.environ.items() if not k.startswith("SIMULCAST_")}


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def run_harness(exe, workload, seed, seconds, trace):
    """One benchmark run; returns the harness's full record."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = clean_env()
    base = [exe, "--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS):
            done = subprocess.run(base + ["--setup-only"], stdout=subprocess.PIPE, text=True,
                                  env=env, timeout=30)
            if done.returncode != 0:
                raise RuntimeError("set-up run failed with exit code %d" % done.returncode)
            setups.append(last_json_line(done.stdout)["setup_s"])
    done = subprocess.run(base + ["--seconds", str(seconds), "--trace", "1" if trace else "0"],
                          stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError("simbench exited with code %d" % done.returncode)
    record = last_json_line(done.stdout)
    if not trace:
        setups.append(record["metrics"]["setup_s"]["value"])
        record["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return record


def check_metrics(record, contract, trace):
    """Exactly the contract's metrics, each a finite number with its unit."""
    expected = contract["per_layer" if trace else "end_to_end"]
    problems = []
    metrics = record["metrics"]
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append("metric %s missing" % spec["name"])
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append("metric %s is not a finite number" % spec["name"])
        elif got["unit"] != spec["unit"]:
            problems.append("metric %s has unit %s, expected %s" % (spec["name"], got["unit"],
                                                                   spec["unit"]))
        elif not trace and got["value"] <= 0:
            problems.append("metric %s is not positive" % spec["name"])
    names = {spec["name"] for spec in expected}
    extra = sorted(set(metrics) - names)
    if extra:
        problems.append("unlisted metrics: " + ", ".join(extra))
    return problems


def summarize(record):
    """Human-readable lines: the exact-count block, cells and any errors."""
    print("workload %s seed %s trace %s: %s passes, %s executions attempted, %s failed"
          % (record["workload"], record["seed"], record["trace"], record["passes"],
             record["attempted"], record["failed"]))
    if "counts" in record:
        print("counts per pass: " + " ".join("%s=%d" % kv for kv in record["counts"].items()))
        for cell in record["cells"]:
            print("  cell %-52s digest %s  cr_gap %.4f" % (cell["name"], cell["digest"],
                                                           cell["cr_gap"]))
    for key, value in sorted(record.get("detail", {}).items()):
        print("  %s = %s" % (key, value))
    for name, m in sorted(record["metrics"].items()):
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    for err in record["errors"]:
        print("  ERROR " + err)


def one_run(args, contract):
    exe = build()
    try:
        record = run_harness(exe, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log("perfbench: run failed: %s" % e)
        return 1
    problems = check_metrics(record, contract, args.trace)
    record["errors"].extend(problems)
    correct = bool(record["correct"]) and not problems
    summarize(record)
    result = {"correct": correct, "attempted": record["attempted"], "failed": record["failed"],
              "metrics": record["metrics"]}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance check takes them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def steady(args, contract):
    exe = build()
    names = [w["name"] for w in contract["workloads"]] if args.workload == "all" else [args.workload]
    specs = contract["per_layer" if args.trace else "end_to_end"]
    ok = True
    report = {}
    for workload in names:
        records = []
        for i in range(args.steady):
            seed = args.seed + i
            record = run_harness(exe, workload, seed, args.seconds, args.trace)
            problems = check_metrics(record, contract, args.trace) + record["errors"]
            if problems or not record["correct"]:
                ok = False
                log("%s seed %d: %s" % (workload, seed, "; ".join(problems) or "incorrect"))
            records.append(record)
            log("%s seed %d: %s" % (workload, seed, ", ".join(
                "%s=%.6g" % (s["name"], record["metrics"][s["name"]]["value"]) for s in specs)))
        # The exact counts and digests must repeat bit for bit for one seed.
        again = run_harness(exe, workload, args.seed, args.seconds, args.trace)
        repeat = (again.get("counts") == records[0].get("counts") and
                  [c["digest"] for c in again.get("cells", [])] ==
                  [c["digest"] for c in records[0].get("cells", [])])
        ok = ok and repeat
        print("== %s: %d seeds from %d, %gs each; counts and digests repeat: %s"
              % (workload, args.steady, args.seed, args.seconds, "yes" if repeat else "NO"))
        print("   %-36s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread",
                                                  "bound"))
        report[workload] = {}
        for s in specs:
            values = [r["metrics"][s["name"]]["value"] for r in records]
            med, q1, q3, sp = spread(values)
            bound = s.get("bound")
            flag = ""
            if bound is not None and s["name"] != "setup_s":
                flag = "ok" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
            print("   %-36s %12.6g %12.6g %12.6g %7.2f%% %6s %s"
                  % (s["name"], med, q1, q3, 100 * sp, "" if bound is None else bound, flag))
            report[workload][s["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": sp}
    print(json.dumps({"steady": ok, "report": report}), flush=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--steady", type=int, default=0,
                        help="steadiness mode: run this many seeds and report spreads")
    args = parser.parse_args()
    contract = load_contract()
    known = [w["name"] for w in contract["workloads"]]
    if args.workload not in known and not (args.steady and args.workload == "all"):
        parser.error("unknown workload %r (known: %s)" % (args.workload, ", ".join(known)))
    return steady(args, contract) if args.steady else one_run(args, contract)


if __name__ == "__main__":
    sys.exit(main())
