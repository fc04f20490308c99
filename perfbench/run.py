#!/usr/bin/env python3
"""The repository's end-to-end benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the perfbench binary from the
checkout's sources into .bench_build/, generates workload W's fixture from
seed N (timed, SETUP_REPEATS times), runs W for S seconds and prints the
metrics BENCHMARK.json names. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave the checkout's files untouched
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("trace_ingest", "whatif_sweep", "serve_replay")
SETUP_REPEATS = 3
DEADLINE_S = 170.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def remaining(started):
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        fail("out of time")
    return left


def build(root):
    """Configures once, then builds incrementally; returns the binary."""
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    log_path = os.path.join(root, ".bench_build", "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=log,
                                      timeout=900).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if code != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def invoke(binary, args, started):
    """Runs the binary; returns its last stdout line parsed as JSON."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=remaining(started))
    except subprocess.TimeoutExpired:
        fail("perfbench %s timed out" % args[0])
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("perfbench %s exited with %d" % (args[0], done.returncode))
    return json.loads(lines[-1])


def report_e2e(workload, seed, raw, metrics, detail):
    print("%s seed %d: %d ops over %.1f s (host time), error_rate %.4g "
          "(%d failed / %d attempted)" % (
              workload, seed, raw["attempted"], raw["wall_s"],
              stats.error_rate(raw["attempted"], raw["failed"]),
              raw["failed"], raw["attempted"]))
    fidelity = "prediction_error_pct %.4f (simulated time)" % (
        metrics["prediction_error_pct"])
    print("  latency_p50_ms    %10.4f  n=%d  | %s" % (
        metrics["latency_p50_ms"], detail["samples"], fidelity))
    print("  latency_tail_ms   %10.4f  p%.2f, n=%d, %d beyond | %s" % (
        metrics["latency_tail_ms"], detail["tail_percentile"],
        detail["samples"], stats.TAIL_BEYOND, fidelity))
    for name in ("predictions_per_s", "ok_ratio", "peak_rss_mb", "setup_s"):
        print("  %-17s %10.4f" % (name, metrics[name]))


def report_layers(workload, raw, metrics, units):
    print("%s traced run: %d untraced and %d traced ops (host time)" % (
        workload, len(raw["latencies_ms"]), len(raw["traced_ms"])))
    for name, unit in units.items():
        print("  %-36s %14.4f %s" % (name, metrics[name], unit))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    root = os.getcwd()

    binary = build(root)
    work = os.path.join(root, ".bench_build", "work",
                        "%s-%d" % (args.workload, args.seed))
    spans = os.path.join(root, ".bench_build", "spans",
                         "%s-%d.json" % (args.workload, args.seed))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    try:
        setup_seconds = []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            setup_seconds.append(
                invoke(binary, ["setup"] + common, started)["setup_s"])
        os.sync()  # no fixture writeback competes with the timed run
        run_args = ["run"] + common + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)]
        if args.trace:
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            run_args += ["--spans", spans]
        raw = invoke(binary, run_args, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    if args.trace == 0:
        values, detail = stats.end_to_end(raw, setup_seconds)
        report_e2e(args.workload, args.seed, raw, values, detail)
        units = dict(stats.E2E_METRICS)
    else:
        attempted += int(raw["traced_attempted"])
        failed += int(raw["traced_failed"])
        with open(spans) as f:
            values = stats.per_layer(raw, json.load(f))
        units = stats.per_layer_units()
        report_layers(args.workload, raw, values, units)
    result = {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
