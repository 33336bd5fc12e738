#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload compile|run --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. The first run builds the benchmark
package (perfbench/CMakeLists.txt: the snslp library and the perfbench
program) into .bench_build/. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: with
--trace 0 every end-to-end metric of BENCHMARK.json, with --trace 1 every
per-layer metric (0 where the workload does not exercise the layer). Each
run is also appended, stamped with the host and the settings, to
.bench_results/runs.jsonl, which compare.py reads. See README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RESULTS = ROOT / ".bench_results"
BUILD_TYPE = "RelWithDebInfo"
# A workload run must end within 180 s; perfbench itself takes --seconds
# plus its set-up and checks.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the package; a no-op when up to date."""
    if not (ROOT / "src").is_dir():
        log("the snslp sources (src/) are not in this checkout")
        return False
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", str(BUILD), "-j", "4"],
    ]
    if (BUILD / "CMakeCache.txt").exists():
        steps = steps[1:]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_digest():
    """Hash of the sources under test, so pins compare only like with like."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


# Deterministic outputs: the same sources and seed must reproduce them
# exactly (vectorized-text digests, remark count, cost and cycle counts).
PIN_STAMPS = ("digest.SN-SLP", "digest.GoSLP", "remarks", "vector_cost",
              "sim_cycle_speedup")
PIN_UNITS = ("count", "bytes", "cost")
PIN_LAYERS = ("ir.", "passes.", "slp.", "jit.")


def pins(stamp, metrics):
    out = {k: stamp[k] for k in PIN_STAMPS if k in stamp}
    out.update({n: m["value"] for n, m in metrics.items()
                if m["unit"] in PIN_UNITS and n.startswith(PIN_LAYERS)})
    return out


def previous_pins(stamp):
    """Pins of the latest earlier run of the same sources and settings."""
    found = None
    path = RESULTS / "runs.jsonl"
    if path.exists():
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            s = rec["stamp"]
            if all(s.get(k) == stamp[k] for k in
                   ("workload", "seed", "trace", "source", "isa")):
                found = rec.get("pins")
    return found


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["compile", "run"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        log("--seconds must be at least 1")
        return 2
    if not build():
        return 1

    RESULTS.mkdir(exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%d" % args.seconds]
    if args.trace:
        cmd += ["--trace", "--trace-out=%s" % (
            RESULTS / ("trace-%s-%d.jsonl" % (args.workload, args.seed)))]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench printed no result (exit code %d)" % proc.returncode)
        return 1
    if proc.returncode != 0:
        log("perfbench exited with code %d" % proc.returncode)
        return 1

    # Conform the metrics to BENCHMARK.json.
    want = declared(args.trace)
    metrics = {}
    for name, unit in want.items():
        got = raw["metrics"].get(name)
        if got is None:
            if not args.trace:
                log("end-to-end metric %s was not measured" % name)
                return 1
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            log("metric %s has unit %s, BENCHMARK.json says %s"
                % (name, got["unit"], unit))
            return 1
        metrics[name] = got
    # Metrics outside BENCHMARK.json (the unbounded latencies, ratios and
    # CPU time) are kept in runs.jsonl for compare.py.
    extra = sorted(set(raw["metrics"]) - set(want) -
                   set(declared(not args.trace)))
    if extra:
        log("%d unbounded metric(s) kept in runs.jsonl" % len(extra))

    result = {"correct": bool(raw["correct"]),
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": metrics}
    stamp = dict(raw.get("stamp", {}))
    stamp.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "build_type": BUILD_TYPE, "nproc": os.cpu_count(),
        "force_isa": os.environ.get("SNSLP_FORCE_ISA", ""),
        "source": source_digest(),
        "started": started, "wall_s": time.time() - started,
    })
    mine = pins(stamp, raw["metrics"])
    before = previous_pins(stamp)
    if before is not None:
        # The comparison with the earlier run is one more checked operation.
        result["attempted"] += 1
        if before != mine:
            for key in sorted(set(before) | set(mine)):
                if before.get(key) != mine.get(key):
                    log("determinism pin %s changed: %s -> %s"
                        % (key, before.get(key), mine.get(key)))
            result["correct"] = False
            result["failed"] += 1
        if "ok_ratio" in metrics:
            metrics["ok_ratio"] = {
                "value": 1 - result["failed"] / result["attempted"],
                "unit": "ratio"}
            raw["metrics"]["ok_ratio"] = metrics["ok_ratio"]
    with open(RESULTS / "runs.jsonl", "a") as out:
        # Every measured metric is kept here, the unbounded ones too.
        out.write(json.dumps({"stamp": stamp, "pins": mine, "result": result,
                              "measured": raw["metrics"]}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
