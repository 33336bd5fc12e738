#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file is a runs.jsonl written by run.py (one stamped run per line),
for example .bench_results/runs.jsonl copied aside after measuring each
commit. For every workload found on both sides it prints each end-to-end
metric's median and quartiles per side, the change of the medians, and
whether that change is worse than the metric's bound in BENCHMARK.json;
then, from the traced runs, the per-layer self-time table; then, for every
seed run on both sides, whether the determinism pins (vectorized-text
digests, remark count, vector cost, simulated cycles and the traced
counts) are equal, so a change that must keep the vectorized text
byte-identical can show it. Results taken
on hosts with a different CPU count or ISA tier (SNSLP_FORCE_ISA counts)
are refused: their numbers do not compare.
"""

import json
import pathlib
import statistics
import sys

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text())


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    if not runs:
        sys.exit("compare.py: %s holds no runs" % path)
    return runs


def host(runs, path):
    keys = {(str(r["stamp"].get("nproc")), str(r["stamp"].get("isa")))
            for r in runs}
    if len(keys) != 1:
        sys.exit("compare.py: %s mixes hosts %s" % (path, sorted(keys)))
    return keys.pop()


def summary(values):
    if not values:
        return None
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def collect(runs, workload, trace):
    out = {}
    for r in runs:
        s = r["stamp"]
        if s["workload"] == workload and int(s["trace"]) == trace:
            for name, m in r.get("measured", r["result"]["metrics"]).items():
                out.setdefault(name, []).append(m["value"])
    return out


def pins_by_seed(runs, workload):
    """The pins of the latest run per (seed, trace) of one workload."""
    out = {}
    for r in runs:
        s = r["stamp"]
        if s["workload"] == workload and "pins" in r:
            out[(int(s["seed"]), int(s["trace"]))] = r["pins"]
    return out


def report_pins(base, change, wl):
    pb, pc = pins_by_seed(base, wl), pins_by_seed(change, wl)
    common = sorted(set(pb) & set(pc))
    if not common:
        return
    print("\n-- %s: determinism pins, per seed run on both sides" % wl)
    for seed, trace in common:
        b, c = pb[(seed, trace)], pc[(seed, trace)]
        diff = sorted(k for k in set(b) | set(c) if b.get(k) != c.get(k))
        print("seed %-6d trace %d: %s" % (
            seed, trace, "equal (%d pins)" % len(b) if not diff else
            "%d of %d differ" % (len(diff), len(set(b) | set(c)))))
        for k in diff:
            print("    %-36s %s -> %s" % (k, b.get(k), c.get(k)))


def fmt(s):
    if s is None:
        return "%30s" % "-"
    med, q1, q3, n = s
    return "%11.5g [%8.4g, %8.4g] n=%-2d" % (med, q1, q3, n)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    hb, hc = host(base, sys.argv[1]), host(change, sys.argv[2])
    if hb != hc:
        sys.exit("compare.py: refusing to compare nproc/ISA %s with %s"
                 % (hb, hc))
    print("host: nproc %s, isa %s" % hb)
    workloads = sorted({r["stamp"]["workload"] for r in base} &
                       {r["stamp"]["workload"] for r in change})
    for wl in workloads:
        b, c = collect(base, wl, 0), collect(change, wl, 0)
        if not b or not c:
            continue
        print("\n== %s: end-to-end (median [q1, q3])" % wl)
        print("%-18s %-6s %30s %30s %8s" % ("metric", "better", "base",
                                            "change", "delta"))
        # The bounded metrics of BENCHMARK.json first, then the unbounded
        # ones the workload also measured.
        bounded = {m["name"] for m in SPEC["end_to_end"]}
        rows = SPEC["end_to_end"] + [
            {"name": n, "better": "", "bound": None}
            for n in sorted((set(b) & set(c)) - bounded)]
        for m in rows:
            sb, sc = summary(b.get(m["name"], [])), summary(c.get(m["name"], []))
            delta, verdict = "", ""
            if sb and sc and sb[0]:
                d = (sc[0] - sb[0]) / abs(sb[0])
                delta = "%+7.2f%%" % (100 * d)
                worse = d if m["better"] == "lower" else -d
                if m["bound"] is not None and worse > m["bound"]:
                    verdict = "  WORSE than bound %.0f%%" % (100 * m["bound"])
            print("%-18s %-6s %s %s %8s%s" % (m["name"], m["better"], fmt(sb),
                                             fmt(sc), delta, verdict))
        tb, tc = collect(base, wl, 1), collect(change, wl, 1)
        layers = sorted(n for n in set(tb) | set(tc) if n.startswith("self_us."))
        rows = [(n, summary(tb.get(n, [])), summary(tc.get(n, [])))
                for n in layers]
        rows = [r for r in rows if (r[1] and r[1][0]) or (r[2] and r[2][0])]
        if rows:
            print("\n-- %s: traced self time per layer, us per op" % wl)
            for name, sb, sc in rows:
                print("%-18s %-6s %s %s" % (name, "lower", fmt(sb), fmt(sc)))
        report_pins(base, change, wl)
    return 0


if __name__ == "__main__":
    sys.exit(main())
