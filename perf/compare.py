#!/usr/bin/env python3
"""Compare the end-to-end benchmark between two checkouts, parent and change.

    perf/compare.py PARENT CHANGE [--seeds 101,102,...]

Runs PARENT/perf/run.sh and CHANGE/perf/run.sh on each workload in ten
pairs (or one per seed, if more seeds are given), alternating which side
runs first, with the same seed on both sides of a pair (--seeds overrides
the seeds 1..10, e.g. with held-out seeds), for BENCHMARK.json's
run_seconds.
For every (workload, end-to-end metric) it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither) and a
verdict against the bound in BENCHMARK.json:

    gain          the change won >= 90% of pairs, the medians differ by more
                  than the parent's own quartile spread, and the change does
                  not fail more operations than the parent
    regression    the change's median is worse than the parent's by more
                  than the bound
    unresolved    the parent's own spread is wider than the bound (and the
                  change did not read better on every run)
    within bound  otherwise

The simulator workloads' modelled metrics (MODELLED) repeat exactly for a
seed, so there the pairs are compared exactly instead:

    identical     every pair reads the same
    gain          some pairs differ, and the change is better in every one
    regression    the change is worse in at least one pair

Also:
    perf/compare.py --check 0|1 < result_line
        validates one mm_perf result line against BENCHMARK.json (exact
        keys, every end-to-end (0) or per-layer (1) metric with its unit,
        correct = true); used by perf/run.sh --smoke
    perf/compare.py --self-test
        checks the verdict and validation logic on synthetic data
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cube_routes", "hier_hostile", "daemon_locate", "daemon_mix"]
# (workload, metric) pairs that are a pure function of the seed.
MODELLED = {(w, m) for w in ("cube_routes", "hier_hostile")
            for m in ("msgs_per_locate", "found_ratio")}


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(bench, result, trace):
    """Returns the list of problems with one parsed result line."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["keys are %s" % sorted(result)]
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    have = result["metrics"]
    if set(have) != set(want):
        problems.append("metrics differ: missing %s, extra %s"
                        % (sorted(set(want) - set(have)), sorted(set(have) - set(want))))
    for name, entry in have.items():
        if name in want and entry.get("unit") != want[name]:
            problems.append("%s: unit %s, declared %s" % (name, entry.get("unit"), want[name]))
        if not isinstance(entry.get("value"), (int, float)):
            problems.append("%s: value is not a number" % name)
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound, parent_failed=0, change_failed=0):
    """Classifies one (workload, metric) from paired runs (same order)."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_share = wins / len(parent)
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    worse = -sign * (mc - mp) / abs(mp) if mp else 0.0
    if worse > bound:
        return "regression", win_share
    if (win_share >= 0.9 and abs(mc - mp) > spread and sign * (mc - mp) > 0
            and change_failed <= parent_failed):
        return "gain", win_share
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if mp and spread / abs(mp) > bound and not all_better:
        return "unresolved", win_share
    return "within bound", win_share


def exact_verdict(parent, change, better):
    """Classifies a modelled metric from pairs run on the same seeds."""
    sign = 1 if better == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    win_share = sum(1 for d in diffs if d > 0) / len(diffs)
    if any(d < 0 for d in diffs):
        return "regression", win_share
    return ("gain" if win_share else "identical"), win_share


def run_once(checkout, workload, seed, seconds):
    cmd = ["bash", os.path.join(checkout, "perf", "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 3) or not lines:
        raise SystemExit("%s failed (exit %d):\n%s" % (" ".join(cmd), out.returncode, out.stderr))
    return json.loads(lines[-1])


def compare(args):
    bench = load_benchmark(args.change if os.path.exists(
        os.path.join(args.change, "BENCHMARK.json")) else os.path.dirname(HERE))
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else list(range(1, 11))
    pairs = max(10, len(seeds))
    regressions = 0
    for w in WORKLOADS:
        runs = {"parent": [], "change": []}
        for i in range(pairs):
            seed = seeds[i % len(seeds)]
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            for side, checkout in order:
                runs[side].append(run_once(checkout, w, seed, bench["run_seconds"]))
        fails = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        tries = {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()}
        print("\n%s  (%d pairs; fail ratio parent %.3g, change %.3g)"
              % (w, pairs, fails["parent"] / tries["parent"], fails["change"] / tries["change"]))
        print("  %-18s %12s %25s %12s %25s %6s  %s"
              % ("metric", "parent", "parent q1..q3", "change", "change q1..q3", "wins", "verdict"))
        for m in bench["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
            c = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
            if (w, m["name"]) in MODELLED:
                v, share = exact_verdict(p, c, m["better"])
            else:
                v, share = verdict(p, c, m["better"], m["bound"], fails["parent"], fails["change"])
            regressions += v == "regression"
            pq, cq = quartiles(p), quartiles(c)
            print("  %-18s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %5.0f%%  %s"
                  % (m["name"], statistics.median(p), pq[0], pq[1], statistics.median(c),
                     cq[0], cq[1], 100 * share, v))
    return 1 if regressions else 0


def self_test():
    bench = {"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
             "per_layer": [{"name": "net.row_builds", "unit": "count", "better": "lower"}]}
    good = {"correct": True, "attempted": 5, "failed": 0,
            "metrics": {"ops_per_s": {"value": 1.5, "unit": "1/s"}}}
    assert check_result(bench, good, False) == []
    assert check_result(bench, good, True)  # per-layer metrics missing
    bad_unit = json.loads(json.dumps(good))
    bad_unit["metrics"]["ops_per_s"]["unit"] = "s"
    assert check_result(bench, bad_unit, False)
    assert check_result(bench, dict(good, correct=False), False)
    assert check_result(bench, dict(good, attempted=0), False)
    assert check_result(bench, dict(good, extra=1), False)

    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    same = [100, 100, 101, 99, 100, 101, 99, 100, 102, 98]
    faster = [v * 1.05 for v in parent]
    slower = [v * 0.85 for v in parent]
    assert verdict(parent, same, "higher", 0.1)[0] == "within bound"
    assert verdict(parent, faster, "higher", 0.1) == ("gain", 1.0)
    assert verdict(parent, faster, "higher", 0.1, parent_failed=0, change_failed=3)[0] != "gain"
    assert verdict(parent, slower, "higher", 0.1)[0] == "regression"
    # Lower-is-better metrics mirror: a 15% rise in latency is a regression.
    assert verdict(parent, [v * 1.15 for v in parent], "lower", 0.1)[0] == "regression"
    assert verdict(parent, [v * 0.95 for v in parent], "lower", 0.1)[0] == "gain"
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert verdict(noisy, noisy[::-1], "higher", 0.1)[0] == "unresolved"
    assert verdict(noisy, [v + 200 for v in noisy], "higher", 0.1)[0] == "gain"

    # Modelled metrics: any per-seed difference counts, however small.
    hops = [4.1, 4.2, 4.0, 4.3]
    assert exact_verdict(hops, list(hops), "lower") == ("identical", 0.0)
    assert exact_verdict(hops, [4.1, 4.2, 4.0, 4.3001], "lower")[0] == "regression"
    assert exact_verdict(hops, [4.1, 4.1, 4.0, 4.3], "lower") == ("gain", 0.25)
    assert exact_verdict(hops, [4.0, 4.3, 4.0, 4.3], "lower")[0] == "regression"
    print("compare.py self-test: ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--seeds", help="comma-separated seeds (default 1..10)")
    ap.add_argument("--check", choices=["0", "1"], help="validate a result line read from stdin")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.check is not None:
        bench = load_benchmark(os.path.dirname(HERE))
        problems = check_result(bench, json.loads(sys.stdin.read()), args.check == "1")
        for p in problems:
            print("compare.py --check: " + p, file=sys.stderr)
        return 1 if problems else 0
    if not (args.parent and args.change):
        ap.error("need PARENT and CHANGE checkouts")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
