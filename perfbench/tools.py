#!/usr/bin/env python3
"""Companion commands for the benchmark. Run from the repository root.

  python3 perfbench/tools.py steady  [--runs 10] [--seed 1] [--workloads a,b] [--out DIR]
      Runs each workload --runs times (seeds --seed, --seed+1, ...), keeps
      every result in DIR/<workload>-seed<N>.json, and prints per
      end-to-end metric the median, quartiles and relative spread
      (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

  python3 perfbench/tools.py compare PARENT_DIR CHANGE_DIR
      Applies the win rule to two sets of result files made by `steady`
      (the parent commit's and the change's): per metric, the change wins
      when it is better in at least nine tenths of the seed-matched pairs
      and the medians differ by more than the parent's interquartile
      distance; it is worse when its median is worse than the parent's by
      more than the bound. Prints one row per workload.

  python3 perfbench/tools.py repeat [--seed 7] [--rounds 1]
      Runs each workload twice, traced, with the same seed and a fixed
      number of whole rounds (one round is small), and requires the
      deterministic counts to repeat exactly.

  python3 perfbench/tools.py counts [--seed 7] [--rounds 1]
      Prints the deterministic counts of one such run per workload as the
      Markdown table the README quotes, so no stored copy is trusted.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = "BENCHMARK.json"

# Counts that must repeat exactly for a fixed seed, per workload.
DETERMINISTIC = {
    "cold_pipeline": ["graph.pairs", "graph.bytes", "slice.instances_visited"],
    "serve_mix": ["sessions.cache_hits", "slice.instances_visited"],
    "session_churn": ["sessions.evicted", "snapshot.hit", "slice.instances_visited"],
    "paged_budget": ["paged.misses", "slice.instances_visited"],
}


def load_bench():
    with open(BENCH) as f:
        return json.load(f)


def run_once(bench, workload, seed, trace, extra=()):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(results, metric):
    values = [r["metrics"][metric]["value"] for r in results]
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def cmd_steady(args):
    bench = load_bench()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    for w in workloads:
        results = []
        for i in range(args.runs):
            seed = args.seed + i
            r = run_once(bench, w, seed, 0)
            with open(os.path.join(args.out, f"{w}-seed{seed}.json"), "w") as f:
                json.dump(r, f)
            results.append(r)
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), file=sys.stderr)
        fails = {(r["failed"], r["attempted"]) for r in results}
        print(f"{w}: {args.runs} runs, failed/attempted {sorted(fails)[:3]}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            med, q1, q3, spread = summarize(results, m["name"])
            if spread <= m["bound"] / 3:
                verdict = "ok"
            elif spread <= m["bound"]:
                verdict = "within bound, above a third"
            else:
                verdict = "OVER BOUND"
            print(f"  {m['name']:<14} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {m['bound']:>6}  {verdict}")


def read_set(directory):
    sets = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload, _, seed = name[:-5].rpartition("-seed")
        with open(os.path.join(directory, name)) as f:
            sets.setdefault(workload, {})[int(seed)] = json.load(f)
    return sets


def cmd_compare(args):
    bench = load_bench()
    parent, change = read_set(args.parent), read_set(args.change)
    print(f"{'workload':<15} verdicts (win / worse / same / unresolved)")
    for w in [x["name"] for x in bench["workloads"]]:
        if w not in parent or w not in change:
            print(f"{w:<15} missing in one set")
            continue
        seeds = sorted(set(parent[w]) & set(change[w]))
        cells = []
        for m in bench["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            p = [parent[w][s]["metrics"][name]["value"] for s in seeds]
            c = [change[w][s]["metrics"][name]["value"] for s in seeds]
            wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
            pm, cm = statistics.median(p), statistics.median(c)
            q1, _, q3 = quartiles(p)
            worse_by = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
            if wins * 10 >= 9 * len(seeds) and abs(cm - pm) > (q3 - q1):
                verdict = "win"
            elif worse_by > m["bound"]:
                verdict = "WORSE"
            elif (q3 - q1) / pm > m["bound"] if pm else False:
                verdict = "unresolved"
            else:
                verdict = "same"
            cells.append(f"{name}={verdict}({wins}/{len(seeds)}, {worse_by:+.1%})")
        print(f"{w:<15} " + "  ".join(cells))


def traced_counts(bench, workload, seed, rounds):
    r = run_once(bench, workload, seed, 1, ["--rounds", str(rounds)])
    return {k: r["metrics"][k]["value"] for k in DETERMINISTIC[workload]}


def cmd_repeat(args):
    bench = load_bench()
    bad = 0
    for w in DETERMINISTIC:
        a = traced_counts(bench, w, args.seed, args.rounds)
        b = traced_counts(bench, w, args.seed, args.rounds)
        for k in DETERMINISTIC[w]:
            same = a[k] == b[k]
            bad += not same
            print(f"{w:<15} {k:<26} {a[k]:>14.6g} {b[k]:>14.6g}  {'same' if same else 'DIFFERENT'}")
    if bad:
        raise SystemExit(f"{bad} counts did not repeat")
    print("every deterministic count repeated exactly")


def cmd_counts(args):
    bench = load_bench()
    print(f"| workload | count | value (seed {args.seed}, {args.rounds} rounds) |")
    print("|---|---|---|")
    for w in DETERMINISTIC:
        for k, v in traced_counts(bench, w, args.seed, args.rounds).items():
            print(f"| {w} | `{k}` | {v:.10g} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("steady")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--workloads", default="")
    s.add_argument("--out", default=".perfbench/steady")
    s.set_defaults(fn=cmd_steady)
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    c.set_defaults(fn=cmd_compare)
    for name, fn in (("repeat", cmd_repeat), ("counts", cmd_counts)):
        r = sub.add_parser(name)
        r.add_argument("--seed", type=int, default=7)
        r.add_argument("--rounds", type=int, default=1)
        r.set_defaults(fn=fn)
    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
