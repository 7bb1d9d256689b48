#!/usr/bin/env python3
"""Run the round benchmark over seeds and compare result sets.

    python3 roundbench/report.py sweep --seeds 1-10 --out a.jsonl [--workloads w1,w2] [--trace 0]
    python3 roundbench/report.py spread a.jsonl
    python3 roundbench/report.py compare parent.jsonl change.jsonl

sweep runs every workload (each run its own process, through run.py) and
appends one record per run to --out: workload, seed, trace flag, the host
line and the result line. It prints every metric by name and unit with the
run's output checks, and exits non-zero if any run failed or was incorrect.

spread prints, per workload and end-to-end metric, the median, quartiles and
interquartile range as a share of the median, against BENCHMARK.json's bound.

compare is advisory: per workload and end-to-end metric it gives both sides'
medians and quartiles, the share of seed-paired runs the change won, and a
verdict against the bound: improved, within bound, worse, or unresolved when
the parent's own spread exceeds the bound. It changes no bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload_metric(records):
    """{(workload, metric): {seed: value}} over untraced records."""
    out = {}
    for r in records:
        if r["trace"]:
            continue
        for name, m in r["result"]["metrics"].items():
            out.setdefault((r["workload"], name), {})[r["seed"]] = m["value"]
    return out


def sweep(args):
    bench = load_bench()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    with open(args.out, "a") as out:
        for wl in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = [*bench["command"], "--workload", wl, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = [l for l in proc.stdout.splitlines() if l.strip()]
                if proc.returncode != 0 or not lines:
                    print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    ok = False
                    continue
                host = json.loads(lines[0]).get("host", {}) if len(lines) > 1 else {}
                res = json.loads(lines[-1])
                out.write(json.dumps({"workload": wl, "seed": seed, "trace": bool(args.trace),
                                      "host": host, "result": res}) + "\n")
                out.flush()
                ok = ok and res["correct"]
                print(f"{wl} seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
                for name in sorted(res["metrics"]):
                    m = res["metrics"][name]
                    print(f"  {name:40s} {m['value']:16.4f} {m['unit']}")
                if not res["correct"]:
                    print(proc.stderr, file=sys.stderr)
    return 0 if ok else 1


def spread(args):
    bench = load_bench()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    table = by_workload_metric(load(args.results))
    worst = 0.0
    print(f"{'workload':20s} {'metric':24s} {'n':>3s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} {'bound':>6s}")
    for (wl, name), vals in sorted(table.items()):
        values = list(vals.values())
        q1, med, q3 = quartiles(values)
        share = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, share / bound)
            flag = "ok" if share < bound / 3 else ("WIDE" if share > bound else "loose")
        print(f"{wl:20s} {name:24s} {len(values):3d} {med:14.4f} {q1:14.4f} {q3:14.4f} {share:8.4f} {bound if bound is not None else '-':>6} {flag}")
    print(f"largest spread as a share of its bound: {worst:.3f} (target below 0.333)")
    return 0


def verdict(parent, change, bound, better):
    """Advisory verdict for one workload x metric (see module doc)."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1 if better == "higher" else -1

    def is_better(c, p):
        return sign * (c - p) > 0

    pairs = list(zip(parent, change))
    decided = [p for p in pairs if p[0] != p[1]]
    won = sum(1 for p, c in decided if is_better(c, p)) / len(pairs) if pairs else 0.0
    all_better = all(is_better(c, p) for c in change for p in parent)
    parent_spread = (p3 - p1) / abs(pm) if pm else float("inf")
    worse_share = -sign * (cm - pm) / abs(pm) if pm else 0.0
    if parent_spread > bound:
        return won, "improved" if all_better else "unresolved"
    if won >= 0.9 and sign * (cm - pm) > (p3 - p1):
        return won, "improved"
    if worse_share > bound:
        return won, "worse"
    return won, "within bound"


def compare(args):
    bench = load_bench()
    parent = by_workload_metric(load(args.parent))
    change = by_workload_metric(load(args.change))
    print(f"{'workload':20s} {'metric':24s} {'parent med [q1,q3]':>36s} {'change med [q1,q3]':>36s} {'won':>5s}  verdict")
    for wl in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            key = (wl, m["name"])
            if key not in parent or key not in change:
                continue
            seeds = sorted(set(parent[key]) & set(change[key]))
            if seeds:
                pv = [parent[key][s] for s in seeds]
                cv = [change[key][s] for s in seeds]
            else:  # no shared seeds: pair runs in recorded order
                pv, cv = list(parent[key].values()), list(change[key].values())
                n = min(len(pv), len(cv))
                pv, cv = pv[:n], cv[:n]
            won, v = verdict(pv, cv, m["bound"], m["better"])
            pq, cq = quartiles(pv), quartiles(cv)
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g},{q[2]:.4g}]"
            print(f"{wl:20s} {m['name']:24s} {fmt(pq):>36s} {fmt(cq):>36s} {won:5.2f}  {v}")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sweep")
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--workloads", default="")
    s.add_argument("--seconds", type=int, default=0)
    s.add_argument("--trace", type=int, default=0, choices=[0, 1])
    s.add_argument("--out", required=True)
    s.set_defaults(fn=sweep)
    p = sub.add_parser("spread")
    p.add_argument("results")
    p.set_defaults(fn=spread)
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    c.set_defaults(fn=compare)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
