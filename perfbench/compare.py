#!/usr/bin/env python3
"""Collect benchmark runs and compare two commits' runs.

Collect runs of two checkouts -- say the parent commit's and a change's --
with the same seeds, one JSON result line per run into each side's file:

    python3 perfbench/compare.py collect --seeds 1-10 \
        base.jsonl=../base change.jsonl=. [--workloads serve_mixed,append_mixed]

For each seed and workload the two sides run back to back, in turns:
base then change for the first seed, change then base for the next, and
so on. The host's speed drifts over the minutes a collection takes; run
in turns, both sides see the same drift, and a pair of runs of one seed
is a fair match. This is the only way the benchmark compares commits:
two collections made one after the other would put that drift into the
difference. Given one OUT=CHECKOUT, collect runs that checkout alone (for
`spread`).

Compare the two collections:

    python3 perfbench/compare.py compare base.jsonl change.jsonl

prints one row per workload and end-to-end metric: each side's median and
quartiles, the share of seed-matched pairs the change won (ties count for
neither side), the change in the median, and a verdict against the
metric's bound in BENCHMARK.json:

    better      the change wins at least 9 of 10 pairs and its median is
                better by more than the base runs' quartile spread
    ok          not worse than the base median by more than the bound
    REGRESSION  worse than the base median by more than the bound
    unresolved  the base runs spread wider than the bound, so the bound
                cannot be judged -- unless every change run beats every
                base run, which reads as better

    python3 perfbench/compare.py spread runs.jsonl

prints each metric's quartile spread (as a share of its median) next to
its bound, and the share of failed operations per workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def load_spec(root):
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(root, spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{root}: {workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def collect(args):
    sides = []
    for item in args.sides:
        out, _, checkout = item.partition("=")
        root = Path(checkout or ".").resolve()
        sides.append((out, root, load_spec(root)))
    if not 1 <= len(sides) <= 2:
        sys.exit("collect takes one or two OUT=CHECKOUT")
    spec = sides[0][2]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    files = [open(out, "a") for out, _, _ in sides]
    try:
        for turn, seed in enumerate(parse_seeds(args.seeds)):
            order = list(range(len(sides)))
            if turn % 2:
                order.reverse()
            for workload in workloads:
                for i in order:
                    out, root, side_spec = sides[i]
                    result = run_once(root, side_spec, workload, seed)
                    record = {"workload": workload, "seed": seed, **result}
                    files[i].write(json.dumps(record) + "\n")
                    files[i].flush()
                    print(f"{out}: {workload} seed {seed}: "
                          f"correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}",
                          file=sys.stderr)
    finally:
        for f in files:
            f.close()


def load_runs(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def values_of(records, metric):
    return [r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"]]


def show_spread(args):
    spec = load_spec(BENCH_DIR.parent)
    runs = load_runs(args.runs)
    print(f"{'workload':<16}{'metric':<16}{'runs':>5}{'median':>14}"
          f"{'spread':>9}{'bound':>7}")
    for workload, records in runs.items():
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        shares = sorted({r["failed"] / r["attempted"] for r in records})
        for m in spec["end_to_end"]:
            values = values_of(records, m["name"])
            if not values:
                continue
            s = spread(values)
            flag = "" if s <= m["bound"] else "  WIDER THAN BOUND"
            print(f"{workload:<16}{m['name']:<16}{len(values):>5}"
                  f"{statistics.median(values):>14.6g}{100 * s:>8.2f}%"
                  f"{100 * m['bound']:>6.0f}%{flag}")
        print(f"{workload:<16}{'failed':<16}{len(records):>5}"
              f"{failed:>8}/{attempted:<8} share(s) per run: {shares}")


def compare(args):
    spec = load_spec(BENCH_DIR.parent)
    base, change = load_runs(args.base), load_runs(args.change)
    print(f"{'workload':<16}{'metric':<15}{'base median [q1, q3]':>34}"
          f"{'change median [q1, q3]':>34}{'won':>6}{'diff':>9}  verdict")
    for workload in base:
        if workload not in change:
            continue
        for m in spec["end_to_end"]:
            a = values_of(base[workload], m["name"])
            b = values_of(change[workload], m["name"])
            if not a or not b:
                continue
            sign = 1.0 if m["better"] == "higher" else -1.0
            qa, qb = quartiles(a), quartiles(b)
            by_seed = {r["seed"]: r["metrics"][m["name"]]["value"]
                       for r in base[workload]}
            pairs = [(by_seed[r["seed"]], r["metrics"][m["name"]]["value"])
                     for r in change[workload] if r["seed"] in by_seed]
            won = sum(1 for x, y in pairs if sign * (y - x) > 0)
            diff = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = -sign * diff
            all_beat = min(b) > max(a) if sign > 0 else max(b) < min(a)
            if (pairs and won >= 0.9 * len(pairs)
                    and sign * (qb[1] - qa[1]) > qa[2] - qa[0]):
                verdict = "better"
            elif spread(a) > m["bound"]:
                verdict = "better" if all_beat else "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            print(f"{workload:<16}{m['name']:<15}{fmt(qa):>34}{fmt(qb):>34}"
                  f"{won:>3}/{len(pairs):<2}{100 * diff:>+8.2f}%  {verdict}")


def fmt(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("sides", nargs="+", metavar="OUT=CHECKOUT",
                   help="result file and the checkout to run, once or twice")
    c.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    c.add_argument("--workloads", default="")
    c.set_defaults(func=collect)
    s = sub.add_parser("spread")
    s.add_argument("runs")
    s.set_defaults(func=show_spread)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("change")
    p.set_defaults(func=compare)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
