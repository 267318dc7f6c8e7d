#!/usr/bin/env python3
"""End-to-end benchmark of pcbl: cold builds, single-client serving, appends.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload build_bluenile --seed 1 \
        --seconds 15 --trace 0

The first run builds the program (the repository's own CMake build, into
.bench_build/) and the benchmark's driver against it. Inputs are made from
--seed. A run does a fixed amount of work, sized from --seconds; every
output is checked against the benchmark's own counts. The last stdout line
is one JSON object: correct, attempted, failed and metrics -- the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1 (a traced run, which also writes its spans under
.bench_work/). See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
PCBL_BUILD = BUILD / "pcbl"
DRIVER_BUILD = BUILD / "driver"
PCBL = PCBL_BUILD / "pcbl"
DRIVER = DRIVER_BUILD / "perfbench_driver"

BOUND = 100
THREADS = 2
SETUPS = 3
# Builds per run at the least, so that a build workload has a median and
# a slowest build.
MIN_BUILDS = 2

# Fixed work per run: `seconds` times a rate, in whole operations, so every
# run of a workload does the same work whatever its speed. The rates are
# set so that the runs BENCHMARK.json asks for (--seconds 15) fit its time
# budget while each median still has enough samples; on the reference
# machine (README) a run measures for about 17 s (build_bluenile, 8
# builds), 24 s (build_compas, 2 builds), 24 s (serve_mixed, 2,600
# requests) and 20 s (append_mixed, 240 rounds).
WORKLOADS = {
    "build_bluenile": {"kind": "build", "dataset": "bluenile",
                       "rows": 1_000_000, "builds_per_s": 0.5},
    "build_compas": {"kind": "build", "dataset": "compas",
                     "rows": 1_000_000, "builds_per_s": 0.09},
    "serve_mixed": {"kind": "serve", "bluenile_rows": 200_000,
                    "compas_rows": 100_000, "requests_per_s": 175},
    "append_mixed": {"kind": "append", "rows": 1_000_000,
                     "rounds_per_s": 16},
}

# Inputs of the benchmark's own tests: every workload, small.
SMALL = {
    "build_bluenile": {"rows": 20_000, "builds": 2},
    "build_compas": {"rows": 20_000, "builds": 2},
    "serve_mixed": {"bluenile_rows": 4_000, "compas_rows": 3_000,
                    "requests": 80},
    "append_mixed": {"rows": 20_000, "rounds": 6},
}

END_TO_END = {}
PER_LAYER = {}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(1)


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        END_TO_END[m["name"]] = m["unit"]
    for m in spec["per_layer"]:
        PER_LAYER[m["name"]] = m["unit"]


def run(cmd, **kwargs):
    return subprocess.run([str(c) for c in cmd], check=False, **kwargs)


def ensure_built():
    """Builds pcbl with the repository's CMake build, then the driver."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no pcbl source tree to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (PCBL_BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", ROOT, "-B", PCBL_BUILD,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DPCBL_BUILD_TESTS=OFF",
                      "-DPCBL_BUILD_BENCHMARKS=OFF",
                      "-DPCBL_BUILD_EXAMPLES=OFF"])
    steps.append(["cmake", "--build", PCBL_BUILD, "-j", jobs,
                  "--target", "pcbl_lib", "pcbl"])
    if not (DRIVER_BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", BENCH_DIR / "driver", "-B",
                      DRIVER_BUILD, "-DCMAKE_BUILD_TYPE=Release",
                      f"-DPCBL_SOURCE_DIR={ROOT}",
                      f"-DPCBL_BUILD_DIR={PCBL_BUILD}"])
    steps.append(["cmake", "--build", DRIVER_BUILD, "-j", jobs])
    for step in steps:
        done = run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(str(s) for s in step))


def pin_to_one_cpu():
    """Confines the calling process to the last CPU it may run on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def driver(args, trace_out=None, one_cpu=False):
    """Runs one driver subcommand and returns its JSON report."""
    cmd = [DRIVER] + [str(a) for a in args]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    done = run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
               cwd=ROOT, preexec_fn=pin_to_one_cpu if one_cpu else None)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"driver {args[0]} exited with {done.returncode}")
    return json.loads(lines[-1])


def timed_process(cmd, stdout_path):
    """Runs cmd; returns (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out,
                                stderr=sys.stderr, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def tail(samples):
    """The highest percentile with ten samples above it, and its rank:
    the sample with exactly ten larger ones. Every tail the benchmark
    reports is taken here, from the raw samples.

    With fewer than 40 samples there is no such tail; the slowest sample
    stands in for it (rank 100)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 40:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# --- build workloads ----------------------------------------------------

def parse_build_output(text):
    """The figures `pcbl build` prints that the checker compares."""
    max_abs = re.search(r"max abs error:\s+([0-9.]+)", text)
    patterns = re.search(r"patterns:\s+(\d+) of (\d+) evaluated", text)
    isa = re.search(r"sizing:\s+kernel (.*); morsels", text)
    if not (max_abs and patterns and isa):
        return None
    return {"max_abs": float(max_abs.group(1)),
            "evaluated": int(patterns.group(1)),
            "patterns": int(patterns.group(2)),
            "isa": isa.group(1)}


def cli_build(csv, label, stdout_path):
    code, wall, rss = timed_process(
        [PCBL, "build", csv, "--bound", BOUND, "--threads", THREADS,
         "--out", label, "--binary"], stdout_path)
    parsed = parse_build_output(Path(stdout_path).read_text())
    return code == 0 and parsed is not None, wall, rss, parsed


def check_labels(csv, labels, result):
    """Checks each (path, figures) label; figures as `pcbl build` printed
    them (max abs rounded to a whole number, hence the 0.5 tolerance)."""
    args = ["check-build", "--csv", csv, "--bound", BOUND]
    for path, figures, tolerance in labels:
        args += ["--label", f"{path}:{figures['max_abs']!r}:"
                 f"{figures['patterns']}:{tolerance!r}"]
    report = driver(args)
    if not report["correct"]:
        result["correct"] = False
        result["errors"] += report["errors"]
    return report


def build_workload(name, cfg, seed, seconds, traced, small):
    rows = small.get("rows", cfg["rows"])
    csv = WORK / f"{name}.csv"
    gen = ["gen", "--dataset", cfg["dataset"], "--rows", rows,
           "--seed", seed, "--out", csv]
    result = {"correct": True, "errors": [], "attempted": 0, "failed": 0}
    info = {}

    if not traced:
        setup = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            made = driver(gen)
            setup.append(time.perf_counter() - start)
        info["input"] = (f"{cfg['dataset']}: {int(made['values']['rows'])} "
                         f"rows, {int(made['values']['attributes'])} "
                         f"attributes, {made['values']['csv_mb']:.1f} MB CSV")
        builds = small.get("builds") or max(
            MIN_BUILDS, round(seconds * cfg["builds_per_s"]))
        walls, rss, labels = [], [], []
        for i in range(builds):
            label = WORK / f"{name}-{i}.bin"
            ok, wall, peak, parsed = cli_build(
                csv, label, WORK / f"{name}-{i}.out")
            result["attempted"] += 1
            if not ok:
                result["failed"] += 1
                continue
            walls.append(wall)
            rss.append(peak)
            labels.append((label, parsed, 0.5))
            info["isa"] = parsed["isa"]
        if not walls:
            fail("every build failed")
        check_labels(csv, labels, result)
        first = Path(labels[0][0]).read_bytes()
        if any(Path(p).read_bytes() != first for p, _, _ in labels):
            result["correct"] = False
            result["errors"].append("cold builds wrote different labels")
        slowest, rank = tail(walls)
        info["samples"] = (f"{len(walls)} builds; op_tail_ms is p{rank:g} "
                           f"of {len(walls)} samples")
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(walls) / sum(walls),
            "op_p50_ms": 1e3 * statistics.median(walls),
            "op_tail_ms": 1e3 * slowest,
            "search_p50_ms": 1e3 * statistics.median(walls),
            "peak_rss_mb": max(rss),
        }
        return result, metrics, info

    # Traced run: one untraced CLI build, then the same library calls in
    # the driver with a span around each.
    made = driver(gen)
    untraced_label = WORK / f"{name}-untraced.bin"
    ok, untraced_wall, _, parsed = cli_build(
        csv, untraced_label, WORK / f"{name}-untraced.out")
    result["attempted"] += 1
    if not ok:
        fail("the untraced build failed")
    traced_label = WORK / f"{name}-traced.bin"
    start = time.perf_counter()
    report = driver(["trace-build", "--csv", csv, "--bound", BOUND,
                     "--threads", THREADS, "--out", traced_label],
                    trace_out=WORK / f"{name}-{seed}-spans.json")
    traced_wall = time.perf_counter() - start
    result["attempted"] += 1
    v = report["values"]
    check_labels(csv, [
        (untraced_label, parsed, 0.5),
        (traced_label, {"max_abs": v["label.max_abs"],
                        "patterns": int(v["label.patterns"])},
         1e-6 * max(1.0, v["label.max_abs"]))], result)
    if Path(untraced_label).read_bytes() != Path(traced_label).read_bytes():
        result["correct"] = False
        result["errors"].append("traced build wrote another label")
    covered = v["trace.spans_s"] - v.get("self.cli_s", 0.0)
    layers = {k[5:-2]: x for k, x in v.items() if k.startswith("self.")}
    metrics = dict(v)
    metrics["workload.synth_s"] = made["values"]["synth_s"]
    metrics["trace.coverage_pct"] = 100.0 * covered / untraced_wall
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_wall - untraced_wall) / untraced_wall)
    info["isa"] = parsed["isa"]
    info["trace"] = (f"untraced build {untraced_wall:.3f} s, traced "
                     f"{traced_wall:.3f} s; spans cover {covered:.3f} s")
    info["self time"] = ", ".join(f"{k} {x:.3f} s"
                                  for k, x in sorted(layers.items()))
    return result, metrics, info


# --- serve and append ---------------------------------------------------

def in_process_workload(name, cfg, seed, seconds, traced, small):
    kind = cfg["kind"]
    if kind == "serve":
        args = ["serve", "--bluenile-rows",
                small.get("bluenile_rows", cfg["bluenile_rows"]),
                "--compas-rows", small.get("compas_rows", cfg["compas_rows"]),
                "--requests", small.get("requests") or
                round(seconds * cfg["requests_per_s"]),
                "--socket", f".bench_work/serve-{os.getpid()}.sock",
                "--work", ".bench_work"]
    else:
        args = ["append", "--rows", small.get("rows", cfg["rows"]),
                "--rounds", small.get("rounds") or
                round(seconds * cfg["rounds_per_s"])]
    args += ["--seed", seed]
    result = {"correct": True, "errors": [], "attempted": 0, "failed": 0}
    info = {}
    # A traced run sets up once and runs the timed phase untraced, then
    # again traced; the difference is the tracing overhead.
    #
    # The driver process -- client, server and the program's threads --
    # runs on one CPU. Most operations here take 0.05-0.2 ms, and on a
    # virtual machine a hand-off to a thread waiting on another, idle CPU
    # adds 0.05-0.15 ms that doubles when the host is busy; on one CPU a
    # hand-off is a local context switch, so the latencies measure the
    # program's work and repeat from run to run.
    runs = [False, True] if traced else [False]
    reports = []
    for with_trace in runs:
        setups = 1 if traced else (2 if small else SETUPS)
        report = driver(
            args + ["--setups", setups, "--trace", int(with_trace)],
            trace_out=(WORK / f"{name}-{seed}-spans.json"
                       if with_trace else None),
            one_cpu=True)
        reports.append(report)
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        if not report["correct"]:
            result["correct"] = False
            result["errors"] += report["errors"]
    v, samples = reports[0]["values"], reports[0]["samples"]
    op_ms = samples["op_ms"]
    slowest, rank = tail(op_ms)
    info["isa"] = reports[0]["facts"]["kernel_isa"]
    info["samples"] = (f"{len(op_ms)} operations; op_tail_ms is "
                       f"p{rank:.2f}")
    info["count_p50_ms"] = f"{statistics.median(samples['count_ms']):.4f}"
    for dataset in ("bluenile", "compas"):
        if f"search_ms.{dataset}" in samples:
            info[f"search_p50_ms on {dataset}"] = (
                f"{statistics.median(samples['search_ms.' + dataset]):.3f}")
    if "append_rows_per_s" in v:
        info["append_rows_per_s"] = f"{v['append_rows_per_s']:.0f}"
    # What of peak_rss_mb is the benchmark's own: on append_mixed the
    # generated table of rows to append, on serve_mixed the request plan
    # and the replies kept for the checks.
    own = (v.get("appended_table_mb", 0.0) + v.get("plan_mb", 0.0)
           + v.get("replies_mb", 0.0))
    info["benchmark data at peak"] = f"about {own:.1f} MB"
    if not traced:
        metrics = {
            "setup_s": statistics.median(samples["setup_s"]),
            "ops_per_s": len(op_ms) / v["phase_s"],
            "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": slowest,
            "search_p50_ms": statistics.median(samples["search_ms"]),
            "peak_rss_mb": v["peak_rss_mb"],
        }
        return result, metrics, info
    t, traced_samples = reports[1]["values"], reports[1]["samples"]
    metrics = dict(t)
    for name, values in traced_samples.items():
        if name in PER_LAYER:
            metrics[name] = statistics.median(values)
    metrics["api.count_p50_ms"] = statistics.median(traced_samples["count_ms"])
    metrics["trace.coverage_pct"] = 100.0 * t["trace.covered_s"] / t["phase_s"]
    metrics["trace.overhead_pct"] = (
        100.0 * (t["phase_s"] - v["phase_s"]) / v["phase_s"])
    layers = {k[5:-2]: x for k, x in t.items() if k.startswith("self.")}
    info["trace"] = (f"untraced phase {v['phase_s']:.3f} s, traced "
                     f"{t['phase_s']:.3f} s; spans cover "
                     f"{t['trace.covered_s']:.3f} s")
    info["self time"] = ", ".join(f"{k} {x:.3f} s"
                                  for k, x in sorted(layers.items()))
    return result, metrics, info


def machine_facts():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={model!r}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no pcbl source tree to build")
    load_spec()
    ensure_built()
    WORK.mkdir(exist_ok=True)

    cfg = WORKLOADS[args.workload]
    small = SMALL[args.workload] if args.small else {}
    handler = build_workload if cfg["kind"] == "build" else in_process_workload
    result, metrics, info = handler(args.workload, cfg, args.seed,
                                    args.seconds, bool(args.trace), small)

    wanted = PER_LAYER if args.trace else END_TO_END
    print(f"machine: {machine_facts()} kernel_isa={info.pop('isa', '?')!r}")
    for key, text in info.items():
        print(f"{args.workload} {key}: {text}")
    for error in result["errors"][:20]:
        print(f"CHECK FAILED: {error}")
    out = {}
    for metric, unit in wanted.items():
        value = float(metrics.get(metric, 0.0))
        if not math.isfinite(value):
            value = 0.0
        out[metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))


if __name__ == "__main__":
    main()
