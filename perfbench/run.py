#!/usr/bin/env python3
"""op2hpx benchmark: one command per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the driver from source under .bench_build/ (first
run only), generates the workload's inputs from the seed, runs the
driver, checks the outputs and prints one JSON result as the last line
of stdout.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a separate traced run (which also writes a Chrome
trace-event file under .bench_build/traces/).  The metric names must be
exactly those BENCHMARK.json lists for that setting.  See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
TIME_LIMIT_S = 170.0

AIRFOIL_ARMS = ("seq", "forkjoin", "foreach", "async", "dataflow", "shard", "shard_wire")
THREADED_ARMS = AIRFOIL_ARMS[1:]
LOOPS = ("save_soln", "adt_calc", "res_calc", "bres_calc", "update")
# Calls of each loop per Airfoil iteration (one save, two RK stages).
CALLS_PER_ITER = {"save_soln": 1, "adt_calc": 2, "res_calc": 2, "bres_calc": 2, "update": 2}

WORKLOADS = {
    "airfoil_strong": {"imax": 400, "jmax": 200, "threads": 4, "setups": 10},
    "airfoil_small": {"imax": 50, "jmax": 25, "threads": 2, "setups": 50},
}
# An untraced run splits its seconds between this many driver
# processes, one after another, and reports medians over them.
PROCESSES = 5

# The job service's phases of the traced run.  Frozen from the seed
# commit's measurements on a 4-vCPU host (see README.md): unloaded p50
# about 3.2 ms; capacity between about 130 and 380 jobs/s from one
# process to the next.
SERVICE = {
    "rate": 100.0,         # fixed offered rate, under the lowest capacity seen
    "slo_ms": 30.0,        # p99 limit, about 10x the unloaded p50
    "ladder_lo": 120.0,    # SLO search grid: 120 * 1.04^k jobs/s ...
    "ladder_step": 1.04,   # ... a 4% step, finer than any bound
    "ladder_max": 420.0,
    "step_jobs": 1000,     # enough for a p99 with ten samples beyond it
}
# Jobs of the fixed-rate phases in the traced run, per tracing setting
# (split ABBA into halves).
TRACED_SERVICE_JOBS = 1100
# Relative checksum tolerance between the two accumulation orders (the
# repository's own backend-equivalence tolerance).
CHECKSUM_RTOL = 1e-9


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the driver up to date.  The
    compiler's temporary files stay inside the build tree too."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, env=env)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_driver(args, stdin_text, deadline):
    proc = subprocess.run([str(DRIVER)] + [str(a) for a in args], input=stdin_text,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def schedule_text(seed, n):
    return "".join(f"{gap:.9f} {tenant}\n"
                   for gap, tenant in stats.poisson_schedule(seed, n, tenants=4))


def workload_inputs(name, seed):
    """Seed-derived inputs: the wall bump's height (same work, another
    flow field) and the arms' rotation in the round-robin."""
    rng = random.Random(f"{name}:{seed}")
    return {"bump": round(0.06 + 0.04 * rng.random(), 6), "order": rng.randrange(64)}


# ---------------------------------------------------------------------
# Correctness

def airfoil_check(raw, names):
    """Arms of one accumulation order must match bit for bit on q (the
    driver checks); every checksum must match seq's to rounding."""
    ok = raw["bitwise_ok"]
    sums = raw["checksum"]
    ref = sums[0]
    bad = [names[i] for i in range(len(names))
           if not ok[i] or abs(sums[i] - ref) > CHECKSUM_RTOL * abs(ref)]
    return bad


def latencies(phase):
    """A phase's job latencies; a job that did not complete (null) is
    infinitely late."""
    return [math.inf if v is None else v for v in phase["latency_ms"]]


# ---------------------------------------------------------------------
# End-to-end metrics

def steady(samples):
    """Median of the samples measured with the least CPU steal."""
    return stats.median(stats.least_steal(samples["value"], samples["steal"]))


def airfoil_metrics(raws):
    """Each timing is stats.median_of_processes over the driver
    processes: the host places a process (its cores, its memory) once,
    and that placement alone can move a figure by 20%, while CPU steal
    comes in bursts of seconds that a quieter process escapes.  The peak
    RSS is the median over the processes."""
    attempted = failed = 0
    for raw in raws:
        names = list(raw["iters_per_s"])
        bad = airfoil_check(raw, names)
        if bad:
            log(f"perfbench: solution mismatch on {', '.join(bad)}")
        attempted += int(raw["rounds"]) * len(names)
        failed += int(raw["rounds"]) * len(bad)
    metrics = {f"iters_per_s.{a}": metric(
                   stats.median_of_processes([r["iters_per_s"][a] for r in raws]), "iter/s")
               for a in AIRFOIL_ARMS}
    metrics["setup_s"] = metric(stats.median_of_processes([r["setup_s"] for r in raws]), "s")
    metrics["peak_rss_mb"] = metric(stats.median([r["peak_rss_mb"] for r in raws]), "MiB")
    detail = {"processes": [{"segments": len(r["iters_per_s"]["seq"]["value"]),
                             "segment_iters": r["segment_iters"],
                             "median_steal": round(stats.median(
                                 [x for a in r["iters_per_s"].values() for x in a["steal"]]), 4),
                             "host": r["host"],
                             "iters_per_s": {a: round(steady(x), 2)
                                             for a, x in r["iters_per_s"].items()}}
                            for r in raws]}
    return metrics, attempted, failed, detail


def slo_step_passes(step, slo_ms):
    return (step["failed"] == 0 and step["drain_ms"] <= slo_ms
            and stats.checked_percentile(latencies(step), 99) <= slo_ms)


def slo_rate(ladder):
    """The measured completion rate of the highest passing SLO-search
    step (of the lowest step when none passed), and the steps' failures
    that are not sheds: past capacity, shedding is the designed response
    and counts as missing the SLO, not as a failed operation."""
    steps = list(ladder.values())
    passing = [s for s in steps if slo_step_passes(s, SERVICE["slo_ms"])]
    best = (max(passing, key=lambda s: s["offered"]) if passing
            else min(steps, key=lambda s: s["offered"]))
    attempted = int(sum(s["attempted"] for s in steps))
    failed = int(sum(s["failed"] - s["shed"] for s in steps))
    return best["completed_per_s"], attempted, failed


# ---------------------------------------------------------------------
# Per-layer metrics (traced run)

def self_times(trace_path):
    """Self time per span name: duration minus what its children cover."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    child = {}
    for e in events:
        child[e["args"]["parent"]] = child.get(e["args"]["parent"], 0.0) + e["dur"]
    out = {}
    for e in events:
        own = e["dur"] - child.get(e["args"]["id"], 0.0)
        total, count = out.get(e["name"], (0.0, 0))
        out[e["name"]] = (total + own, count + 1)
    return out


def layer_metrics(raw):
    t = int(raw["threads"])
    layer = dict(raw["layer"])
    m = {}

    def put(name, value, unit):
        m[name] = metric(value, unit)

    for key in ("setup.mesh_s", "setup.sim_s", "setup.shard_s"):
        put(key, layer[key], "s")
    for a in AIRFOIL_ARMS:
        ms = raw[f"capture_ms.{a}"]
        first = [ms[i] for i in range(0, len(ms), 6)]
        rest = [ms[i] for i in range(len(ms)) if i % 6]
        put(f"setup.capture_ms.{a}", stats.median(first) - stats.median(rest), "ms")

    equivalent = all(raw["replica_equivalent"])
    seq_kernel_ms_per_iter = 0.0
    if equivalent:
        for loop in LOOPS:
            ms = stats.median(raw["loop_ms"]["seq"][loop])
            set_size, args = stats.decode_shape(raw["loop_shapes"][loop])
            put(f"kernel.{loop}.ms", ms, "ms")
            put(f"kernel.{loop}.computed_gb_per_s",
                stats.gb_per_s(stats.computed_bytes(set_size, args), ms), "GB/s")
            seq_kernel_ms_per_iter += ms * CALLS_PER_ITER[loop]
            for backend in ("forkjoin", "foreach"):
                put(f"loop.{loop}.ms.{backend}", stats.median(raw["loop_ms"][backend][loop]), "ms")

    for loop in ("adt_calc", "res_calc", "bres_calc"):
        put(f"plan.{loop}.colours", layer[f"plan.{loop}.colours"], "count")
        put(f"plan.{loop}.blocks", layer[f"plan.{loop}.blocks"], "count")
    put("plan.build_ms", layer["plan.build_ms"], "ms")
    for b in ("seq", "forkjoin", "foreach", "async", "dataflow"):
        put(f"launch.replay_us.{b}", layer[f"launch.replay_us.{b}"], "us")
    put("launch.capture_us", layer["launch.capture_us"], "us")
    put("launch.fused_replay_us", layer["launch.fused_replay_us"], "us")

    sweep = raw["sweep_iters_per_s"]
    seq_ips = steady(sweep["seq"])
    for a in THREADED_ARMS:
        for threads in (2, 4):
            put(f"speedup.{a}.t{threads}", steady(sweep[f"{a}.t{threads}"]) / seq_ips, "ratio")
        if equivalent:
            arm_ms = 1e3 / steady(sweep[f"{a}.t{t}"])
            put(f"idle_frac.{a}", stats.idle_frac(seq_kernel_ms_per_iter, t, arm_ms), "ratio")

    for key in ("async_get_us", "dataflow_us", "for_each_us", "team_barrier_us"):
        put(f"hpxlite.{key}", layer[f"hpxlite.{key}"], "us")
    put("exchange.round_us.raw", layer["exchange.round_us.raw"], "us")
    put("exchange.round_us.reliable", layer["exchange.round_us.reliable"], "us")
    put("exchange.bytes_per_round", layer["exchange.halo_rows"] * 4 * 8, "bytes")
    put("exchange.frames_per_round", layer["exchange.frames_per_round"], "count")
    put("exchange.retransmits", layer["exchange.retransmits"], "count")
    put("exchange.overlap_frac", layer["exchange.overlap_frac"], "ratio")
    put("exchange.blocked_ms_per_iter", layer["exchange.blocked_ms_per_iter"], "ms")
    put("tuner.probing_loops", layer["tuner.probing_loops"], "count")
    put("tuner.converged_loops", layer["tuner.converged_loops"], "count")

    svc = raw["service_traced"]
    for name, key, unit in (("submit_us", "submit_us", "us"), ("queue_wait_ms", "queue_ms", "ms"),
                            ("run_ms", "run_ms", "ms")):
        put(f"service.{name}.p50", stats.checked_percentile(raw[key], 50), unit)
        put(f"service.{name}.p99", stats.checked_percentile(raw[key], 99), unit)
    put("service.generator_lag_ms.p99", stats.checked_percentile(raw["lag_ms"], 99), "ms")
    plain = raw["service_untraced"]
    kept = stats.least_steal_jobs(latencies(plain), plain["job_window"], plain["window_steal"])
    put("service.job_p50_ms", stats.checked_percentile(kept, 50), "ms")
    kept = stats.least_steal_jobs(latencies(svc), svc["job_window"], svc["window_steal"])
    put("service.job_p99_ms", stats.checked_percentile(kept, 99), "ms")
    at_slo, slo_attempted, slo_failed = slo_rate(raw["ladder"])
    put("service.jobs_per_s_at_slo", at_slo, "jobs/s")
    put("service.shed", svc["shed"], "count")
    put("service.failed", svc["failed"], "count")
    put("service.job_retries", svc["retries"], "count")

    put("trace.overhead_frac", sum(raw["traced_round_s"]) / sum(raw["untraced_round_s"]) - 1.0,
        "ratio")
    put("host.spin_ms", stats.median(raw["host"]["spin_ms"]), "ms")
    put("host.triad_gb_per_s", stats.median(raw["host"]["triad_gb_per_s"]), "GB/s")

    if not equivalent:
        log("perfbench: the replica driver does not reproduce run_with_backend's q; "
            "kernel.*, loop.* and idle_frac.* are not reported")
    names = list(sweep)
    bad = airfoil_check(raw["sweep_check"], names)
    attempted = (len(names) + len(raw["replica_equivalent"]) + slo_attempted
                 + int(svc["attempted"] + raw["service_untraced"]["attempted"]))
    failed = (len(bad) + raw["replica_equivalent"].count(0) + slo_failed
              + int(svc["failed"] + raw["service_untraced"]["failed"]))
    return m, attempted, failed


def check_names(metrics, section):
    """The run must report exactly the manifest's metrics of its
    setting, each in the manifest's unit."""
    want = {m["name"]: m["unit"] for m in json.loads(MANIFEST.read_text())[section]}
    got = {name: m["unit"] for name, m in metrics.items()}
    bad = [name for name in got if not stats.valid_metric_name(name)]
    if bad or got != want:
        raise ValueError(f"metrics differ from BENCHMARK.json's {section}: "
                         f"bad names {bad}, missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"other unit {sorted(n for n in got if n in want and got[n] != want[n])}")


# ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    build()
    deadline = time.monotonic() + TIME_LIMIT_S  # for the run, not the build
    w = WORKLOADS[opts.workload]
    inputs = workload_inputs(opts.workload, opts.seed)
    common = ["--imax", w["imax"], "--jmax", w["jmax"], "--threads", w["threads"],
              "--bump", inputs["bump"], "--order", inputs["order"]]
    service_args = ["--rate", SERVICE["rate"], "--slo-ms", SERVICE["slo_ms"],
                    "--ladder-lo", SERVICE["ladder_lo"], "--ladder-step", SERVICE["ladder_step"],
                    "--ladder-max", SERVICE["ladder_max"], "--step-jobs", SERVICE["step_jobs"]]
    schedule = schedule_text(opts.seed, 20000)

    if opts.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{opts.workload}-seed{opts.seed}.json"
        raw = run_driver(["traced"] + common + ["--seconds", opts.seconds] + service_args
                         + ["--service-jobs", TRACED_SERVICE_JOBS, "--trace", path],
                         schedule, deadline)
        metrics, attempted, failed = layer_metrics(raw)
        selfs = self_times(path)
        log(f"perfbench: trace {path} ({int(raw['spans'])} spans); self time by span:")
        for name, (total, count) in sorted(selfs.items(), key=lambda kv: -kv[1][0]):
            log(f"  {name:32s} {total / 1e3:10.2f} ms over {count} spans")
        detail = {"trace": str(path.relative_to(ROOT)), "host": raw["host"]}
    else:
        raws = [run_driver(["airfoil"] + common
                           + ["--seconds", opts.seconds / PROCESSES, "--setups", w["setups"]],
                           None, deadline)
                for _ in range(PROCESSES)]
        metrics, attempted, failed, detail = airfoil_metrics(raws)

    check_names(metrics, "per_layer" if opts.trace else "end_to_end")
    detail["inputs"] = inputs
    print(json.dumps({"detail": detail}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
