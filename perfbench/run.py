#!/usr/bin/env python3
"""The repository benchmark: host speed, accuracy and sweep time of the
OS-service-prediction simulator on three workloads.

    python3 perfbench/run.py --workload os-heavy --seed 42 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
simulator from source (Release) under .bench_build/perfbench; later
runs only check that the build is current. Progress goes to stderr;
the last line of stdout is one JSON object with the keys "correct",
"attempted", "failed" and "metrics". With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones, and the traced
run also writes a chrome://tracing file next to the build.
Exits 1 if a correctness check failed and 2 if the benchmark could
not run at all. See perfbench/README.md for every metric.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import derive  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("os-heavy", "app-compute", "sweep-fig13")

# Single-run workloads: simulator workload and work-volume scale.
SINGLE = {
    "os-heavy": ("ab-rand", 1.0),
    "app-compute": ("gzip", 2.0),
}
# Approximate seconds one measured round takes on a 4-core host; the
# round count is --seconds over this, and at least MIN_ROUNDS.
ROUND_S = {"os-heavy": 11.0, "app-compute": 2.4, "sweep-fig13": 15.0}
MIN_ROUNDS = 3
# The same for one pass of a traced single-run workload (ladder plus
# the accelerated run untraced and traced); passes are at least one.
PASS_S = {"os-heavy": 25.0, "app-compute": 6.0}
# Round r simulates seed + r * SEED_STRIDE, so one run covers several
# inputs and seed-dependent figures average over them.
SEED_STRIDE = 1000003
SWEEP = "fig13"
CHILD_TIMEOUT_S = 170.0

E2E_UNITS = {
    "full_mips": "MIPS",
    "accel_mips": "MIPS",
    "emulate_mips": "MIPS",
    "accel_error_pct": "%",
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}

LAYER_UNITS = {
    "os.plan_us_per_service": "us",
    "os.plan_frac_of_emulate": "ratio",
    "os.invocations": "count",
    "os.inst_frac": "ratio",
    "os.insts_per_service": "count",
    "sim.emulate_ns_per_inst": "ns",
    "sim.inorder_ns_per_inst": "ns",
    "sim.ooo_ns_per_inst": "ns",
    "sim.full_cycles": "count",
    "sim.accel_cycles": "count",
    "sim.total_insts": "count",
    "mem.ns_per_inst": "ns",
    "mem.l1i_accesses": "count",
    "mem.l1d_accesses": "count",
    "mem.l2_accesses": "count",
    "mem.l1d_misses": "count",
    "mem.l2_misses": "count",
    "mem.pollution_lines": "count",
    "core.choose_s": "s",
    "core.end_s": "s",
    "core.calls": "count",
    "core.coverage": "ratio",
    "core.pred_inst_frac": "ratio",
    "core.audits": "count",
    "core.audit_failures": "count",
    "core.relearn_events": "count",
    "core.outliers": "count",
    "core.total_cycle_error_pct": "%",
    "sweep_worst_error_pct": "%",
    "derived.r_ratio": "ratio",
    "derived.speedup": "ratio",
    "derived.eq10_speedup_rmeas": "ratio",
    "derived.eq10_speedup_r133": "ratio",
    "derived.eq10_residual_s": "s",
    "driver.cell_s_sum": "s",
    "driver.cell_s_max": "s",
    "driver.parallel_eff": "ratio",
    "store.record_overhead_s": "s",
    "store.replay_s": "s",
    "store.bytes": "bytes",
    "stats.sampled_detailed_fraction": "ratio",
    "stats.within_ci_cells": "count",
    "trace.overhead_pct": "%",
}


class Fatal(Exception):
    """The benchmark cannot run (build failed, tool missing)."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class Bench:
    """One benchmark run: child processes, operations, checks, spans."""

    def __init__(self, build_dir, work_dir, traced):
        self.build_dir = build_dir
        self.work = work_dir
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.spans = []
        self.t0_us = time.monotonic() * 1e6
        self.seq = 0

    def op(self, ok, what):
        """Count one operation; log and count it as failed if not ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("FAILED:", what)
        return ok

    def spawn(self, label, argv):
        """Run one child under `measure`. Returns (stdout, record) with
        record holding wall_s, maxrss_kb and exit, or None for stdout
        when the child failed."""
        self.seq += 1
        rec_path = os.path.join(self.work, "measure-%d.json" % self.seq)
        cmd = [os.path.join(self.build_dir, "measure"), rec_path, "--"] + argv
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            log("timeout:", label)
            return None, {"wall_s": CHILD_TIMEOUT_S, "maxrss_kb": 0,
                          "exit": -1}
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        try:
            with open(rec_path) as f:
                rec = json.load(f)
        except (OSError, ValueError):
            rec = {"wall_s": 0.0, "maxrss_kb": 0, "exit": -1}
        if rec["exit"] == 0:
            self.spans.append({"name": label, "ph": "X",
                               "ts": rec["start_us"] - self.t0_us,
                               "dur": rec["wall_s"] * 1e6, "pid": 1,
                               "tid": self.seq,
                               "args": {"parent": "run.py"}})
        if proc.returncode != 0 or rec["exit"] != 0:
            log("%s exited %s: %s" % (label, rec["exit"], err.strip()[-500:]))
            return None, rec
        return out, rec

    def probe(self, label, workload, scale, seed, level, *flags,
              intervals=False):
        """One simulation in a fresh probe process. Returns the probe's
        JSON record (with "proc" = the measure record and "segments"
        when intervals are logged), or None if it failed."""
        argv = [os.path.join(self.build_dir, "probe"), "--workload", workload,
                "--scale", repr(scale), "--seed", str(seed), "--level", level]
        argv += list(flags)
        iv_path = os.path.join(self.work, "intervals-%d.txt" % (self.seq + 1))
        if intervals:
            argv += ["--intervals", iv_path]
        span_path = os.path.join(self.work, "spans-%d.json" % (self.seq + 1))
        if self.traced:
            argv += ["--trace-out", span_path]
        out, rec = self.spawn(label, argv)
        ok = out is not None
        res = None
        if ok:
            try:
                res = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                ok = False
        if ok and intervals:
            with open(iv_path) as f:
                rows = [line.split() for line in f]
            res["sequence"] = [(r[0], r[1]) for r in rows]
            res["segments"] = ([res["totals"]["app_cycles"]] +
                               [int(r[3]) for r in rows])
        if ok and self.traced:
            self.add_child_spans(span_path)
        if not self.op(ok, "simulation " + label):
            return None
        res["proc"] = rec
        return res

    def add_child_spans(self, path):
        with open(path) as f:
            for s in json.load(f):
                s["ts"] -= self.t0_us
                s["pid"] = 1
                s["tid"] = self.seq
                self.spans.append(s)

    def write_trace(self, path):
        with open(path, "w") as f:
            json.dump({"traceEvents": self.spans,
                       "displayTimeUnit": "ms"}, f)


# ---------------------------------------------------------------------------
# Single-run workloads (os-heavy, app-compute)


def setup_s(res):
    """Process wall time not spent inside Machine::run."""
    return res["proc"]["wall_s"] - res["run_s"]


def mem_counts(mems):
    """The exact cache counts reported per layer, summed over runs."""
    return {"mem." + k: sum(m[k] for m in mems)
            for k in ("l1i_accesses", "l1d_accesses", "l2_accesses",
                      "l1d_misses", "l2_misses")}


def check_same_insts(bench, runs, what):
    counts = {label: derive.total_insts(r["totals"]) for label, r in runs}
    return bench.op(len(set(counts.values())) == 1,
                    "%s retire different instruction counts: %s"
                    % (what, counts))


def single_round(bench, name, seed):
    workload, scale = SINGLE[name]
    start = time.monotonic()
    full = bench.probe("full", workload, scale, seed, "ooo-cache",
                       intervals=True)
    accel = bench.probe("accel", workload, scale, seed, "ooo-cache",
                        "--accel", intervals=True)
    emul = bench.probe("emulate", workload, scale, seed, "emulate")
    wall = time.monotonic() - start
    if not (full and accel and emul):
        return None
    check_same_insts(bench, [("full", full), ("accel", accel),
                             ("emulate", emul)], "modes of " + name)
    same_seq = full["sequence"] == accel["sequence"]
    bench.op(same_seq, "full and accelerated runs of %s executed different "
             "OS-service sequences" % name)
    n = derive.total_insts(full["totals"])
    return {
        "full_mips": derive.mips(n, full["run_s"]),
        "accel_mips": derive.mips(n, accel["run_s"]),
        "emulate_mips": derive.mips(n, emul["run_s"]),
        "accel_error_pct":
            derive.segment_error_pct(full["segments"], accel["segments"])
            if same_seq else None,
        "sweep_s": wall,
        "setup": [setup_s(r) for r in (full, accel, emul)],
        "rss_kb": max(r["proc"]["maxrss_kb"] for r in (full, accel, emul)),
    }


def single_e2e(bench, name, seed, rounds):
    rows = []
    for r in range(rounds):
        row = single_round(bench, name, seed + r * SEED_STRIDE)
        if row:
            rows.append(row)
    if not rows:
        raise Fatal("every round of %s failed" % name)
    errs = [row["accel_error_pct"] for row in rows
            if row["accel_error_pct"] is not None]
    return {
        "full_mips": derive.median([row["full_mips"] for row in rows]),
        "accel_mips": derive.median([row["accel_mips"] for row in rows]),
        "emulate_mips": derive.median([row["emulate_mips"] for row in rows]),
        "accel_error_pct": sum(errs) / len(errs) if errs else float("nan"),
        "sweep_s": derive.median([row["sweep_s"] for row in rows]),
        "setup_s": derive.median([s for row in rows for s in row["setup"]]),
        "peak_rss_mb": max(row["rss_kb"] for row in rows) / 1024.0,
    }


def single_layers(bench, name, seed, passes):
    """Climb the ladder and run the accelerated configuration untraced
    and traced, @p passes times; host times are medians over passes."""
    workload, scale = SINGLE[name]
    steps = [(rung, rung.replace("-apponly", ""),
              ["--app-only"] if rung.endswith("-apponly") else [])
             for rung in derive.LADDER]
    steps += [("accel", "ooo-cache", ["--accel"]),
              ("accel traced", "ooo-cache", ["--accel", "--traced"])]
    runs = {}
    for _ in range(passes):
        for label, level, flags in steps:
            res = bench.probe(label, workload, scale, seed, level, *flags)
            if res is None:
                raise Fatal("%s run of %s failed" % (label, name))
            runs.setdefault(label, []).append(res)
    first = {label: rs[0] for label, rs in runs.items()}
    accel = first["accel"]
    traced = first["accel traced"]

    check_same_insts(bench, [(k, v) for k, v in first.items()
                             if k != "emulate-apponly"],
                     "ladder rungs of " + name)
    sim_keys = ("totals", "measured_mem", "predicted_mem", "predictor")
    for u, tr in zip(runs["accel"], runs["accel traced"]):
        bench.op(all(u[k] == tr[k] for k in sim_keys),
                 "traced accelerated run of %s differs from the untraced "
                 "one" % name)

    def med(label, get=lambda r: r["run_s"]):
        return derive.median([get(r) for r in runs[label]])

    tot = first["ooo-cache"]["totals"]
    n = derive.total_insts(tot)
    inv = tot["os_invocations"]
    t = {label: med(label) for label in runs}
    m = derive.ladder_layers(t, n, inv)
    at = accel["totals"]
    pred = accel["predictor"]
    ctrl = {k: med("accel traced", lambda r: r["controller"][k])
            for k in ("choose_s", "end_s")}
    calls = traced["controller"]
    busy = ctrl["choose_s"] + ctrl["end_s"]
    x = at["os_pred_insts"]
    r_meas = t["ooo-cache"] / t["emulate"]
    err = derive.total_error_pct(derive.total_cycles(tot),
                                 derive.total_cycles(at))
    round_s = [t["ooo-cache"], t["accel"], t["emulate"]]
    round_wall = [med(label, lambda r: r["proc"]["wall_s"])
                  for label in ("ooo-cache", "accel", "emulate")]
    m.update({
        "os.invocations": inv,
        "os.inst_frac": tot["os_insts"] / n,
        "os.insts_per_service": tot["os_insts"] / inv if inv else 0.0,
        "sim.full_cycles": derive.total_cycles(tot),
        "sim.accel_cycles": derive.total_cycles(at),
        "sim.total_insts": n,
        **mem_counts([first["ooo-cache"]["measured_mem"]]),
        "mem.pollution_lines":
            traced["counters"].get("machine.pollution_lines_requested", 0),
        "core.choose_s": ctrl["choose_s"],
        "core.end_s": ctrl["end_s"],
        "core.calls": calls["choose_calls"] + calls["end_calls"],
        "core.coverage": at["os_predicted"] / inv if inv else 0.0,
        "core.pred_inst_frac": x / n,
        "core.audits": pred["audits"],
        "core.audit_failures": pred["audit_failures"],
        "core.relearn_events": pred["relearn_events"],
        "core.outliers": pred["outliers"],
        "core.total_cycle_error_pct": err,
        "sweep_worst_error_pct": err,
        "derived.r_ratio": r_meas,
        "derived.speedup": t["ooo-cache"] / t["accel"],
        "derived.eq10_speedup_rmeas": derive.eq10_speedup(n, x, r_meas),
        "derived.eq10_speedup_r133": derive.eq10_speedup(n, x,
                                                         derive.PAPER_R),
        "derived.eq10_residual_s": derive.eq10_residual_s(
            t["accel"], t["ooo-cache"], t["emulate"], n, x, busy),
        "driver.cell_s_sum": sum(round_s),
        "driver.cell_s_max": max(round_s),
        "driver.parallel_eff": sum(round_s) / sum(round_wall),
        "trace.overhead_pct":
            100.0 * (t["accel traced"] - t["accel"]) / t["accel"],
    })
    return m


# ---------------------------------------------------------------------------
# sweep-fig13


def sweep_argv(bench, seed, out, *extra):
    return [os.path.join(bench.build_dir, "sweep"), SWEEP, "--smoke",
            "--threads", str(sweep_threads()), "--seed", str(seed),
            "--out", out] + list(extra)


def sweep_threads():
    return max(1, min(4, os.cpu_count() or 1))


def run_sweep(bench, label, seed, *extra):
    """One sweep child. Returns (document, measure record)."""
    out_path = os.path.join(bench.work, "sweep-%d.json" % (bench.seq + 1))
    out, rec = bench.spawn(label, sweep_argv(bench, seed, out_path, *extra))
    doc = None
    if out is not None:
        try:
            with open(out_path) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            doc = None
    return doc, rec


def cell_cycles(cell):
    return cell["metrics"]["totals"]["total_cycles"]


def sweep_round(bench, seed, store):
    """One cold sweep into @p store, its replay, and an Emulate run of
    each of its workloads at the sweep's scale."""
    cold, cold_rec = run_sweep(bench, "sweep cold", seed, "--store", store)
    if not bench.op(cold is not None, "cold sweep exited %s" % cold_rec["exit"]):
        return None
    cells = cold["cells"]
    failed_cells = cold["summary"]["failed_cells"]
    for c in cells:
        bench.op("error" not in c, "sweep cell %s failed: %s"
                 % (c["config"]["index"], c.get("error")))
    if not bench.op(not failed_cells,
                    "sweep reports failed cells %s" % failed_cells):
        return None

    warm, warm_rec = run_sweep(bench, "sweep replay", seed, "--store", store,
                               "--incremental")
    bench.op(warm is not None and
             derive.strip_volatile(warm) == derive.strip_volatile(cold),
             "replayed sweep document differs from the cold one")

    by_mode = {}
    for c in cells:
        by_mode.setdefault(c["config"]["mode"], []).append(c)
    full = {c["config"]["workload"]: c for c in by_mode["full"]}
    for c in by_mode["accelerated"]:
        w = c["config"]["workload"]
        bench.op(c["metrics"]["totals"]["total_insts"] ==
                 full[w]["metrics"]["totals"]["total_insts"],
                 "full and accelerated %s cells retire different "
                 "instruction counts" % w)

    scale = cold["sweep"]["scale"]
    emu_insts = 0
    emu_s = 0.0
    for w, c in sorted(full.items()):
        res = bench.probe("emulate " + w, w, scale, c["config"]["seed"],
                          "emulate")
        if res is None:
            continue
        n = derive.total_insts(res["totals"])
        bench.op(n == c["metrics"]["totals"]["total_insts"],
                 "emulated %s retires a different instruction count than "
                 "its full-detail sweep cell" % w)
        emu_insts += n
        emu_s += res["run_s"]

    def mode_mips(mode):
        cs = by_mode[mode]
        return derive.mips(sum(c["metrics"]["totals"]["total_insts"]
                               for c in cs), sum(c["wall_s"] for c in cs))

    audits = [(c["ledger"]["audit_err"]["n"], c["ledger"]["audit_err"]["mean"],
               c["ledger"]["audit_err"]["stddev"])
              for c in cold["accuracy"]["cells"]
              if "audit_err" in c["ledger"]]
    replay_s = warm_rec["wall_s"] if warm is not None else 0.0
    return {
        "doc": cold,
        "full_mips": mode_mips("full"),
        "accel_mips": mode_mips("accelerated"),
        "emulate_mips": derive.mips(emu_insts, emu_s) if emu_s else None,
        "audits": audits,
        "sweep_s": cold_rec["wall_s"],
        "setup_s": cold_rec["wall_s"] - cold["timing"]["wall_s"] + replay_s,
        "replay_s": replay_s,
        "rss_kb": max(cold_rec["maxrss_kb"], warm_rec["maxrss_kb"]),
    }


def sweep_rounds(bench, seed, rounds):
    rows = []
    for r in range(rounds):
        store = os.path.join(bench.work, "store-%d" % r)
        row = sweep_round(bench, seed + r * SEED_STRIDE, store)
        if row:
            rows.append(row)
    if not rows:
        raise Fatal("every sweep round failed")
    return rows


def sweep_e2e(bench, seed, rounds):
    rows = sweep_rounds(bench, seed, rounds)
    emu = [row["emulate_mips"] for row in rows if row["emulate_mips"]]
    return {
        "full_mips": derive.median([row["full_mips"] for row in rows]),
        "accel_mips": derive.median([row["accel_mips"] for row in rows]),
        "emulate_mips": derive.median(emu) if emu else float("nan"),
        "accel_error_pct": derive.pooled_rms_pct(
            [a for row in rows for a in row["audits"]]),
        "sweep_s": derive.median([row["sweep_s"] for row in rows]),
        "setup_s": derive.median([row["setup_s"] for row in rows]),
        "peak_rss_mb": max(row["rss_kb"] for row in rows) / 1024.0,
    }


def sweep_layers(bench, seed):
    store = os.path.join(bench.work, "store-traced")
    row = sweep_round(bench, seed, store)
    if row is None:
        raise Fatal("sweep failed")
    bare, bare_rec = run_sweep(bench, "sweep cold without store", seed)
    bench.op(bare is not None and
             derive.strip_volatile(bare)["cells"] ==
             derive.strip_volatile(row["doc"])["cells"],
             "sweep without a store produced different cells")
    doc = row["doc"]
    cells = doc["cells"]
    threads = doc["timing"]["threads"]
    walls = [c["wall_s"] for c in cells]
    full = [c for c in cells if c["config"]["mode"] == "full"]
    accel = [c for c in cells if c["config"]["mode"] == "accelerated"]
    ft = [c["metrics"]["totals"] for c in full]
    at = [c["metrics"]["totals"] for c in accel]
    n = sum(t["total_insts"] for t in ft)
    inv = sum(t["os_invocations"] for t in ft)
    os_insts = sum(t["os_insts"] for t in ft)
    stats = [c["metrics"]["predictor_stats"] for c in accel]
    errs = [c["derived"]["cycle_error"] * 100.0 for c in cells
            if "cycle_error" in c.get("derived", {})]
    samples = doc["sample"]["cells"]
    counters = doc["telemetry"]["counters"]
    x = sum(t["os_pred_insts"] for t in at)
    return {
        "os.invocations": inv,
        "os.inst_frac": os_insts / n,
        "os.insts_per_service": os_insts / inv,
        "sim.full_cycles": sum(cell_cycles(c) for c in full),
        "sim.accel_cycles": sum(cell_cycles(c) for c in accel),
        "sim.total_insts": n,
        **mem_counts([t["measured_mem"] for t in ft]),
        "mem.pollution_lines":
            counters.get("machine.pollution_lines_requested", 0),
        "core.coverage": sum(t["os_predicted"] for t in at) / sum(
            t["os_invocations"] for t in at),
        "core.pred_inst_frac": x / sum(t["total_insts"] for t in at),
        "core.audits": sum(s["audits"] for s in stats),
        "core.audit_failures": sum(s["audit_failures"] for s in stats),
        "core.relearn_events": sum(s["relearn_events"] for s in stats),
        "core.outliers": sum(s["outliers"] for s in stats),
        "core.total_cycle_error_pct": sum(
            c["derived"]["cycle_error"] for c in accel) * 100.0 / len(accel),
        "sweep_worst_error_pct": max(errs),
        "derived.eq10_speedup_r133": derive.eq10_speedup(
            sum(t["total_insts"] for t in at), x, derive.PAPER_R),
        "driver.cell_s_sum": sum(walls),
        "driver.cell_s_max": max(walls),
        "driver.parallel_eff": sum(walls) / (threads * row["sweep_s"]),
        "store.record_overhead_s": row["sweep_s"] - bare_rec["wall_s"],
        "store.replay_s": row["replay_s"],
        "store.bytes": os.path.getsize(store),
        "stats.sampled_detailed_fraction": sum(
            s["detailed_fraction"] for s in samples) / len(samples),
        "stats.within_ci_cells": sum(
            1 for s in samples if s.get("oracle", {}).get("within_ci")),
    }


# ---------------------------------------------------------------------------


def build(build_dir):
    """Configure (once) and build the simulator and the probes."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise Fatal("configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
           "probe", "sweep", "measure"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise Fatal("build failed")


def passes_for(name, seconds):
    return max(1, round(seconds / PASS_S[name]))


def rounds_for(name, seconds):
    return max(MIN_ROUNDS, math.ceil(seconds / ROUND_S[name]))


def main():
    # Turn SIGTERM into an exception so that spawn() kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    if shutil.which("cmake") is None:
        raise Fatal("cmake not found")
    build(build_dir)

    work = os.path.join(build_dir, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(build_dir, work, traced=bool(args.trace))
    try:
        if args.trace:
            if args.workload == "sweep-fig13":
                metrics = sweep_layers(bench, args.seed)
            else:
                metrics = single_layers(bench, args.workload, args.seed,
                                        passes_for(args.workload,
                                                   args.seconds))
            units = LAYER_UNITS
            # A layer the workload does not exercise reads 0.
            metrics = {k: metrics.get(k, 0.0) for k in units}
            trace_path = os.path.join(build_dir, "trace-%s-%d.json"
                                      % (args.workload, args.seed))
            bench.write_trace(trace_path)
            log("trace written to", trace_path)
        else:
            rounds = rounds_for(args.workload, args.seconds)
            if args.workload == "sweep-fig13":
                metrics = sweep_e2e(bench, args.seed, rounds)
            else:
                metrics = single_e2e(bench, args.workload, args.seed, rounds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for k, v in metrics.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            bench.op(False, "metric %s has no value" % k)
            metrics[k] = 0.0
    if not args.trace:
        metrics["fail_ratio"] = derive.fail_ratio(bench.failed,
                                                  bench.attempted)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Fatal as e:
        log("benchmark cannot run:", e)
        sys.exit(2)
