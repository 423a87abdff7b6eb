"""Pure derivations behind the benchmark's metrics.

Every function here takes plain numbers or parsed probe/sweep output
and returns numbers, so the arithmetic can be tested without running
the simulator (see test_derive.py).
"""

import math
import statistics

# The detail-level ladder the traced run climbs, bottom to top. The
# first rung runs Emulate with application-only OS handling.
LADDER = ("emulate-apponly", "emulate", "inorder-nocache", "inorder-cache",
          "ooo-nocache", "ooo-cache")

# The paper's measured detailed-to-emulation slowdown (Table 1).
PAPER_R = 133.0


def median(values):
    return statistics.median(values)


def total_cycles(totals):
    return totals["app_cycles"] + totals["os_sim_cycles"] + totals["os_pred_cycles"]


def total_insts(totals):
    return totals["app_insts"] + totals["os_insts"]


def mips(insts, seconds):
    return insts / seconds / 1e6


def fail_ratio(failed, attempted):
    """Rule-of-succession estimate of the per-operation failure
    probability, (failed + 1) / (attempted + 2). Unlike the raw ratio
    it is never 0, so a relative bound on it stays defined, and one
    new failure among n operations still doubles it."""
    return (failed + 1) / (attempted + 2)


def segment_error_pct(full_segments, accel_segments):
    """Segment-wise absolute cycle error of an accelerated run, in
    percent of the full run's cycles.

    Each argument lists the cycles a run spent per segment: the
    application as one segment, then every OS-service invocation in
    order. The two runs execute the same invocations, so segment i of
    one is segment i of the other. Summing |accel_i - full_i| means
    that errors of opposite sign do not cancel; the result bounds the
    total-cycle error from above. Cycle counts are integers, so an
    exact match reads as half a cycle, the resolution of the count,
    and the metric is never 0."""
    if len(full_segments) != len(accel_segments):
        raise ValueError("runs executed different segment counts")
    err = sum(abs(a - f) for f, a in zip(full_segments, accel_segments))
    return 100.0 * max(err, 0.5) / sum(full_segments)


def total_error_pct(full_cycles, accel_cycles):
    """|accel - full| / full, in percent: the paper's error."""
    return 100.0 * abs(accel_cycles - full_cycles) / full_cycles


def pooled_rms_pct(groups):
    """Root mean square of per-invocation relative errors pooled over
    groups given as (n, mean, sample stddev), in percent."""
    n_total = 0
    square_sum = 0.0
    for n, mean, sd in groups:
        if n <= 0:
            continue
        square_sum += n * mean * mean + (n - 1) * sd * sd
        n_total += n
    if n_total == 0:
        raise ValueError("no audited invocations")
    return 100.0 * math.sqrt(square_sum / n_total)


def eq10_speedup(n, x, r):
    """Paper Eq. 10: speedup when x of n instructions run r times
    faster than the rest."""
    return n / (x / r + (n - x))


def eq10_residual_s(t_accel, t_full, t_emulate, n, x, core_busy_s):
    """Accelerated run time Eq. 10 does not explain: the measured time
    minus x instructions at emulation cost, n - x at full-detail cost
    (both per-instruction costs from the same workload's runs) and the
    predictor's own busy time."""
    model = x * (t_emulate / n) + (n - x) * (t_full / n)
    return t_accel - model - core_busy_s


def ladder_layers(times, insts, invocations):
    """Per-layer costs from the ladder's Machine::run times.

    @p times maps each LADDER rung to seconds, @p insts is the
    instruction count every non-app-only rung retires and
    @p invocations the number of OS-service invocations. Each layer is
    the difference between the rung that adds it and the rung below:
    OS planning is what Emulate pays beyond app-only Emulate, the
    timing models what their no-cache rung pays beyond Emulate, the
    memory hierarchy what OooCache pays beyond OooNoCache."""
    ns = 1e9 / insts
    return {
        "os.plan_us_per_service":
            (times["emulate"] - times["emulate-apponly"]) * 1e6 / invocations
            if invocations else 0.0,
        "os.plan_frac_of_emulate":
            (times["emulate"] - times["emulate-apponly"]) / times["emulate"],
        "sim.emulate_ns_per_inst": times["emulate"] * ns,
        "sim.inorder_ns_per_inst":
            (times["inorder-nocache"] - times["emulate"]) * ns,
        "sim.ooo_ns_per_inst": (times["ooo-nocache"] - times["emulate"]) * ns,
        "mem.ns_per_inst": (times["ooo-cache"] - times["ooo-nocache"]) * ns,
    }


def strip_volatile(doc):
    """A sweep document without its wall-clock fields: the top-level
    "timing" object and every cell's "wall_s"."""
    out = {k: v for k, v in doc.items() if k != "timing"}
    out["cells"] = [{k: v for k, v in c.items() if k != "wall_s"}
                    for c in doc.get("cells", [])]
    return out
