"""One workload in one fresh process: set up, measure, check, report.

Started by ``run.py``; prints one JSON object as its last stdout line.
Set-up runs from process start to the first timed job: imports, input
generation and one warm-up job.  The measured loop is a closed loop on
one thread: the next job starts when the previous one and its checks are
done, until ``--seconds`` of wall time have passed.  Only the job itself
is timed; the oracle checks run outside the timed region.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

# percentiles job_tail_ms may fall back to, highest first
TAIL_LADDER = (95, 90, 75, 50)
KERNELS = ("x", "z", "h", "rz", "cz", "swap")
KERNEL_WIDTHS = (6, 12)


class HarnessError(Exception):
    """The benchmark itself is broken; no result may be printed."""


def load_package():
    """The package's modules, imported from this checkout's ``src``.

    The entry-point modules must exist; ``session``, ``statevec`` and
    ``costs`` are only traced or timed directly, so a later change may
    remove them and the traced run reports them absent.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import blindqc
    if Path(blindqc.__file__).resolve().parent != src / "blindqc":
        raise HarnessError(f"imported blindqc from {blindqc.__file__}, "
                           f"not from {src}")
    mods = {n: importlib.import_module(f"blindqc.{n}")
            for n in ("circuits", "lowering", "protocol", "audit")}
    for n in ("session", "statevec", "costs"):
        try:
            mods[n] = importlib.import_module(f"blindqc.{n}")
        except ImportError:
            pass
    return types.SimpleNamespace(**mods)


def tail(times: list[float], wanted: float) -> tuple[float, float]:
    """(percentile, value): ``wanted``, or the highest ladder percentile
    that still has ten jobs beyond it (nearest rank)."""
    ordered = sorted(times)
    n = len(ordered)
    for p in (wanted, *(q for q in TAIL_LADDER if q < wanted)):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


class Loop:
    """Totals of one measured loop."""

    def __init__(self):
        self.times: list[float] = []
        self.law_rounds = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.first_digest = None

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(why)


def run_job(wl, job, run):
    """Time one job; returns (seconds, outputs or None, failure reasons)."""
    start = time.perf_counter()
    try:
        raw = run(job)
    except Exception:
        elapsed = time.perf_counter() - start
        return elapsed, None, [traceback.format_exc(limit=3)]
    elapsed = time.perf_counter() - start
    try:
        out = wl.outputs(raw)
        del raw
        return elapsed, out, wl.check(job, out)
    except Exception:
        return elapsed, None, [traceback.format_exc(limit=3)]


def measure(wl, seconds: float, min_jobs: int = 1, run=None,
            on_job=None) -> Loop:
    run = run or wl.run
    loop = Loop()
    started = time.monotonic()
    i = 0
    while i < min_jobs or time.monotonic() - started < seconds:
        job = wl.jobs[i % len(wl.jobs)]
        elapsed, out, reasons = run_job(wl, job, run)
        loop.attempted += 1
        loop.times.append(elapsed)
        if i == 0 and out is not None:
            loop.first_digest = out["digest"]
        if reasons:
            loop.fail(f"job {job.index}: {reasons[0]}")
        else:
            loop.law_rounds += wl.law(job, out)
        if on_job is not None:
            on_job(i, job, out)
        del out
        i += 1
    return loop


def self_test(wl) -> None:
    """The checks must pass the oracle's own outputs for a fixed job and
    flag each corrupted copy; runs in every invocation."""
    job, out = wl.reference()
    if wl.check(job, out):
        raise HarnessError(f"checks reject the reference: {wl.check(job, out)}")
    for what, bad in wl.corruptions(out):
        if not wl.check(job, bad):
            raise HarnessError(f"the checks did not flag a {what}")


def repeat_first(wl, loop: Loop, *digests) -> None:
    """Run the pool's first job again; its digest must reproduce."""
    _, out, reasons = run_job(wl, wl.jobs[0], wl.run)
    loop.attempted += 1
    wanted = {loop.first_digest, *digests}
    if reasons:
        loop.fail(f"repeat of job 0: {reasons[0]}")
    elif len(wanted) != 1 or out["digest"] not in wanted:
        loop.fail("repeat of job 0 gave a different digest")


def end_to_end(wl, loop: Loop) -> tuple[dict, dict]:
    total = sum(loop.times)
    p, value = tail(loop.times, wl.tail_percentile)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "round_trips_per_s": (loop.law_rounds / total, "1/s"),
        "job_p50_ms": (1e3 * statistics.median(loop.times), "ms"),
        "job_tail_ms": (1e3 * value, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    info = {
        "jobs_timed": len(loop.times),
        "job_tail_percentile": p,
        "law_round_trips": loop.law_rounds,
        "timed_s": total,
        "job_times_s": loop.times,
    }
    return metrics, info


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def kernel_timings(bq) -> dict:
    """Direct micro-timings of the in-place kernel entry at 6 and 12 wires."""
    apply_op = bq.statevec._apply_op
    sv = bq.statevec
    rng = np.random.default_rng(7)
    out = {}
    for w in KERNEL_WIDTHS:
        amps = rng.normal(size=2**w) + 1j * rng.normal(size=2**w)
        amps /= np.linalg.norm(amps)
        a, b = w // 2, w // 2 - 1
        ops = {"x": sv.x(a), "z": sv.z(a), "h": sv.h(a), "rz": sv.rz(0.3, a),
               "cz": sv.cz(a, b), "swap": sv.swap(a, b)}
        reps = 2000 if w <= 6 else 300
        for k in KERNELS:
            op = ops[k]
            batches = []
            for _ in range(7):
                start = time.perf_counter()
                for _ in range(reps):
                    apply_op(amps, op)
                batches.append((time.perf_counter() - start) / reps)
            out[f"statevec.kernel.{k}.w{w}_us"] = (1e6 * statistics.median(batches), "us")
            out[f"statevec.kernel.{k}.w{w}_bytes"] = (
                tracing.computed_bytes(2**w, k), "B")
    return out


def layer_metrics(tr, calls: dict, counters: dict, job_s: float,
                  costs: dict) -> dict:
    """Per-layer metrics: exact counts over the count prefix, times over
    every traced job."""

    def n(name):
        return calls.get(name, 0)

    def stat(name):
        return tr.stats.get(name, [0, 0.0, 0.0])

    def per_call(name, field, scale):
        s = stat(name)
        return scale * s[field] / s[0] if s[0] else 0.0

    def share(name):
        return stat(name)[2] / job_s if job_s else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    audit_s = stat("audit.audit_circuit")[1]
    m = {
        "session.pad_pair.calls": (n("session.pad_pair"), "count"),
        "session.pad_pair.us_per_call": (per_call("session.pad_pair", 1, 1e6), "us"),
        "session.pad_pair.self_share": (share("session.pad_pair"), "ratio"),
        "session.round_trip.calls": (n("session.round_trip"), "count"),
        "session.round_trip.self_us_per_call": (per_call("session.round_trip", 2, 1e6), "us"),
        "session.snapshot_bytes_per_round_trip": (
            ratio(counters.get("session.snapshot_bytes", 0), n("session.round_trip")), "B"),
        "session.snapshot_bytes": (counters.get("session.snapshot_bytes", 0), "B"),
        "session.client_apply.calls": (n("session.client_apply"), "count"),
        "session.client_apply.self_us_per_call": (per_call("session.client_apply", 2, 1e6), "us"),
        "session.client_measure.calls": (n("session.client_measure"), "count"),
        "session.client_measure.us_per_call": (per_call("session.client_measure", 1, 1e6), "us"),
        "session.digest.calls": (n("session.digest"), "count"),
        "session.digest.ms_per_call": (per_call("session.digest", 1, 1e3), "ms"),
        "session.digest.bytes_per_call": (
            ratio(counters.get("session.digest.bytes", 0), n("session.digest")), "B"),
        "statevec.apply_op.calls": (n("statevec.apply_op"), "count"),
        "statevec.apply_op.us_per_call": (per_call("statevec.apply_op", 1, 1e6), "us"),
        "statevec.apply_op.self_share": (share("statevec.apply_op"), "ratio"),
        "statevec.apply_op.bytes": (counters.get("statevec.apply_op.bytes", 0), "B"),
        "statevec.measure_qubit.calls": (n("statevec.measure_qubit"), "count"),
        "statevec.measure_qubit.us_per_call": (per_call("statevec.measure_qubit", 1, 1e6), "us"),
        "statevec.reduced_density.calls": (n("statevec.reduced_density"), "count"),
        "statevec.reduced_density.us_per_call": (
            per_call("statevec.reduced_density", 1, 1e6), "us"),
        "protocol.run_protocol.calls": (n("protocol.run_protocol"), "count"),
        "protocol.run_protocol.self_share": (share("protocol.run_protocol"), "ratio"),
        "angles.digitize.calls": (n("angles.digitize"), "count"),
        "angles.digitize.us_per_call": (per_call("angles.digitize", 1, 1e6), "us"),
        "rzprotocol.digit_block_plan.calls": (n("rzprotocol.digit_block_plan"), "count"),
        "rzprotocol.digit_block_plan.us_per_call": (
            per_call("rzprotocol.digit_block_plan", 1, 1e6), "us"),
        "paulis.key_ops.calls": (n("paulis.key_ops"), "count"),
        "paulis.key_ops.us_per_call": (per_call("paulis.key_ops", 1, 1e6), "us"),
        "circuits.parse.us_per_call": (per_call("circuits.parse", 1, 1e6), "us"),
        "lowering.lower.us_per_call": (per_call("lowering.lower", 1, 1e6), "us"),
        "audit.replays": (counters.get("audit.replays", 0), "count"),
        "audit.replay_round_trips": (counters.get("audit.replay_round_trips", 0), "count"),
        "audit.checks": (counters.get("audit.checks", 0), "count"),
        "audit.checks_per_replay": (
            ratio(counters.get("audit.checks", 0), counters.get("audit.replays", 0)), "ratio"),
        "audit.baseline_runs": (counters.get("audit.baseline_runs", 0), "count"),
        "audit.payload_mixedness.share": (
            ratio(stat("audit.payload_mixedness")[1], audit_s), "ratio"),
        "audit.negative_control.share": (
            ratio(stat("audit.negative_control")[1], audit_s), "ratio"),
        "costs.model_rounds": (costs["model"], "count"),
        "protocol.realized_round_trips": (costs["realized"], "count"),
        "costs.model_over_realized": (ratio(costs["model"], costs["realized"]), "ratio"),
    }
    return m


def traced(wl, bq, seconds: float, name: str, seed: int):
    """Half the time untraced, half traced; per-layer metrics and info."""
    count_jobs = workloads.COUNT_JOBS[name]
    untraced = measure(wl, seconds / 2)
    tr = tracing.Tracer()
    counted = {}
    costs = {"model": 0.0, "realized": 0, "absent": False}

    def account(i, job, out):
        if i == 0:
            tr.keep = False
        if i < count_jobs and out is not None:
            circuit = (wl.circuits[job.text] if wl.kind == "audit"
                       else out["circuit"])
            try:
                n_p, n_np = bq.costs.gate_census(circuit)
                costs["model"] += bq.costs.cost_proposed(n_p, n_np, job.epsilon)
            except AttributeError:
                costs["absent"] = True
            costs["realized"] += out["round_trips"]
        if i == count_jobs - 1:
            counted["calls"], counted["counters"] = tr.snapshot()

    tr.install()
    try:
        tr.keep = True
        traced_loop = measure(wl, seconds / 2, min_jobs=count_jobs,
                              run=tr.span("job", wl.run), on_job=account)
    finally:
        tr.uninstall()
    job_s = tr.stats["job"][1]
    metrics = layer_metrics(tr, counted["calls"], counted["counters"], job_s, costs)
    try:
        metrics.update(kernel_timings(bq))
    except AttributeError:
        tr.absent.append("blindqc.statevec:_apply_op (kernel timings)")
    untraced_rps = untraced.law_rounds / sum(untraced.times)
    traced_rps = traced_loop.law_rounds / sum(traced_loop.times)
    metrics["trace.untraced_round_trips_per_s"] = (untraced_rps, "1/s")
    metrics["trace.traced_round_trips_per_s"] = (traced_rps, "1/s")
    metrics["trace.overhead_share"] = (1.0 - traced_rps / untraced_rps, "ratio")
    absent = tr.absent + (["blindqc.costs"] if costs["absent"] else []) \
        + sorted(f"hook {s}" for s in tr.failed_hooks)
    silent = [s for s in tracing.EXPECTED_SITES[name]
              if s not in tr.absent and tr.site_calls[s][0] == 0]
    info = {"absent": absent, "silent": silent, "count_jobs": count_jobs}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "spans_of_first_job": tr.records,
        "span_fields": ["name", "start_s", "end_s", "parent_index"],
        "span_table": tr.span_table(), "counters": counted["counters"],
        "site_calls": {k: v[0] for k, v in tr.site_calls.items()},
    }))
    return metrics, info, [untraced, traced_loop]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="monotonic clock reading when the process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--self-test", action="store_true",
                    help="with --trace 1: fail unless every boundary is "
                         "present and called")
    args = ap.parse_args(argv)

    bq = load_package()
    wl = workloads.build(bq, args.workload, args.seed)
    # the warm-up is a job like any other: checked, and counted if it fails
    warm = Loop()
    _, _, warm_reasons = run_job(wl, wl.warmup, wl.run)
    warm.attempted = 1
    if warm_reasons:
        warm.fail(f"warm-up job: {warm_reasons[0]}")
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    self_test(wl)

    if args.trace == 0:
        loop = measure(wl, args.seconds)
        repeat_first(wl, loop)
        metrics, info = end_to_end(wl, loop)
        metrics["setup_s"] = (setup_s, "s")
        loops = [loop]
    else:
        metrics, info, loops = traced(wl, bq, args.seconds, args.workload,
                                      args.seed)
        repeat_first(wl, loops[-1], loops[0].first_digest)
    loops.append(warm)
    attempted = sum(l.attempted for l in loops)
    failed = sum(l.failed for l in loops)
    info["host"] = {"nproc": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version(),
                    "numpy": np.__version__}
    info["failed_frac"] = failed / attempted
    info["failures"] = [r for l in loops for r in l.reasons][:5]
    if args.self_test:
        # at this commit every boundary exists and each workload reaches
        # every boundary it is expected to use
        problems = (info["absent"] + [f"no call at {s}" for s in info["silent"]]
                    + [f"{failed} job(s) failed"] * bool(failed))
        print(json.dumps({"workload": args.workload, "problems": problems}))
        return 1 if problems else 0
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(3)
