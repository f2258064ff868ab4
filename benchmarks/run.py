"""blindqc benchmark: one workload per invocation, in fresh processes.

    python3 benchmarks/run.py --workload run-narrow --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --self-test

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` prints the per-layer metrics from a traced run.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are the same figures for a reader,
plus the host description.  A fuller record goes to
``.bench_out/result-<workload>-seed<n>-trace<t>.json``.

This launcher imports only the standard library.  The workload runs in
``worker.py`` in a fresh process, so its peak RSS and set-up time are its
own, with BLAS and OpenMP pools pinned to one thread.  ``setup_s`` is the
median over several fresh processes that each set up and stop, plus the
measured one.  See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("run-narrow", "run-wide", "audit-exhaustive")
SETUP_PROBES = 4
# every invocation must end within this many seconds
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def spawn(args: list[str], timeout: float) -> tuple[int, dict | None]:
    """Run the worker in a fresh process; (exit code, its last JSON line)."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(WORKER), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def self_test(deadline: float) -> int:
    """Every boundary records a call on the workloads that use it, and the
    checks flag corrupted outputs."""
    status = 0
    for name in WORKLOADS:
        code, res = spawn(["--workload", name, "--seed", "1", "--seconds", "0",
                           "--trace", "1", "--self-test"],
                          deadline - time.monotonic())
        problems = res["problems"] if res else ["no result"]
        ok = code == 0 and not problems
        status |= 0 if ok else 1
        print(f"{name}: {'ok' if ok else 'FAIL ' + '; '.join(problems)}")
    return status


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="check boundaries and checks on every workload")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "blindqc" / "__init__.py").is_file():
        print(f"error: no blindqc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(deadline)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            code, res = spawn(common + ["--setup-only"], deadline - time.monotonic())
            if code != 0 or res is None:
                print("error: set-up probe failed", file=sys.stderr)
                return 3
            setups.append(res["setup_s"])
    code, res = spawn(common, deadline - time.monotonic())
    if code != 0 or res is None:
        print(f"error: worker exited with {code}", file=sys.stderr)
        return 3
    metrics = res["metrics"]
    if args.trace == 0:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        res["info"]["setup_s_samples"] = setups

    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"error: metric {m['name']} missing or not in {m['unit']}",
                  file=sys.stderr)
            return 3
    info = res["info"]
    print(f"# blindqc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# host: " + " ".join(f"{k}={v}" for k, v in info["host"].items())
          + " " + " ".join(f"{v}=1" for v in THREAD_VARS))
    for m in wanted:
        v = metrics[m["name"]]["value"]
        print(f"{m['name']:<45} {v:>14.6g} {m['unit']:<6} ({m['better']} is better)")
    print(f"{'failed_frac':<45} {info['failed_frac']:>14.6g} ratio  "
          f"({res['failed']}/{res['attempted']} jobs; lower is better)")
    for key in ("jobs_timed", "job_tail_percentile", "absent", "silent",
                "count_jobs"):
        if key in info:
            print(f"# {key}: {info[key]}")
    for why in info.get("failures", []):
        print(f"# failure: {why.strip().splitlines()[-1]}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **res}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
