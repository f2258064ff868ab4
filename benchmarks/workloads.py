"""The three workloads: seeded inputs, the timed job, and its checks.

Each workload owns a pool of jobs made from ``--seed``.  A job's *shape*
(qubit count and the gate kinds it contains) follows a fixed schedule that
does not depend on the seed, so the law count of round trips per pool is
the same for every seed and run-to-run spread measures the host, not the
draw.  The seed picks the gate order, the qubits, the angles and the
protocol seeds.

Only the timed region touches the package, and only through its public
entry points: ``circuits.parse``, ``lowering.lower``,
``protocol.run_protocol``, ``Transcript.digest`` and
``audit.audit_circuit``.  Functions are looked up on the module at call
time, so spans installed by ``tracing`` see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

import oracle

TWO_PI = 2 * math.pi

# gate kinds a narrow circuit may use, by qubit count (the full text set)
_NARROW_KINDS = {
    1: ("x", "z", "h", "s", "t", "rz"),
    2: ("x", "z", "h", "s", "t", "rz", "cx", "cz", "swap"),
    3: ("x", "z", "h", "s", "t", "rz", "cx", "cz", "swap", "ccx"),
}
_ARITY = {"cx": 2, "cz": 2, "swap": 2, "ccx": 3}

# the shape schedules below are drawn once from this fixed generator
SHAPE_SEED = 20251217

NARROW_EPSILON = 1e-2
WIDE_EPSILON = 1e-6
WIDE_QUBITS = 8
# Wide and audit jobs cycle through five shapes, cheapest first, spaced
# so their job times do not overlap.  With five equal clusters the median
# job always falls in the third cluster and the 75th percentile in the
# fourth, whatever the job count, so neither jumps between shapes from
# run to run.
# (h, cz, rz) per wide job: 787 to 1799 round trips
WIDE_SHAPES = ((16, 12, 3), (16, 12, 4), (16, 12, 5), (16, 12, 6), (16, 12, 7))
# (epsilon, h, cz, rz) per audit job on two qubits
AUDIT_SHAPES = (
    (1e-1, 1, 0, 1),
    (1e-1, 1, 1, 1),
    (1e-1, 2, 1, 1),
    (1e-1, 0, 0, 2),
    (1e-2, 1, 0, 1),
)


@dataclass(frozen=True)
class Job:
    index: int
    n_qubits: int
    gates: tuple          # the generated circuit as (name, qubits, angle)
    text: str             # the same circuit in the package's text format
    epsilon: float
    seed: int


def circuit_text(n_qubits: int, gates) -> str:
    lines = ["version 1", f"qubits {n_qubits}"]
    for name, qubits, angle in gates:
        parts = [name, *map(str, qubits)]
        if angle is not None:
            parts.append(repr(angle))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _place(rng: np.random.Generator, n_qubits: int, kinds) -> tuple:
    """Random order, qubits and angles for a fixed multiset of kinds."""
    gates = []
    for k in rng.permutation(len(kinds)):
        name = kinds[k]
        qubits = tuple(int(q) for q in
                       rng.permutation(n_qubits)[:_ARITY.get(name, 1)])
        angle = float(rng.uniform(-TWO_PI, TWO_PI)) if name == "rz" else None
        gates.append((name, qubits, angle))
    return tuple(gates)


def _job(rng, index, n_qubits, kinds, epsilon) -> Job:
    gates = _place(rng, n_qubits, kinds)
    return Job(index, n_qubits, gates, circuit_text(n_qubits, gates),
               epsilon, int(rng.integers(2**31)))


def _narrow_shapes(count: int = 64):
    rng = np.random.default_rng(SHAPE_SEED)
    shapes = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        allowed = _NARROW_KINDS[n]
        kinds = [allowed[int(i)]
                 for i in rng.integers(len(allowed), size=int(rng.integers(1, 31)))]
        shapes.append((n, kinds))
    return shapes


# a fixed lowered circuit whose correct outputs the oracle can state alone
_REFERENCE = Job(-2, 2, (("h", (0,), None), ("cz", (0, 1), None),
                         ("rz", (1,), 0.7), ("h", (1,), None)),
                 "", 1e-2, 0)
_REFERENCE_LAW = oracle.round_law([g[0] for g in _REFERENCE.gates],
                                  _REFERENCE.epsilon)


class RunWorkload:
    """Jobs that do what ``blindqc run`` does: parse, lower, run, digest."""

    kind = "run"

    def __init__(self, bq, jobs, warmup: Job, tail_percentile):
        self.bq = bq
        self.jobs = jobs
        self.warmup = warmup
        self.tail_percentile = tail_percentile

    def run(self, job: Job):
        circuit = self.bq.circuits.parse(job.text)
        lowered = self.bq.lowering.lower(circuit)
        result = self.bq.protocol.run_protocol(lowered, job.epsilon, job.seed)
        return lowered, result, result.transcript.digest()

    @staticmethod
    def outputs(raw) -> dict:
        lowered, result, digest = raw
        return {
            "circuit": lowered,
            "lowered": [(op.kind.value, tuple(op.qubits), op.angle)
                        for op in lowered.ops],
            "amps": np.array(result.working_state.amps),
            "round_trips": result.transcript.round_trips(),
            "digest": digest,
        }

    @staticmethod
    def check(job: Job, out: dict) -> list[str]:
        return oracle.check_run(job.n_qubits, job.gates, out["lowered"],
                                job.epsilon, out["amps"], out["round_trips"])

    @staticmethod
    def law(job: Job, out: dict) -> int:
        return oracle.round_law([g[0] for g in out["lowered"]], job.epsilon)

    @staticmethod
    def reference() -> tuple[Job, dict]:
        job = _REFERENCE
        m = oracle.precision_bits(job.epsilon)
        snapped = [(g[0], g[1], oracle.snap(g[2], m)) if g[0] == "rz" else g
                   for g in job.gates]
        return job, {"lowered": list(job.gates),
                     "amps": oracle.simulate(job.n_qubits, snapped),
                     "round_trips": _REFERENCE_LAW}

    @staticmethod
    def corruptions(out: dict):
        yield "corrupted state", {**out, "amps": oracle.nearby_state(out["amps"])}
        yield "wrong round count", {**out, "round_trips": out["round_trips"] + 1}


class AuditWorkload:
    """Jobs that do what ``blindqc audit`` does on an already lowered circuit."""

    kind = "audit"

    def __init__(self, bq, jobs, warmup: Job, tail_percentile):
        self.bq = bq
        # the package receives circuits, parsed once here, outside any timing
        self.circuits = {j.text: bq.circuits.parse(j.text)
                         for j in (*jobs, warmup)}
        self.jobs = jobs
        self.warmup = warmup
        self.tail_percentile = tail_percentile

    def run(self, job: Job):
        return self.bq.audit.audit_circuit(
            self.circuits[job.text], job.epsilon, job.seed, mode="exhaustive"
        )

    @staticmethod
    def outputs(report) -> dict:
        blob = json.dumps(report, sort_keys=True).encode()
        return {"report": report, "round_trips": report.get("round_trips"),
                "digest": hashlib.sha256(blob).hexdigest()}

    @staticmethod
    def check(job: Job, out: dict) -> list[str]:
        return oracle.check_audit(job.gates, job.epsilon, out["report"])

    @staticmethod
    def law(job: Job, out: dict) -> int:
        return oracle.round_law([g[0] for g in job.gates], job.epsilon)

    @staticmethod
    def reference() -> tuple[Job, dict]:
        report = {"pass": True, "negative_control": {"pass": True},
                  "round_trips": _REFERENCE_LAW}
        return _REFERENCE, {"report": report, "round_trips": _REFERENCE_LAW}

    @staticmethod
    def corruptions(out: dict):
        report = out["report"]
        yield "failed audit", {**out, "report": {**report, "pass": False}}
        yield "wrong round count", {
            **out, "report": {**report, "round_trips": report["round_trips"] + 1}}


def _kinds(h: int, cz: int, rz: int) -> list[str]:
    return ["h"] * h + ["cz"] * cz + ["rz"] * rz


def build(bq, name: str, seed: int):
    """The named workload with its job pool drawn from ``seed``."""
    if name == "run-narrow":
        rng = np.random.default_rng([seed, 1])
        shapes = _narrow_shapes()
        jobs = [_job(rng, i, *shapes[i % len(shapes)], NARROW_EPSILON)
                for i in range(512)]
        warm = _job(rng, -1, 3, list(_NARROW_KINDS[3]), NARROW_EPSILON)
        return RunWorkload(bq, jobs, warm, tail_percentile=95)
    if name == "run-wide":
        rng = np.random.default_rng([seed, 2])
        jobs = [_job(rng, i, WIDE_QUBITS,
                     _kinds(*WIDE_SHAPES[i % len(WIDE_SHAPES)]), WIDE_EPSILON)
                for i in range(60)]
        warm = _job(rng, -1, WIDE_QUBITS, _kinds(1, 1, 1), WIDE_EPSILON)
        return RunWorkload(bq, jobs, warm, tail_percentile=75)
    if name == "audit-exhaustive":
        rng = np.random.default_rng([seed, 3])
        jobs = []
        for i in range(60):
            eps, h, cz, rz = AUDIT_SHAPES[i % len(AUDIT_SHAPES)]
            jobs.append(_job(rng, i, 2, _kinds(h, cz, rz), eps))
        warm = _job(rng, -1, 2, _kinds(1, 1, 1), 1.0)
        return AuditWorkload(bq, jobs, warm, tail_percentile=75)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("run-narrow", "run-wide", "audit-exhaustive")
# jobs whose exact counts the traced run reports: one cycle of shapes
COUNT_JOBS = {"run-narrow": 64, "run-wide": len(WIDE_SHAPES),
              "audit-exhaustive": len(AUDIT_SHAPES)}
