"""Spans at the package's module boundaries, installed from outside.

Each boundary is wrapped where its caller looks it up, so the package's
own code is untouched: ``audit`` finds ``run_protocol`` in its own module
namespace, ``protocol`` finds ``digitize`` and ``digit_block_plan`` in its
namespace, ``Session`` calls ``statevec._apply_op`` through the module, and
the ``KeySource``/``Session``/``Transcript`` methods are looked up on
their classes.  A boundary a later change renames or deletes is reported
as absent instead of failing the run.

A span records its name, start, end and parent.  Self time is a span's
duration minus the time its child spans cover.  Calls, total and self
time are folded into per-name totals as spans close; the full span
records of the first traced job are kept in memory and written out when
the run ends.
"""

from __future__ import annotations

import importlib
import time

# (span name, module, attribute path as the caller looks it up)
BOUNDARIES = (
    ("circuits.parse", "blindqc.circuits", "parse"),
    ("lowering.lower", "blindqc.lowering", "lower"),
    ("protocol.run_protocol", "blindqc.protocol", "run_protocol"),
    ("protocol.run_protocol", "blindqc.audit", "run_protocol"),
    ("angles.digitize", "blindqc.protocol", "digitize"),
    ("rzprotocol.digit_block_plan", "blindqc.protocol", "digit_block_plan"),
    ("paulis.key_ops", "blindqc.paulis", "pad_ops"),
    ("paulis.key_ops", "blindqc.paulis", "unpad_ops"),
    ("paulis.key_ops", "blindqc.paulis", "key_update_circuit"),
    ("session.pad_pair", "blindqc.session", "KeySource.pad_pair"),
    ("session.round_trip", "blindqc.session", "Session.round_trip"),
    ("session.client_apply", "blindqc.session", "Session.client_apply"),
    ("session.client_measure", "blindqc.session", "Session.client_measure"),
    ("session.digest", "blindqc.session", "Transcript.digest"),
    ("statevec.apply_op", "blindqc.statevec", "_apply_op"),
    ("statevec.measure_qubit", "blindqc.statevec", "measure_qubit"),
    ("statevec.reduced_density", "blindqc.statevec", "reduced_density"),
    ("audit.audit_circuit", "blindqc.audit", "audit_circuit"),
    ("audit.payload_mixedness", "blindqc.audit", "payload_mixedness"),
    ("audit.negative_control", "blindqc.audit", "negative_control"),
)

_RUN_SITES = (
    "blindqc.circuits:parse", "blindqc.lowering:lower",
    "blindqc.protocol:run_protocol", "blindqc.session:Transcript.digest",
)
_AUDIT_SITES = (
    "blindqc.audit:run_protocol", "blindqc.audit:audit_circuit",
    "blindqc.audit:payload_mixedness", "blindqc.audit:negative_control",
    "blindqc.statevec:reduced_density",
)
_SHARED_SITES = tuple(
    f"{module}:{attr}" for _, module, attr in BOUNDARIES
    if f"{module}:{attr}" not in _RUN_SITES + _AUDIT_SITES
)
# boundaries each workload must reach; the self-test asserts a call on each
EXPECTED_SITES = {
    "run-narrow": _RUN_SITES + _SHARED_SITES,
    "run-wide": _RUN_SITES + _SHARED_SITES,
    "audit-exhaustive": _AUDIT_SITES + _SHARED_SITES,
}

# share of the amplitudes each gate kind the protocol applies must change
TOUCHED = {"x": 1.0, "z": 0.5, "h": 1.0, "rz": 1.0, "cz": 0.25, "swap": 0.5}
AMP_BYTES = 16
# span records kept for the first traced job, at most
KEEP_LIMIT = 200_000


def computed_bytes(n_amps: int, kind: str) -> int:
    """Bytes a gate must read plus write on ``n_amps`` complex128 amplitudes."""
    return int(2 * AMP_BYTES * n_amps * TOUCHED.get(kind, 1.0))


# counters kept at boundaries: hooks run after the span has closed


def _count_snapshots(tr, args, kwargs, result):
    tr.add("session.snapshot_bytes", 2 * args[0].amps.nbytes)


def _count_digest_bytes(tr, args, kwargs, result):
    transcript = args[0]
    tr.add("session.digest.bytes",
           len(transcript.messages) * (AMP_BYTES << transcript.n_qubits))


def _count_kernel_bytes(tr, args, kwargs, result):
    amps, op = args[0], args[1]
    tr.add("statevec.apply_op.bytes", computed_bytes(amps.size, op.kind.value))


def _count_audit_runs(tr, args, kwargs, result):
    if kwargs.get("overrides"):
        tr.add("audit.replays", 1)
        tr.add("audit.replay_round_trips", result.transcript.round_trips())
    elif kwargs.get("disable_pads"):
        tr.add("audit.negative_control_runs", 1)
    else:
        tr.add("audit.baseline_runs", 1)


def _count_audit_checks(tr, args, kwargs, result):
    tr.add("audit.checks", result["mixedness"]["n_checks"])


HOOKS = {
    "blindqc.session:Session.round_trip": _count_snapshots,
    "blindqc.session:Transcript.digest": _count_digest_bytes,
    "blindqc.statevec:_apply_op": _count_kernel_bytes,
    "blindqc.audit:run_protocol": _count_audit_runs,
    "blindqc.audit:audit_circuit": _count_audit_checks,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, total s, self s]
        self.site_calls: dict[str, list] = {}  # "module:attr" -> [calls]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.failed_hooks: set[str] = set()
        self.records: list[list] = []          # [name, start, end, parent]
        self.keep = False
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def add(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def span(self, name: str, fn, hook=None, site: str | None = None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        site_stat = self.site_calls.setdefault(site or name, [0])
        stack = self._stack
        records = self.records
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0, -1]  # time covered by children, record index
            if tracer.keep and len(records) < KEEP_LIMIT:
                frame[1] = len(records)
                records.append([name, 0.0, 0.0, stack[-1][1] if stack else -1])
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                site_stat[0] += 1
                if stack:
                    stack[-1][0] += duration
                if frame[1] >= 0:
                    records[frame[1]][1:3] = (start, end)
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    tracer.failed_hooks.add(site)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, module, attr in BOUNDARIES:
            site = f"{module}:{attr}"
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(site)
                continue
            setattr(owner, leaf,
                    self.span(name, original, HOOKS.get(site), site))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def snapshot(self) -> tuple[dict, dict]:
        """Calls per span name and counter totals so far."""
        return ({k: v[0] for k, v in self.stats.items()}, dict(self.counters))

    def span_table(self) -> dict:
        return {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.stats.items())}
