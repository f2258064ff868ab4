"""Blindness checks on protocol transcripts.

What the server learns is exactly the ordered list of classical tags it
receives plus the quantum states crossing the channel.  The auditor
checks both halves:

* view invariance: two circuits with the same delegation skeleton must
  produce byte-identical classical views, whatever their wires, angles,
  or gate choices within a round class;
* payload mixedness: averaged over the one-time pad protecting it, each
  transmitted wire must be exactly maximally mixed at the moment it
  crosses the channel.  The audit averages the protocol run under all
  four values of each pad label, so the twirl is exact (tolerance 1e-10)
  and its cost is linear in round trips.

A negative control reruns the protocol with pads disabled and requires
some transmitted wire to sit far from maximally mixed, guarding against
an auditor that would pass vacuously.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .angles import precision_bits
from .circuits import Circuit
from .lowering import SERVER_KINDS
from .protocol import CheckpointedRun, run_protocol
from .session import KeySource, Transcript
from .statevec import Gate

AUDIT_VERSION = 3
NEGATIVE_CONTROL_THRESHOLD = 0.4
EXHAUSTIVE_TOLERANCE = 1e-10

ALL_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# round class each delegable gate produces; measurements send nothing
_SKELETON_CLASS = {Gate.H: "block", Gate.CZ: "block", Gate.RZ: "rz"}


class SkeletonMismatch(ValueError):
    """View comparison requested for circuits with different skeletons."""


class ViewMismatch(AssertionError):
    """Same-skeleton circuits produced different classical views."""


def circuit_skeleton(circuit: Circuit) -> tuple[str, ...]:
    """The round-class sequence a circuit induces on the channel."""
    out = []
    for op in circuit.ops:
        cls = _SKELETON_CLASS.get(op.kind)
        if cls is not None:
            out.append(cls)
    return tuple(out)


def classical_view(transcript: Transcript) -> tuple[str, ...]:
    """Everything classical the server sees: its tags, in order."""
    return tuple(r.tag for r in transcript.rounds)


def view_digest(view: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for entry in view:
        h.update(entry.encode())
        h.update(b"\n")
    return h.hexdigest()


def view_invariance(circuit_a: Circuit, circuit_b: Circuit, epsilon: float,
                    seed: int) -> tuple[str, ...]:
    """Run both circuits and require identical classical views.

    Returns the common view; raises SkeletonMismatch when the circuits
    are not comparable and ViewMismatch when a comparable pair leaks.
    """
    if circuit_skeleton(circuit_a) != circuit_skeleton(circuit_b):
        raise SkeletonMismatch(
            "circuits have different delegation skeletons; the view is "
            "allowed to differ"
        )
    va = classical_view(run_protocol(circuit_a, epsilon, seed).transcript)
    vb = classical_view(run_protocol(circuit_b, epsilon, seed).transcript)
    if va != vb:
        first = next(i for i, (x, y) in enumerate(zip(va, vb)) if x != y)
        raise ViewMismatch(
            f"views diverge at round {first}: "
            f"{va[first]} vs {vb[first]}"
        )
    return va


# ---------------------------------------------------------------------------
# payload mixedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixednessResult:
    mode: str
    n_messages: int
    n_checks: int
    worst_distance: float
    worst_label: str | None
    inbound_worst_distance: float
    tolerance: float
    uncovered: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.worst_distance <= self.tolerance and not self.uncovered

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_messages": self.n_messages,
            "n_checks": self.n_checks,
            "worst_distance": self.worst_distance,
            "worst_label": self.worst_label,
            "inbound_worst_distance": self.inbound_worst_distance,
            "tolerance": self.tolerance,
            "uncovered": list(self.uncovered),
            "pass": self.passed,
        }


def _dist_from_mixed(rho: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(rho - np.eye(2) / 2)
    return float(0.5 * np.sum(np.abs(eigs)))


def payload_mixedness(circuit: Circuit, epsilon: float, seed: int, *,
                      baseline: CheckpointedRun | None = None,
                      ) -> MixednessResult:
    """Check every transmitted wire is maximally mixed on the channel.

    Each pad label is pinned to all four pairs and the wire's densities on
    its way out and back are averaged in ``ALL_PAIRS`` order: an exact
    Pauli twirl.  ``baseline`` is the checkpointed run for ``seed`` when
    the caller already has it.  Replays fork it where their label is drawn
    and stop after the round the label pads.  Keys are
    label-addressed, so the replay that pins a label to the pair the seed
    draws anyway is the baseline itself and is not run again.
    """
    if baseline is None:
        baseline = CheckpointedRun(circuit, epsilon, seed)
    own_keys = KeySource(seed)
    base_rounds = baseline.result.transcript.rounds

    uncovered = []
    worst = 0.0
    worst_label = None
    inbound_worst = 0.0
    n_checks = 0
    for i, rnd in enumerate(base_rounds):
        padded_wires = {w for w, _ in rnd.pad_labels}
        uncovered += [f"round {i} wire {wire}" for wire in rnd.transmitted
                      if wire not in padded_wires]
        for wire, label in rnd.pad_labels:
            own = own_keys.pad_pair(label)
            # round i under each pair of the label
            twirl = [rnd if pair == own else
                     baseline.replay(i, label, pair)[i] for pair in ALL_PAIRS]
            # the wire's state averaged over the pairs, on its way out and back
            avg_out = sum(r.wire_state(r.sent, wire) for r in twirl) / 4
            avg_in = sum(r.wire_state(r.received, wire) for r in twirl) / 4
            n_checks += 1
            dist = _dist_from_mixed(avg_out)
            if dist > worst:
                worst, worst_label = dist, label
            inbound_worst = max(inbound_worst, _dist_from_mixed(avg_in))

    return MixednessResult(
        mode="exhaustive",
        n_messages=len(base_rounds),
        n_checks=n_checks,
        worst_distance=worst,
        worst_label=worst_label,
        inbound_worst_distance=inbound_worst,
        tolerance=EXHAUSTIVE_TOLERANCE,
        uncovered=tuple(uncovered),
    )


def negative_control(circuit: Circuit, epsilon: float, seed: int) -> float:
    """Max channel distance from maximally mixed with all pads disabled.

    A sound auditor must see a large value here; if even unpadded traffic
    looked mixed, the mixedness check would be vacuous.
    """
    bare = run_protocol(circuit, epsilon, seed, disable_pads=True)
    worst = 0.0
    for rnd in bare.transcript.rounds:
        for wire in rnd.transmitted:
            worst = max(worst, _dist_from_mixed(rnd.wire_state(rnd.sent, wire)))
    return worst


def count_rounds(transcript: Transcript) -> list[dict]:
    """Round trips consumed by each gate, from the transcript markers."""
    return [
        {
            "gate": mk.gate_index,
            "kind": mk.kind,
            "rounds": mk.round_end - mk.round_start,
        }
        for mk in transcript.markers
    ]


# a well-formed run confines each party to its half of the gate set
CLIENT_OP_KINDS = frozenset({"x", "z", "swap", "measure"})
SERVER_OP_KINDS = frozenset(kind.value for kind in SERVER_KINDS)


def capability_confinement(transcript: Transcript) -> dict:
    """Statically check which gate kinds each party applied.

    The client may only touch the state with Pauli frame operations
    (X, Z, swaps, measurements); every other unitary must have crossed
    the channel and show up in the server's column.
    """
    client = sorted(set(transcript.client_op_kinds))
    server = sorted(set(transcript.server_op_kinds))
    ok = (set(client) <= CLIENT_OP_KINDS and set(server) <= SERVER_OP_KINDS)
    return {"client_kinds": client, "server_kinds": server, "pass": ok}


def audit_circuit(circuit: Circuit, epsilon: float, seed: int, *,
                  mode: str = "exhaustive") -> dict:
    """Full audit report as a JSON-ready dict; deterministic per seed.

    ``mode`` names the mixedness check; ``"exhaustive"`` is the only one.
    The keyword stays although it selects nothing: the benchmark's audit
    workload passes ``mode="exhaustive"`` and the known-answer pins pass
    ``--mode exhaustive``, so deleting it would break both.
    A circuit that delegates no gate is refused: with no traffic the
    negative control would read 0 and fail a protocol that leaked nothing.
    """
    if mode != "exhaustive":
        raise ValueError(f"unknown mixedness mode {mode!r}")
    if not circuit_skeleton(circuit):
        raise ValueError("circuit delegates no gates to audit")
    baseline = CheckpointedRun(circuit, epsilon, seed)
    result = baseline.result
    view = classical_view(result.transcript)
    mixed = payload_mixedness(circuit, epsilon, seed, baseline=baseline)
    control = negative_control(circuit, epsilon, seed)
    control_ok = control >= NEGATIVE_CONTROL_THRESHOLD
    caps = capability_confinement(result.transcript)
    return {
        "version": AUDIT_VERSION,
        "epsilon": epsilon,
        "seed": seed,
        "precision_bits": precision_bits(epsilon),
        "n_gates": len(circuit.ops),
        "round_trips": result.transcript.round_trips(),
        "rounds_per_gate": count_rounds(result.transcript),
        "classical_view_digest": view_digest(view),
        "classical_view": list(view),
        "capabilities": caps,
        "mixedness": mixed.as_dict(),
        "negative_control": {
            "max_distance": control,
            "threshold": NEGATIVE_CONTROL_THRESHOLD,
            "pass": control_ok,
        },
        "pass": mixed.passed and control_ok and caps["pass"],
    }
