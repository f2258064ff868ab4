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
  and its cost is linear in round trips.  It checks each step of the run
  as the run makes it, so its memory stays flat.  A pad hides only if
  used once, so each label must pad one wire of one round with the key
  its derivation from the seed gives, which no other label shares.

A negative control reads each wire under its label pinned to (0, 0),
that is unpadded, and requires some wire far from maximally mixed, so
an auditor cannot pass vacuously.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .angles import precision_bits
from .circuits import Circuit
from .lowering import SERVER_KINDS
from .protocol import ProtocolResult, checked_run, replay, run_protocol
from .session import Transcript
from .statevec import Gate

AUDIT_VERSION = 5
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
    return tuple(transcript.tags)


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


def _dists_from_mixed(states: np.ndarray) -> list[float]:
    """Trace distance of each 2x2 density in ``states`` from I/2, from one
    stacked eigen-solve; numpy runs LAPACK per matrix, so each value has
    the bits a single-matrix solve gives."""
    eigs = np.linalg.eigvalsh(np.reshape(states, (-1, 2, 2)) - np.eye(2) / 2)
    return (0.5 * np.abs(eigs).sum(axis=-1)).tolist()


def payload_mixedness(circuit: Circuit, epsilon: float, seed: int,
                      extractor: str = "floor"
                      ) -> tuple[dict, float, ProtocolResult]:
    """Run ``circuit`` as ``blindqc run`` does and check every transmitted
    wire is maximally mixed on the channel; returns the report's
    ``mixedness`` section, the ``negative_control`` of the checked wires'
    unpadded states, and the run's result.

    Each pad label's round runs under all four pairs, in ``ALL_PAIRS``
    order: the run's own round under the pair the key spec derives
    (``KeySource``), so keys that stray from it count a pair twice, and
    one ``replay`` of the round alone for the other three, so audit cost
    is linear in round trips.  Averaging the wire's densities out and back
    over the four is an exact Pauli twirl.  Each step of the run is
    checked as the run hands it over: the states of every label that pads
    one wire of one round shape are read off their densities at once, and
    the step's averages go through one stacked eigen-solve.  The check
    passes when the worst outbound distance is within
    ``EXHAUSTIVE_TOLERANCE``, every transmitted wire carries a pad label
    and no label pads more than once.
    """
    uncovered, seen, reused = [], set(), set()
    n_checks, worst, worst_label, inbound, control = 0, 0.0, None, 0.0, 0.0

    def check(run, first, rounds) -> None:
        nonlocal n_checks, worst, worst_label, inbound, control
        # per (transmitted, wire): a round that sends it, the indices of
        # the labels that pad it, and their twirls' densities, out then back
        labels, groups = [], {}
        for i, checked in enumerate(rounds, first):
            rnd = checked[0]
            padded_wires = {w for w, _ in rnd.pad_labels}
            uncovered.extend(f"round {i} wire {wire}" for wire in
                             rnd.transmitted if wire not in padded_wires)
            for wire, label in rnd.pad_labels:
                b = hashlib.blake2b(f"{seed}/pad/{label}".encode(),
                                    digest_size=1).digest()[0]
                own = ALL_PAIRS.index((b & 1, (b >> 1) & 1))
                # the round under each pair of the label, in ALL_PAIRS order
                twirl = replay(run, checked, label,
                               ALL_PAIRS[:own] + ALL_PAIRS[own + 1:])
                twirl.insert(own, (rnd.sent, rnd.received))
                _, at, densities = groups.setdefault((rnd.transmitted, wire),
                                                     (rnd, [], []))
                at.append(len(labels))
                labels.append(label)
                densities += [x for pair in twirl for x in pair]
                (reused if label in seen else seen).add(label)
        # (label, pair, out or back, 2, 2): each label's wire under each
        # pair, read off each group's densities at once
        states = np.empty((len(labels), 4, 2, 2, 2), dtype=complex)
        for (_, wire), (rnd, at, densities) in groups.items():
            d = len(densities[0])
            states[at] = rnd.wire_state(
                np.array(densities).reshape(len(at), 4, 2, d, d), wire)
        # summed from 0 in pair order, as ``sum`` adds
        avg = sum(states[:, pair] for pair in range(4)) / 4
        dists = _dists_from_mixed(np.concatenate((avg[:, 0], avg[:, 1])))
        for label, dist in zip(labels, dists):
            if dist > worst:
                worst, worst_label = dist, label
        inbound = max([inbound, *dists[len(labels):]])
        # under ALL_PAIRS[0] == (0, 0): unpadded
        control = max(control, negative_control(states[:, 0, 0]))
        n_checks += len(labels)

    result = checked_run(circuit, epsilon, seed, check, extractor)
    return {
        "mode": "exhaustive",
        "n_messages": result.transcript.round_trips(),
        "n_checks": n_checks,
        "worst_distance": worst,
        "worst_label": worst_label,
        "inbound_worst_distance": inbound,
        "tolerance": EXHAUSTIVE_TOLERANCE,
        "uncovered": uncovered,
        "reused": sorted(reused),
        "pass": worst <= EXHAUSTIVE_TOLERANCE and not (uncovered or reused),
    }, control, result


def negative_control(states) -> float:
    """Max distance from I/2 of the unpadded wire ``states``; a sound
    auditor sees a large value, else the mixedness check is vacuous."""
    return max([0.0, *_dists_from_mixed(states)])


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
                  mode: str = "exhaustive", extractor: str = "floor") -> dict:
    """Full audit report, as a JSON-ready dict, of the run ``blindqc run``
    makes with the digit ``extractor``; deterministic per seed.

    ``mode`` selects nothing: ``"exhaustive"`` is the only mixedness
    check.  The keyword stays only because the benchmark's audit workload
    passes ``mode="exhaustive"``.
    A circuit that delegates no gate is refused: with no traffic the
    negative control would read 0 and fail a protocol that leaked nothing.
    """
    if mode != "exhaustive":
        raise ValueError(f"unknown mixedness mode {mode!r}")
    if not circuit_skeleton(circuit):
        raise ValueError("circuit delegates no gates to audit")
    mixed, control, result = payload_mixedness(circuit, epsilon, seed,
                                               extractor)
    view = classical_view(result.transcript)
    control_ok = control >= NEGATIVE_CONTROL_THRESHOLD
    caps = capability_confinement(result.transcript)
    return {
        "version": AUDIT_VERSION,
        "epsilon": epsilon,
        "seed": seed,
        "precision_bits": precision_bits(epsilon),
        "extractor": extractor,
        "n_gates": len(circuit.ops),
        "round_trips": result.transcript.round_trips(),
        "rounds_per_gate": count_rounds(result.transcript),
        "classical_view_digest": view_digest(view),
        "classical_view": list(view),
        "capabilities": caps,
        "mixedness": mixed,
        "negative_control": {
            "max_distance": control,
            "threshold": NEGATIVE_CONTROL_THRESHOLD,
            "pass": control_ok,
        },
        "pass": mixed["pass"] and control_ok and caps["pass"],
    }
