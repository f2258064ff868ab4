"""Shared helpers for protocol-level tests."""

import math

import numpy as np

from blindqc import statevec as sv
from blindqc.angles import digitize
from blindqc.circuits import Circuit
from blindqc import protocol
from blindqc.protocol import checked_run, run_protocol
from blindqc.session import Round, Session
from blindqc.statevec import Gate
import oracles


def random_lowered_circuit(rng: np.random.Generator, n_qubits: int,
                           n_gates: int) -> Circuit:
    """Random measure-free circuit over the delegable set {h, cz, rz}."""
    ops = []
    for _ in range(n_gates):
        roll = int(rng.integers(3))
        if roll == 0:
            ops.append(sv.h(int(rng.integers(n_qubits))))
        elif roll == 1 and n_qubits >= 2:
            a, b = (int(x) for x in rng.permutation(n_qubits)[:2])
            ops.append(sv.cz(a, b))
        else:
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            ops.append(sv.rz(theta, int(rng.integers(n_qubits))))
    return Circuit(n_qubits, tuple(ops))


def digitized_reference(circuit: Circuit, n_digits: int,
                        extractor: str = "floor") -> sv.Statevector:
    """Direct simulation with every rz snapped to its digit approximant."""
    state = oracles.new_state(circuit.n_qubits)
    for op in circuit.ops:
        if op.kind is Gate.RZ:
            d = digitize(op.angle, n_digits, extractor)
            state = oracles.apply(state, sv.rz(oracles.reconstruct(d), op.qubits[0]))
        else:
            state = oracles.apply(state, op)
    return state


def rz_error_budget(circuit: Circuit, n_digits: int,
                    extractor: str = "floor") -> float:
    """Worst-case infidelity from rotation truncation.

    Per-step Fubini-Study angles add, so infidelity is bounded by
    sin^2(sum |delta_i| / 2).  The per-gate sum of sin^2(delta_i/2) is
    not a bound: floor-extracted remainders all share a sign and
    accumulate coherently on a wire.
    """
    half_angle = 0.0
    for op in circuit.ops:
        if op.kind is Gate.RZ:
            d = digitize(op.angle, n_digits, extractor)
            half_angle += abs(op.angle - oracles.reconstruct(d)) / 2
    return math.sin(min(half_angle, math.pi / 2)) ** 2


def trip(sess: Session, transmitted, tag: str, server_ops,
         pad_labels=()) -> Round:
    """One round trip of ``sess``, recorded as the run records it; the
    round as a ``Round``."""
    densities = sess.round_trip(transmitted, server_ops)
    sess.transcript.record(tuple(transmitted), ((tag, tuple(pad_labels)),),
                           densities)
    return Round(tag, tuple(transmitted), *densities, tuple(pad_labels))


class KeptRun:
    """A checked run that keeps every round its check receives, with the
    state the round started from and the round as a step, so a test can
    read every round after the run (``rounds``) and replay any of them."""

    def __init__(self, circuit: Circuit, epsilon: float, seed: int,
                 extractor: str = "floor"):
        self.checked = []

        def keep(run, first, rounds):
            assert first == len(self.checked)
            self.run = run
            self.checked += rounds

        self.result = checked_run(circuit, epsilon, seed, keep, extractor)
        self.rounds = [rnd for rnd, _, _ in self.checked]
        self.keys = self.run.session.keys

    def replay(self, index: int, label: str, pairs) -> list[Round]:
        """Round ``index`` with ``label`` pinned to each pair in turn."""
        rnd = self.checked[index][0]
        return [rnd._replace(sent=sent, received=received) for sent, received
                in protocol.replay(self.run, self.checked[index], label,
                                   pairs)]


def kept_run(circuit: Circuit, epsilon: float, seed: int,
             extractor: str = "floor") -> KeptRun:
    """The run ``run_protocol`` makes with every ``Round`` kept: a
    ``KeptRun``, checked to be the plain run by its digest, its
    transcript's tags, wires, markers and op kinds, and its working state."""
    plain = run_protocol(circuit, epsilon, seed, extractor=extractor)
    kept = KeptRun(circuit, epsilon, seed, extractor)
    res = kept.result
    assert res.transcript.digest() == plain.transcript.digest()
    assert res.transcript == plain.transcript
    assert np.array_equal(res.working_state.amps, plain.working_state.amps)
    assert (res.digits, res.outcomes) == (plain.digits, plain.outcomes)
    return kept
