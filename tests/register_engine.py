"""The slot-ful reference engine, and whole-circuit replays of the package.

``RegisterRun`` is a frozen copy of the driver that kept the four block
slots on the register: the register holds the n working wires plus the
slots n..n+3, and every client swap, pad, unpad, server gate and slot
reset is a kernel on the whole register.  Every round is one round trip
that traces the register, and the digit blocks m >= 2 of an rz gate run
op by op, never split off.  It shares with the package only the key
source, the transcript, the server's tag table, the digitizer and digit
plans, and the statevec kernels, so the package's session, which keeps
the slots off its register, is pinned against it.

``run_pinned`` runs the package's own engine from |0...0> with some pad
labels pinned: the whole-circuit replay that the audit's replays must
match bit for bit.  Both results carry every round the run made
(``rounds``).
"""

from typing import NamedTuple

import numpy as np

from blindqc import paulis, protocol
from blindqc import statevec as sv
from blindqc.angles import digitize, precision_bits
from blindqc.protocol import digit_block_plan, plan_round
from blindqc.session import GateMarker, KeySource, Round, Transcript
import oracles


class RegisterSession:
    """A register of working wires and slots, a key source and a transcript;
    every op is a kernel on the register."""

    def __init__(self, n_qubits, seed, *, epsilon=None, overrides=None):
        self.n_qubits = n_qubits
        self.amps = np.zeros(2**n_qubits, dtype=complex)
        self.amps[0] = 1.0
        self.keys = KeySource(seed, overrides)
        self.transcript = Transcript(seed=int(seed), epsilon=epsilon,
                                     n_qubits=n_qubits)
        self.rounds = []  # every Round, as the audit reads them

    def client_apply(self, ops):
        for op in ops:
            sv._apply_op(self.amps, op)
            self.transcript.client_op_kinds.append(op.kind.value)

    def client_measure(self, wire, label):
        outcome = sv._measure(self.amps, wire, self.keys.measure_u(label))
        self.transcript.client_op_kinds.append("measure")
        return outcome

    def pad(self, pad_labels):
        pairs = [self.keys.pad_pair(label) for _, label in pad_labels]
        self.client_apply(paulis.pad_ops(pairs, [w for w, _ in pad_labels]))
        return pairs

    def round_trip(self, transmitted, tag, server_ops, pad_labels=()):
        keep = tuple(sorted(transmitted))
        sent = oracles.reduced_density(self.amps, keep)
        for op in server_ops:
            sv._apply_op(self.amps, op)
            self.transcript.server_op_kinds.append(op.kind.value)
        received = oracles.reduced_density(self.amps, keep)
        self.transcript.record(tuple(transmitted), ((tag, tuple(pad_labels)),),
                               np.array((sent, received)))
        self.rounds.append(Round(tag, tuple(transmitted), sent, received,
                                 tuple(pad_labels)))

    def ladder(self, transit, q, blocks, server):
        """Digit blocks m >= 2 op by op: pad, round trip, unpad, swap."""
        for plan, labels in blocks:
            if plan.initial_swap:
                self.client_apply([sv.swap(transit, q)])
            for r in plan.rounds:
                self.client_apply(paulis.pad_ops((r.pair,), (transit,)))
                tag = server.round_tags[r.index - 1]
                self.round_trip((transit,), tag, server.ops_for(tag),
                                pad_labels=((transit, labels[r.index - 1]),))
                self.client_apply(paulis.unpad_ops(
                    ((r.pair[0], r.unpad_z),), (transit,)))
                if r.swap_after:
                    self.client_apply([sv.swap(transit, q)])

    def mark_gate(self, gate_index, kind, round_start):
        self.transcript.markers.append(GateMarker(
            gate_index, kind, round_start, self.transcript.round_trips()))
        self.transcript.hash_register(self.amps)


class ReferenceResult(NamedTuple):
    state: sv.Statevector  # working wires and slots
    working_state: sv.Statevector
    transcript: Transcript
    digits: dict
    outcomes: dict
    rounds: list


class PinnedRun(NamedTuple):
    working_state: sv.Statevector
    transcript: Transcript
    digits: dict
    outcomes: dict
    rounds: list


class RegisterRun:
    """One run of a lowered circuit with the slots on the register."""

    def __init__(self, circuit, epsilon, seed, overrides=None,
                 extractor="floor"):
        self.circuit = circuit
        self.n = circuit.n_qubits
        self.n_digits = precision_bits(epsilon)
        self.slots = tuple(range(self.n, self.n + protocol.N_SLOTS))
        self.extractor = extractor
        self.session = RegisterSession(self.n + protocol.N_SLOTS, seed,
                                       epsilon=epsilon, overrides=overrides)
        self.server = protocol.BlindServer(self.n, self.n_digits)
        self.digits, self.outcomes = {}, {}

    def _reset_slots(self, gate_index):
        for i, slot in enumerate(self.slots, start=1):
            if self.session.client_measure(slot,
                                           f"gate{gate_index}:reset:slot{i}"):
                self.session.client_apply([sv.x(slot)])

    def _delegate(self, gate_index, op):
        sess = self.session
        digits = ()
        if op.kind is sv.Gate.RZ:
            q, transit = op.qubits[0], self.slots[3]
            d = self.digits[gate_index] = digitize(op.angle, self.n_digits,
                                                   self.extractor)
            if d.parity:
                sess.client_apply([sv.z(q)])
            digits = [(abs(value), int(value < 0)) for value in d.digits]
            swaps = [sv.swap(transit, q)] * digits[0][0]
            padded, tag = self.slots[:3], protocol.OPENING_TAG
        else:
            slots = self.slots[:1] if op.kind is sv.Gate.H else self.slots[1:3]
            swaps = [sv.swap(q, slot) for q, slot in zip(op.qubits, slots)]
            padded, tag = self.slots, protocol.BLOCK_TAG
        sess.client_apply(swaps)
        pad_labels = tuple((slot, f"gate{gate_index}:slot{i}")
                           for i, slot in enumerate(padded, start=1))
        if digits:
            pad_labels += ((transit, f"gate{gate_index}:m1:k1"),)
        pairs = sess.pad(pad_labels)
        sess.round_trip(self.slots, tag, self.server.ops_for(tag),
                        pad_labels=pad_labels)
        if digits:
            r = plan_round(1, pairs.pop(), *digits[0], 1)
            sess.client_apply(paulis.unpad_ops(((r.pair[0], r.unpad_z),),
                                               (transit,)))
        upd = paulis.key_update_circuit([sv.h(0), sv.cz(1, 2)],
                                        paulis.PauliKey(tuple(pairs)))
        sess.client_apply(paulis.unpad_ops(upd.new_key.pairs,
                                           qubits=self.slots[:len(pairs)]))
        sess.client_apply(swaps)
        if len(digits) > 1:
            blocks = [([f"gate{gate_index}:m{m}:k{k}"
                        for k in range(1, m + 1)], digit)
                      for m, digit in enumerate(digits[1:], start=2)]
            sess.ladder(transit, q, [
                (digit_block_plan(*digit, [sess.keys.pad_pair(lbl)
                                           for lbl in labels]), labels)
                for labels, digit in blocks], self.server)
        self._reset_slots(gate_index)

    def run(self) -> ReferenceResult:
        sess = self.session
        for j, op in enumerate(self.circuit.ops):
            start = sess.transcript.round_trips()
            if op.kind is sv.Gate.MEASURE:
                wire = op.qubits[0]
                self.outcomes[j] = sess.client_measure(
                    wire, f"gate{j}:measure:q{wire}")
            else:
                self._delegate(j, op)
            sess.mark_gate(j, op.kind.value, start)
        state = sv.Statevector(sess.n_qubits, sess.amps.copy())
        working = state
        for slot in reversed(self.slots):
            working = oracles.drop_qubit(working, slot, 0)
        sess.transcript.hash_register(sess.amps)
        sess.transcript.complete = True
        return ReferenceResult(state, working, sess.transcript, self.digits,
                               self.outcomes, sess.rounds)


def run_reference(circuit, epsilon, seed, overrides=None, *,
                  extractor="floor") -> ReferenceResult:
    """The slot-ful reference run, with the pad labels in ``overrides``
    pinned."""
    return RegisterRun(circuit, epsilon, seed, overrides, extractor).run()


def run_pinned(circuit, epsilon, seed, overrides=None, *, extractor="floor"):
    """``protocol.run_protocol`` with the pad labels in ``overrides`` pinned:
    a whole-circuit replay from |0...0>, with every ``Round`` its check
    receives."""
    session = protocol._open_session(circuit, epsilon, seed)
    session.keys = KeySource(seed, overrides)
    rounds = []
    res = protocol._Run(circuit, epsilon, session, extractor,
                        lambda run, first, checked: rounds.extend(
                            rnd for rnd, _, _ in checked)).run()
    return PinnedRun(res.working_state, res.transcript, res.digits,
                     res.outcomes, rounds)
