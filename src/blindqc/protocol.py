"""End-to-end delegated execution of lowered circuits.

The register holds the n working wires plus four block slots.  Every
delegated gate opens with the same server action, one uniform block
J = H(slot 1) . CZ(slot 2, slot 3) . Rz(slot 4), applied to freshly
padded slot qubits:

* h gate: the working qubit rides slot 1; slots 2-4 are dummies.
* cz gate: the working pair rides slots 2 and 3 (first operand in
  slot 2); slots 1 and 4 are dummies.
* rz gate: slots 1-3 are dummies and slot 4 becomes the transit wire
  for the digit blocks; the first round (m=1, k=1) rides the block
  round and the remaining rounds send the transit wire alone.

Slot pads are one-time keys drawn per (gate, slot) or (gate, round)
label, so the quantum payload of every round's outbound half is exactly
maximally mixed to the server.  After each gate the client decrypts the
slots through the composed key update, measures them back to |0>, and
the slots are ready for the next gate.  Measurements in the circuit are
performed locally by the client and never delegated.

An rz gate runs one digit block per precision level m = 1..M.  In block
m the server only rotates the transit wire by the fixed ladder pi/2^k,
k = m..1.  The client keeps the working qubit on its own wire and swaps
it into transit under a key-conditioned schedule (``digit_block_plan``),
so for the block's digit (nonzero flag s, sign flag q) and fresh pads
(a_k, b_k) the working qubit turns by exactly Rz((-1)^q * s * pi/2^m) up
to a global phase.  The swap exponents are the ones that survive
exhaustive numerical validation; they differ from a naive transcription
of the published schedule in three places (the parked-wire condition is
a_k == q rather than a_k != q, the carry product runs over rounds already
executed, i.e. i > k, and the final round's unpad needs an extra Z when
the digit is negative).  ``tests/test_rzprotocol.py`` pins all three.

Blocks m >= 2 touch only the working wire and transit, so the engine
splits that pair off the register at block 2, runs the ladder on its 4x4
reduced density (``statevec.WirePair``) and applies the ladder's net op
to the register once, after block M.  That is exact, product state or
not: unitaries on two wires act on their reduced density by conjugation,
and the other wires see no gate until the pair is joined back.  A block's
pads are all drawn at its start, so each block m >= 2 goes to the
session as one step (``Session.ladder_block``), which takes every
round's rotation from ``BlindServer.ops_for`` and records the block's
rounds at once.
"""

from __future__ import annotations

import bisect
import copy
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import paulis
from . import statevec as sv
from .angles import AngleDigits, digitize, precision_bits
from .circuits import Circuit
from .lowering import first_undelegable
from .session import ForkDone, ProtocolError, Round, Session, Transcript
from .statevec import Gate, GateOp

PI = math.pi
N_SLOTS = 4

# The server's whole classical vocabulary, spelled as the canonical JSON
# (sorted keys, no spaces) that crosses the channel.
BLOCK_TAG = '{"kind":"block"}'
OPENING_TAG = '{"k":1,"kind":"block"}'


def round_tag(k: int) -> str:
    """Tag of the single-wire round that rotates transit by pi/2^k."""
    return f'{{"k":{k},"kind":"round"}}'


class RoundPlan(NamedTuple):
    """Client actions around one server rotation Rz(pi/2^index) on transit."""

    index: int
    pair: tuple[int, int]
    unpad_z: int
    swap_after: int


class BlockPlan(NamedTuple):
    nonzero: int
    negative: int
    initial_swap: int
    rounds: tuple[RoundPlan, ...]


def digit_block_plan(nonzero: int, negative: int, pairs) -> BlockPlan:
    """Full client plan for delegating one digit; ``pairs[k-1]`` pads round k.

    Rounds run k = m..1.  The working qubit must sit in transit for round k
    exactly when every later-executed pad bit disagreed with the sign flag
    (carry = 1); it parks for good on the first agreement.  The final
    round's swap returns it to the parked wire when it is still in transit,
    and its unpad folds in the base-case correction.
    """
    if nonzero not in (0, 1) or negative not in (0, 1):
        raise ValueError("digit flags must be bits")
    if nonzero == 0 and negative == 1:
        raise ValueError("a zero digit cannot be negative")
    s, q = nonzero, negative
    rounds = []
    carry = 1  # prod over i in (k, m] of (a_i xor q); empty product is 1
    for k in range(len(pairs), 1, -1):
        a, b = pairs[k - 1]
        rounds.append(RoundPlan(k, (a, b), b, s * int(a == q) * carry))
        carry *= a ^ q
    a, b = pairs[0]
    rounds.append(RoundPlan(1, (a, b), b ^ a ^ q, s * carry))
    return BlockPlan(s, q, s, tuple(rounds))


class UnsupportedGateError(ProtocolError):
    """Circuit contains a gate outside {h, cz, rz, measure}."""


class RegisterCapacityError(ProtocolError):
    """Working register plus block slots exceeds the simulator cap."""


class BlindServer:
    """The fixed tag dispatch; these are the only gates the server runs.

    A tag is the canonical string that crossed the channel: ``BLOCK_TAG``,
    ``OPENING_TAG`` or ``round_tag(k)`` for k = 1..n_digits.  The server
    builds its whole tag -> ops table once, so ``ops_for`` hands out the
    same tuple of frozen ops for a tag on every call.  Any other string, a
    different spelling of a valid tag included, is refused.
    """

    def __init__(self, n_working: int, n_digits: int):
        self.slot_wires = s1, s2, s3, s4 = tuple(
            range(n_working, n_working + N_SLOTS))
        self.n_digits = n_digits
        # round_tags[k - 1] is round_tag(k)
        self.round_tags = tuple(round_tag(k) for k in range(1, n_digits + 1))
        self._ops = {tag: (sv.rz(PI / 2**k, s4),)
                     for k, tag in enumerate(self.round_tags, start=1)}
        block = (sv.h(s1), sv.cz(s2, s3))
        # one-shot rotation covering the whole ladder budget
        self._ops[BLOCK_TAG] = block + (sv.rz(PI - PI / 2**n_digits, s4),)
        self._ops[OPENING_TAG] = block + (sv.rz(PI / 2, s4),)

    def ops_for(self, tag: str) -> tuple[GateOp, ...]:
        try:
            return self._ops[tag]
        except KeyError:
            raise ProtocolError(f"server cannot satisfy tag {tag!r}") from None


@dataclass(frozen=True)
class ProtocolResult:
    state: sv.Statevector
    working_state: sv.Statevector
    transcript: Transcript
    digits: dict[int, AngleDigits] = field(default_factory=dict)
    outcomes: dict[int, int] = field(default_factory=dict)


class _Checkpoint(NamedTuple):
    """The state where a gate, or a digit block of an rz gate, draws pads."""

    gate_index: int
    block: int  # digit block the gate resumes at; 1 for h and cz
    n_rounds: int  # rounds recorded before the draw
    amps: np.ndarray  # blocks m >= 3 share block 2's register
    wire_pair: sv.WirePair | None  # a copy, in blocks m >= 3


def _open_session(circuit: Circuit, epsilon: float, seed: int,
                  disable_pads: bool = False) -> Session:
    bad = first_undelegable(circuit)
    if bad is not None:
        raise UnsupportedGateError(
            f"'{bad.kind.value}' is not delegable; lower the circuit first"
        )
    n = circuit.n_qubits
    if n + N_SLOTS > sv.MAX_QUBITS:
        raise RegisterCapacityError(
            f"{n} working qubits need {n + N_SLOTS} wires; "
            f"the cap is {sv.MAX_QUBITS}"
        )
    return Session(n + N_SLOTS, seed, epsilon=epsilon,
                   disable_pads=disable_pads)


class _Run:
    def __init__(self, circuit: Circuit, epsilon: float, session: Session,
                 extractor: str = "floor", checkpoints: list | None = None):
        self.circuit = circuit
        self.n = circuit.n_qubits
        self.n_digits = precision_bits(epsilon)
        self.slots = tuple(range(self.n, self.n + N_SLOTS))
        self.extractor = extractor
        self.session = session
        self.server = BlindServer(self.n, self.n_digits)
        self.checkpoints = checkpoints
        self.digits: dict[int, AngleDigits] = {}
        self.outcomes: dict[int, int] = {}

    def on(self, session: Session) -> "_Run":
        """This run's circuit, slots and server, driving ``session``."""
        run = copy.copy(self)
        run.session, run.checkpoints = session, None
        run.digits, run.outcomes = {}, {}
        return run

    # -- slot plumbing ----------------------------------------------------

    def _dummy_slot_key(self, gate_index: int, slots):
        labels = [f"gate{gate_index}:slot{self.slots.index(s) + 1}"
                  for s in slots]
        key = paulis.PauliKey(tuple(
            self.session.keys.pad_pair(lbl) for lbl in labels
        ))
        return key, labels

    def _reset_slots(self, gate_index: int) -> None:
        # wipe whatever the block left behind; slots come back as |0>
        for i, slot in enumerate(self.slots, start=1):
            out = self.session.client_measure(
                slot, f"gate{gate_index}:reset:slot{i}"
            )
            if out:
                self.session.client_apply([sv.x(slot)])

    # -- gate delegation --------------------------------------------------

    def _draw_point(self, gate_index: int, block: int) -> None:
        if self.checkpoints is not None:
            sess = self.session
            # a split pair leaves the register as the last checkpoint saved it
            amps = (sess.amps.copy() if sess.wire_pair is None
                    else self.checkpoints[-1].amps)
            self.checkpoints.append(_Checkpoint(
                gate_index, block, len(sess.transcript.rounds), amps,
                copy.copy(sess.wire_pair),
            ))

    def _block_trip(self, gate_index: int, padded, tag: str,
                    carried: tuple[RoundPlan, str] | None = None) -> None:
        """Send the uniform block with the ``padded`` slots under their gate
        pads, then decrypt them through the block's key update.  ``carried``
        is (round plan, label) when a digit round rides the transit slot."""
        sess = self.session
        transit = self.slots[3]
        key, labels = self._dummy_slot_key(gate_index, padded)
        pad_labels = tuple(zip(padded, labels))
        sess.client_apply(paulis.pad_ops(key.pairs, qubits=padded))
        if carried:
            r, label = carried
            sess.client_apply(paulis.pad_ops((r.pair,), (transit,)))
            pad_labels += ((transit, label),)
        sess.round_trip(self.slots, tag, self.server.ops_for(tag),
                        pad_labels=pad_labels)
        if carried:
            sess.client_apply(
                paulis.unpad_ops(((r.pair[0], r.unpad_z),), (transit,)))
        upd = paulis.key_update_circuit([sv.h(0), sv.cz(1, 2)], key)
        sess.client_apply(paulis.unpad_ops(upd.new_key.pairs, qubits=padded))

    def _delegate_rz(self, gate_index: int, op: GateOp,
                     first_block: int = 1) -> None:
        sess = self.session
        q = op.qubits[0]
        transit = self.slots[3]
        d = digitize(op.angle, self.n_digits, self.extractor)
        self.digits[gate_index] = d
        for m in range(first_block, self.n_digits + 1):
            self._draw_point(gate_index, m)
            if m == 1 and d.parity:
                sess.client_apply([sv.z(q)])
            if m == 2:
                # later blocks touch only q and transit
                sess.split_pair(q, transit)
            labels = [f"gate{gate_index}:m{m}:k{k}" for k in range(1, m + 1)]
            plan = digit_block_plan(
                d.nonzero_flags[m - 1], d.negative_flags[m - 1],
                tuple(sess.keys.pad_pair(label) for label in labels),
            )
            if m > 1:
                sess.ladder_block(transit, plan, labels, self.server)
            else:
                # the one round of block 1 rides the uniform block round
                (r,) = plan.rounds
                if plan.initial_swap:
                    sess.client_apply([sv.swap(transit, q)])
                self._block_trip(gate_index, self.slots[:3], OPENING_TAG,
                                 (r, labels[0]))
                if r.swap_after:
                    sess.client_apply([sv.swap(transit, q)])
        if sess.wire_pair is not None:
            sess.join_pair()
        self._reset_slots(gate_index)

    def _delegate(self, gate_index: int, op: GateOp, block: int = 1) -> None:
        """Delegate one h, cz or rz gate; an rz gate starts at digit ``block``."""
        if op.kind is Gate.RZ:
            self._delegate_rz(gate_index, op, block)
            return
        # h rides slot 1, cz slots 2 and 3
        slots = self.slots[:1] if op.kind is Gate.H else self.slots[1:3]
        swaps = [sv.swap(q, slot) for q, slot in zip(op.qubits, slots)]
        self._draw_point(gate_index, 1)
        self.session.client_apply(swaps)
        self._block_trip(gate_index, self.slots, BLOCK_TAG)
        self.session.client_apply(swaps)
        self._reset_slots(gate_index)

    # -- driver -----------------------------------------------------------

    def run(self) -> ProtocolResult:
        for j, op in enumerate(self.circuit.ops):
            start = len(self.session.transcript.rounds)
            if op.kind is Gate.MEASURE:
                wire = op.qubits[0]
                self.outcomes[j] = self.session.client_measure(
                    wire, f"gate{j}:measure:q{wire}"
                )
            else:
                self._delegate(j, op)
            self.session.mark_gate(j, op.kind.value, start)
        state = self.session.state()
        working = state
        for slot in reversed(self.slots):
            working = sv.drop_qubit(working, slot, 0)
        return ProtocolResult(state, working, self.session.finish(),
                              self.digits, self.outcomes)


def run_protocol(circuit: Circuit, epsilon: float, seed: int, *,
                 extractor: str = "floor",
                 disable_pads: bool = False) -> ProtocolResult:
    """Run a lowered circuit through the delegation protocol.

    The server starts from |0...0>; state preparation belongs to the
    circuit.  ``disable_pads`` turns every pad off (the audit's negative
    control) and does not affect the working-register result.
    """
    session = _open_session(circuit, epsilon, seed, disable_pads)
    return _Run(circuit, epsilon, session, extractor).run()


class CheckpointedRun:
    """A seeded run that keeps its state wherever it draws pads, so one pad
    label can be replayed from its draw point instead of from |0...0>.

    Draw points are the start of each h or cz gate (before the slot swaps),
    the start of each rz gate (before the parity Z: digit block 1 draws its
    dummies and its round pad there) and the start of each later digit
    block.  Blocks m >= 3 keep a copy of the split wire pair and share the
    register copy of block 2, so an rz gate keeps at most two.  A label's
    pair changes nothing before its own pad is applied: rounds m..k+1 of a
    digit block read neither the pad of round k nor its swap bit.  So a
    fork resumed at the draw point with the label pinned runs the same
    delegation code on the same state as a whole-circuit replay, bit for
    bit, and can stop once it has recorded the round the label protects.
    """

    def __init__(self, circuit: Circuit, epsilon: float, seed: int):
        self._session = _open_session(circuit, epsilon, seed)
        self._checkpoints: list[_Checkpoint] = []
        self._run = _Run(circuit, epsilon, self._session,
                         checkpoints=self._checkpoints)
        self.result = self._run.run()
        self._starts = [cp.n_rounds for cp in self._checkpoints]

    def replay(self, index: int, label: str, pair) -> list[Round]:
        """Rounds of this run with ``label`` pinned to ``pair``, up to and
        including round ``index``, which ``label`` must pad."""
        pads = self.result.transcript.rounds[index].pad_labels
        if label not in [lbl for _, lbl in pads]:
            raise ValueError(f"'{label}' does not pad round {index}")
        cp = self._checkpoints[bisect.bisect_right(self._starts, index) - 1]
        fork = self._session.fork(cp.amps, cp.n_rounds, label, pair,
                                  stop=index + 1, wire_pair=cp.wire_pair)
        try:
            # every fork reuses the baseline's server and its tag table
            self._run.on(fork)._delegate(
                cp.gate_index, self._run.circuit.ops[cp.gate_index], cp.block)
        except ForkDone:
            pass
        return fork.transcript.rounds
