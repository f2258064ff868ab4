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
and the other wires see no gate until the pair is joined back.  The
client draws the pads of blocks 2..M and plans them up front, so the
whole ladder goes to the session as one step (``Session.ladder``), which
takes each tag's rotation from ``BlindServer.ops_for`` once and records
every round at once; a ``CheckpointedRun`` takes the same step and walks
its folds on a copy of the pair for its per-round checkpoints.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import paulis
from . import statevec as sv
from .angles import AngleDigits, digitize, precision_bits
from .circuits import Circuit
from .lowering import first_undelegable
from .session import ProtocolError, Round, Session, Transcript
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
    carry: int


class BlockPlan(NamedTuple):
    nonzero: int
    negative: int
    initial_swap: int
    rounds: tuple[RoundPlan, ...]


def plan_round(k: int, pair, nonzero: int, negative: int,
               carry: int) -> RoundPlan:
    """Round k of a digit block padded by ``pair``; ``carry`` is the
    product of (a_i xor q) over the rounds i > k the block ran before it."""
    a, b = pair
    if k == 1:
        return RoundPlan(1, (a, b), b ^ a ^ negative, nonzero * carry, carry)
    return RoundPlan(k, (a, b), b, nonzero * (a == negative) * carry, carry)


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
    rounds = []
    carry = 1  # prod over i in (k, m] of (a_i xor q); empty product is 1
    for k in range(len(pairs), 0, -1):
        rounds.append(plan_round(k, pairs[k - 1], nonzero, negative, carry))
        carry *= pairs[k - 1][0] ^ negative
    return BlockPlan(nonzero, negative, nonzero, tuple(rounds))


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
        s1, s2, s3, s4 = range(n_working, n_working + N_SLOTS)
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
    """The state one round starts from, and the round as a step."""

    state: np.ndarray | sv.WirePair  # a copy: the register, or the split pair
    step: functools.partial  # an unbound ``_Run`` method: step(run, session)


def _open_session(circuit: Circuit, epsilon: float, seed: int) -> Session:
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
    return Session(n + N_SLOTS, seed, epsilon=epsilon)


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

    # -- slot plumbing ----------------------------------------------------

    def _reset_slots(self, gate_index: int) -> None:
        # wipe whatever the block left behind; slots come back as |0>
        for i, slot in enumerate(self.slots, start=1):
            out = self.session.client_measure(
                slot, f"gate{gate_index}:reset:slot{i}"
            )
            if out:
                self.session.client_apply([sv.x(slot)])

    # -- rounds: each runs on the session it is given ----------------------

    def _block_trip(self, sess: Session, pad_labels, tag: str) -> list:
        """Pad each (wire, label) in ``pad_labels`` and send the uniform
        block with ``tag``: the step ends at the send, with the pairs."""
        pairs = sess.pad(pad_labels)
        sess.round_trip(self.slots, tag, self.server.ops_for(tag),
                        pad_labels=pad_labels)
        return pairs

    def _unpad_block(self, pairs, digit: tuple[int, int] | None) -> None:
        """Decrypt after ``_block_trip`` under the ``pairs`` it drew:
        transit when ``digit`` (nonzero, negative) rode it, then the padded
        slots through the block's key update."""
        sess = self.session
        if digit:
            r = plan_round(1, pairs.pop(), *digit, 1)
            sess.client_apply(
                paulis.unpad_ops(((r.pair[0], r.unpad_z),), (self.slots[3],)))
        upd = paulis.key_update_circuit([sv.h(0), sv.cz(1, 2)],
                                        paulis.PauliKey(tuple(pairs)))
        sess.client_apply(paulis.unpad_ops(upd.new_key.pairs,
                                           qubits=self.slots[:len(pairs)]))

    def _ladder_round(self, sess: Session, plan: BlockPlan,
                      labels: list[str], r: RoundPlan) -> None:
        """Round ``r`` of the baseline's digit block ``plan``, padded by
        ``labels``, on the split pair: only this round is planned again,
        under the pad ``sess`` draws for its label and the baseline's
        carry.  A block's first round opens with the initial swap."""
        one = BlockPlan(
            plan.nonzero, plan.negative,
            plan.initial_swap * (r.index == len(labels)),
            (plan_round(r.index, sess.keys.pad_pair(labels[r.index - 1]),
                        plan.nonzero, plan.negative, r.carry),))
        sess.ladder(self.slots[3], ((one, labels),), self.server)

    # -- gate delegation --------------------------------------------------

    def _delegate(self, gate_index: int, op: GateOp) -> None:
        """Delegate one h, cz or rz gate: the uniform block round between
        the client's two slot swaps, then an rz gate's later digit blocks."""
        sess = self.session
        digits = ()
        if op.kind is Gate.RZ:
            q, transit = op.qubits[0], self.slots[3]
            d = self.digits[gate_index] = digitize(op.angle, self.n_digits,
                                                   self.extractor)
            if d.parity:
                sess.client_apply([sv.z(q)])
            digits = [(abs(value), int(value < 0)) for value in d.digits]
            # the one round of digit block 1 rides the block round on the
            # transit slot, between the plan's two swaps
            swaps = [sv.swap(transit, q)] * digits[0][0]
            padded, tag = self.slots[:3], OPENING_TAG
        else:
            # h rides slot 1, cz slots 2 and 3
            slots = self.slots[:1] if op.kind is Gate.H else self.slots[1:3]
            swaps = [sv.swap(q, slot) for q, slot in zip(op.qubits, slots)]
            padded, tag = self.slots, BLOCK_TAG
        sess.client_apply(swaps)
        pad_labels = tuple((slot, f"gate{gate_index}:slot{i}")
                           for i, slot in enumerate(padded, start=1))
        if digits:
            pad_labels += ((transit, f"gate{gate_index}:m1:k1"),)
        step = functools.partial(_Run._block_trip, pad_labels=pad_labels,
                                 tag=tag)
        if self.checkpoints is not None:
            self.checkpoints.append(_Checkpoint(sess.amps.copy(), step))
        self._unpad_block(step(self, sess), digits[0] if digits else None)
        sess.client_apply(swaps)
        if len(digits) > 1:
            # later blocks touch only q and transit
            sess.split_pair(q, transit)
            blocks = [([f"gate{gate_index}:m{m}:k{k}"
                        for k in range(1, m + 1)], digit)
                      for m, digit in enumerate(digits[1:], start=2)]
            plans = [(digit_block_plan(*digit, [sess.keys.pad_pair(lbl)
                                                for lbl in labels]), labels)
                     for labels, digit in blocks]
            pair = None if self.checkpoints is None else sess.wire_pair.copy()
            folds = sess.ladder(transit, plans, self.server)
            if pair is not None:
                # the pair before each round, from the ladder's own folds
                folds = iter(folds)
                for plan, labels in plans:
                    for r in plan.rounds:
                        self.checkpoints.append(_Checkpoint(
                            pair.copy(), functools.partial(
                                _Run._ladder_round, plan=plan,
                                labels=labels, r=r)))
                        pair.run_block(transit, [next(folds)])
            sess.join_pair()
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
                 extractor: str = "floor") -> ProtocolResult:
    """Run a lowered circuit through the delegation protocol.

    The server starts from |0...0>; state preparation belongs to the
    circuit.  Every pad is drawn from ``seed``.
    """
    session = _open_session(circuit, epsilon, seed)
    return _Run(circuit, epsilon, session, extractor).run()


class CheckpointedRun:
    """A seeded run that keeps a checkpoint before every round, so one pad
    label can be replayed by re-running the one round it pads.

    The run is the one ``run_protocol`` makes.  A checkpoint holds the
    state just before its round draws its pads and the round itself as a
    step: the block round of an h or cz gate (after the slot swaps), the
    opening round of an rz gate (digit block 1, after the parity Z and the
    plan's first swap), or one round of a later digit block.  A block
    round keeps a register copy; its step ends at its round trip, and the
    run decrypts the slots after it returns.  A ladder stays one
    ``Session.ladder`` step; the run walks the folds it returns, one
    ``run_block`` call each (the same bytes), on a copy of the split pair,
    the one state a ladder round touches, and saves the copy before each
    round.  A ladder round's step holds the baseline's plans, so a replay
    re-plans only its round, with the baseline's carry.  A label's pair
    changes nothing before its own round, and the carry is a product over
    the block's earlier rounds' pads, so a replay records the round a
    whole-circuit replay with the label pinned records, bit for bit.  All
    of a label's pairs replay on one fork (``replay``), which draws its
    own pads, the same pairs the baseline drew.
    """

    def __init__(self, circuit: Circuit, epsilon: float, seed: int):
        self._session = _open_session(circuit, epsilon, seed)
        self.keys = self._session.keys
        self._checkpoints: list[_Checkpoint] = []
        self._run = _Run(circuit, epsilon, self._session,
                         checkpoints=self._checkpoints)
        self.result = self._run.run()

    def replay(self, index: int, label: str, pairs) -> list[Round]:
        """Round ``index`` of this run with ``label``, which must pad it,
        pinned to each pair in ``pairs`` in turn: one round per pair.

        All the pairs run on one fork, one at a time, block and ladder
        rounds alike: the fork takes the key source with ``label`` pinned
        to the pair and a fresh copy of the checkpoint's state (a register
        copy, or the split pair), and runs the checkpoint's step.
        """
        pads = self.result.transcript.rounds[index].pad_labels
        if label not in [lbl for _, lbl in pads]:
            raise ValueError(f"'{label}' does not pad round {index}")
        if not pairs:
            raise ValueError("a replay needs at least one pair")
        state, step = self._checkpoints[index]
        split = isinstance(state, sv.WirePair)
        fork = self._session.fork()
        for pair in pairs:
            fork.keys = self.keys.pinned(label, pair)
            copy = state.copy()
            fork.amps, fork.wire_pair = (None, copy) if split else (copy, None)
            step(self._run, fork)
        # a new list: what a caller adds to it stays off the fork's record
        return list(fork.transcript.rounds)
