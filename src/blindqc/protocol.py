"""End-to-end delegated execution of lowered circuits.

The register holds the n working wires, and four block slots n..n+3
above them hold dummies or ride working wires (``Session``).  Every
delegated gate opens with the same server action, one uniform block
J = H(slot 1) . CZ(slot 2, slot 3) . Rz(slot 4), on freshly padded slots:

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
splits that pair off at block 2, runs the ladder on its 4x4 density
rho_q (x) |0><0| (``statevec.WirePair``) and applies the ladder's net op,
which leaves transit in |0>, to the working wire once, after block M.
That is exact: unitaries on two wires act on their reduced density by
conjugation, and the other wires see no gate until the pair is joined
back.  The client draws and plans the pads of whole blocks, at least
``LADDER_ROUNDS`` rounds at a time, and each such chunk goes to the
session as one step (``Session.ladder``).  The run records each step's
rounds at once, keeping their tags and wires; an audit's check
(``checked_run``) gets them with the state each started from, to re-run
any under pinned pads (``replay``).
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
from .session import (N_SLOTS, KeySource, ProtocolError, Round, Session,
                      Transcript)
from .statevec import Gate, GateOp

PI = math.pi
# an rz gate's digit blocks 2..M go to ``Session.ladder`` in runs of whole
# blocks of at least this many rounds, so what one step holds stays bounded
LADDER_ROUNDS = 1000

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
    working_state: sv.Statevector
    transcript: Transcript
    digits: dict[int, AngleDigits] = field(default_factory=dict)
    outcomes: dict[int, int] = field(default_factory=dict)


@functools.lru_cache(maxsize=1024)
def _block_unpad(pairs, slots) -> list[GateOp]:
    """The unpad of ``slots`` padded by ``pairs`` after the uniform block."""
    upd = paulis.key_update_circuit((sv.h(0), sv.cz(1, 2)),
                                    paulis.PauliKey(pairs))
    return paulis.unpad_ops(upd.new_key.pairs, slots[:len(pairs)])


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
    return Session(n, seed, epsilon=epsilon)


class _Run:
    def __init__(self, circuit: Circuit, epsilon: float, session: Session,
                 extractor: str = "floor", check=None):
        self.circuit = circuit
        self.n = circuit.n_qubits
        self.n_digits = precision_bits(epsilon)
        self.slots = tuple(range(self.n, self.n + N_SLOTS))
        self.extractor = extractor
        self.session = session
        self.server = BlindServer(self.n, self.n_digits)
        self.check = check
        self.digits: dict[int, AngleDigits] = {}
        self.outcomes: dict[int, int] = {}

    # -- slot plumbing ----------------------------------------------------

    def _reset_slots(self, gate_index: int) -> None:
        # wipe whatever the block left behind; slots come back as |0>
        for i, slot in enumerate(self.slots, start=1):
            if self.session.client_measure(slot,
                                           f"gate{gate_index}:reset:slot{i}"):
                self.session.client_apply([sv.x(slot)])

    def _record(self, transmitted, tags, densities, starts) -> None:
        """Record one step's rounds, (tag, pad_labels) each in ``tags``, and
        hand them to the check with their (state, step) in ``starts``."""
        first = self.session.transcript.round_trips()
        self.session.transcript.record(transmitted, tags, densities)
        if self.check is not None:
            densities.setflags(write=False)
            views = iter(densities)
            self.check(self, first, [
                (Round(tag, transmitted, sent, received, labels), *start)
                for (tag, labels), sent, received, start
                in zip(tags, views, views, starts)])

    # -- rounds as steps: each runs on the session given, densities first

    def _block_trip(self, sess: Session, swaps, pad_labels, tag: str):
        """Swap wires into slots, pad each (wire, label) in ``pad_labels``
        and send the uniform block with ``tag``: it ends at the reply, and
        the run applies the server's gates after it.  Returns the round's
        densities and the pairs drawn."""
        sess.client_apply(swaps)
        pairs = sess.pad(pad_labels)
        return sess.round_trip(self.slots, self.server.ops_for(tag)), pairs

    def _ladder_round(self, sess: Session, plan: BlockPlan,
                      labels: list[str], r: RoundPlan):
        """Round ``r`` of the baseline's digit block ``plan``, padded by
        ``labels``, on the split pair: only this round is planned again,
        under the pad ``sess`` draws for its label and the baseline's
        carry.  A block's first round opens with the initial swap."""
        one = BlockPlan(
            plan.nonzero, plan.negative,
            plan.initial_swap * (r.index == len(labels)),
            (plan_round(r.index, sess.keys.pad_pair(labels[r.index - 1]),
                        plan.nonzero, plan.negative, r.carry),))
        return sess.ladder(self.slots[3], ((one, labels),), self.server)

    def _ladder(self, gate_index: int, q: int, digits) -> None:
        """Digit blocks 2..M on (q, transit), split off: ``Session.ladder``
        steps of whole blocks, each of at least ``LADDER_ROUNDS`` rounds but
        the last, their pads drawn and planned per step."""
        sess, transit, plans = self.session, self.slots[3], []
        sess.split_pair(q, transit)
        for m, digit in enumerate(digits[1:], start=2):
            labels = [f"gate{gate_index}:m{m}:k{k}" for k in range(1, m + 1)]
            plans.append((digit_block_plan(*digit, [sess.keys.pad_pair(lbl)
                                                    for lbl in labels]),
                          labels))
            if (m < len(digits) and sum(len(p.rounds) for p, _ in plans)
                    < LADDER_ROUNDS):
                continue
            pair = None if self.check is None else sess.wire_pair.copy()
            densities, tags, folds = sess.ladder(transit, plans, self.server)
            # the pair before each round, from the ladder's own folds
            starts, folds = [], iter(folds)
            for plan, labels in plans if pair is not None else ():
                for r in plan.rounds:
                    starts.append((pair.copy(), functools.partial(
                        _Run._ladder_round, plan=plan, labels=labels, r=r)))
                    pair.run_block(transit, [next(folds)])
            self._record((transit,), tags, densities, starts)
            plans = []
        sess.join_pair()

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
        pad_labels = tuple((slot, f"gate{gate_index}:slot{i}")
                           for i, slot in enumerate(padded, start=1))
        if digits:
            pad_labels += ((transit, f"gate{gate_index}:m1:k1"),)
        step = functools.partial(_Run._block_trip, swaps=swaps,
                                 pad_labels=pad_labels, tag=tag)
        state = None if self.check is None else sess.amps.copy()
        densities, pairs = step(self, sess)
        self._record(self.slots, [(tag, pad_labels)], densities,
                     [(state, step)])
        sess.server_apply(self.server.ops_for(tag))
        # decrypt: transit when digit 1 rode it, then the padded slots
        if digits:
            r = plan_round(1, pairs.pop(), *digits[0], 1)
            sess.client_apply(
                paulis.unpad_ops(((r.pair[0], r.unpad_z),), (transit,)))
        sess.client_apply(_block_unpad(tuple(pairs), self.slots))
        sess.client_apply(swaps)
        if len(digits) > 1:
            self._ladder(gate_index, q, digits)
        self._reset_slots(gate_index)

    # -- driver -----------------------------------------------------------

    def run(self) -> ProtocolResult:
        for j, op in enumerate(self.circuit.ops):
            start = self.session.transcript.round_trips()
            if op.kind is Gate.MEASURE:
                wire = op.qubits[0]
                self.outcomes[j] = self.session.client_measure(
                    wire, f"gate{j}:measure:q{wire}")
            else:
                self._delegate(j, op)
            self.session.mark_gate(j, op.kind.value, start)
        working = sv.Statevector(self.n, self.session.amps.copy())
        return ProtocolResult(working, self.session.finish(), self.digits,
                              self.outcomes)


def run_protocol(circuit: Circuit, epsilon: float, seed: int, *,
                 extractor: str = "floor") -> ProtocolResult:
    """Run a lowered circuit through the delegation protocol.

    The server starts from |0...0>; state preparation belongs to the
    circuit.  Every pad is drawn from ``seed``.
    """
    return checked_run(circuit, epsilon, seed, None, extractor)


def checked_run(circuit: Circuit, epsilon: float, seed: int, check,
                extractor: str = "floor") -> ProtocolResult:
    """``run_protocol``'s run, handing ``check(run, first, rounds)`` each
    step's rounds (a block round or a ladder chunk; ``first`` the index of
    the first) as it records them: per round the read-only ``Round``, its
    start state and the round as a step, for ``replay``; none is kept."""
    session = _open_session(circuit, epsilon, seed)
    return _Run(circuit, epsilon, session, extractor, check).run()


def replay(run: _Run, checked, label: str, pairs) -> list[np.ndarray]:
    """The round of ``run`` in ``checked`` (as ``run``'s check got it:
    ``Round``, state, step) with ``label``, which must pad it, pinned to
    each pair in ``pairs`` in turn: per pair, the round's (2, d, d)
    densities, sent then received.

    A block round (an h or cz gate's, or an rz gate's opening round, after
    the parity Z) starts from a register copy; its step swaps the riding
    wires in, pads and ends at its round trip.  A ladder round of digit
    block m >= 2 starts from the split pair, which the run gets by walking
    the folds of its ``Session.ladder`` chunk on a copy; its step re-plans
    only that round (``plan_round``) with the baseline's carry and runs it
    as a one-round ``Session.ladder`` step.  A label's pair changes nothing
    before its own round, so each pair's densities are those a
    whole-circuit run with the label pinned records there, bit for bit.
    All pairs run on one fork, which records nothing, with one key source
    that pins the round's other pads to the run's draws; per pair the fork
    takes a fresh copy of ``state`` and runs the step.
    """
    (rnd, state, step), keys = checked, run.session.keys
    # the round's pads as the run drew them, each drawn once
    drawn = {lbl: keys.pad_pair(lbl) for _, lbl in rnd.pad_labels}
    if label not in drawn:
        raise ValueError(f"'{label}' does not pad this round")
    if not pairs:
        raise ValueError("a replay needs at least one pair")
    fork = run.session.fork()
    # one key source, with the label pinned to each pair in turn
    fork.keys = pinned = KeySource(keys.seed, drawn)
    densities = []
    for pair in pairs:
        pinned.overrides[label] = tuple(pair)
        fork.restore(state.copy())
        densities.append(step(run, fork)[0])
    return densities
