"""Session plumbing shared by every interactive run: key material, the
client/server channel, and the replayable transcript of its round trips.

Randomness is label-addressed: ``KeySource`` reads each draw straight off
one BLAKE2b digest of ``"{seed}/{kind}/{label}"``, so the value bound to a
label never depends on draw order.  That is what lets the blindness
auditor override a single pad and re-run the protocol with every other
draw unchanged.  Such a replay need not start from scratch:
``Session.fork`` resumes a run from a saved register (and wire pair) with
one more override and stops once the replay has recorded the round it is
for.

The channel is in-process: a round trip takes the transmitted wires'
state as the client sends them, applies the server's gates to the shared
state, and takes their state again as the reply comes back.  Each round
trip is one ``Round`` record holding both reduced densities, which are
what the channel carries and all the audit reads; both feed a running
hash.  A digit block of an ``rz`` ladder runs as one step instead
(``ladder_block``): on the ``WirePair`` split off the register, its
rounds fold into the pair's net op, and ``Transcript.record_block``
records all of its rounds from one stacked array, hashed in a single
update over the same bytes.  The whole register enters the hash at
every gate boundary and at the end of the run, so the digest covers
every transmitted density of every round and every amplitude at every
gate boundary, while memory stays flat in the number of round trips.
Off-channel amplitudes between two rounds of one gate are not hashed.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import paulis
from . import statevec as sv
from .statevec import Statevector

# the transcript's name of each gate kind, read without the Enum descriptor
_KIND_NAMES = {kind: kind.value for kind in sv.Gate}
# the kinds of one wire's pad and unpad for each (x, z) pair, in the order
# paulis.pad_ops and paulis.unpad_ops apply them
_PAD_KINDS, _UNPAD_KINDS = (
    {pair: tuple(_KIND_NAMES[op.kind] for op in ops((pair,)))
     for pair in itertools.product((0, 1), repeat=2)}
    for ops in (paulis.pad_ops, paulis.unpad_ops))


class ProtocolError(Exception):
    """A tag or request outside the protocol's fixed vocabulary."""


class ForkDone(Exception):
    """A forked session has recorded every round it was forked for."""


def label_digest(seed: int, label: str, size: int) -> int:
    """The ``size``-byte BLAKE2b digest of ``"{seed}/{label}"``, read as a
    little-endian integer: the one hash recipe behind every keyed draw."""
    return int.from_bytes(
        hashlib.blake2b(f"{seed}/{label}".encode(), digest_size=size).digest(),
        "little")


class KeySource:
    """Deterministic per-label bits, overridable one label at a time.

    A pad draw is the low two bits of the one-byte digest of
    ``"{seed}/pad/{label}"``: bit 0 is the x bit and bit 1 the z bit.  A
    measurement draw is the top 53 bits of the eight-byte digest of
    ``"{seed}/u/{label}"``, scaled into [0, 1).
    """

    def __init__(self, seed: int, overrides=None, disable_pads: bool = False):
        self.seed = int(seed)
        self.overrides = {k: tuple(v) for k, v in (overrides or {}).items()}
        self.disable_pads = disable_pads

    def pad_pair(self, label: str) -> tuple[int, int]:
        """One (x_bit, z_bit) pad draw; zeroed when pads are disabled."""
        if label in self.overrides:
            return self.overrides[label]
        if self.disable_pads:
            return (0, 0)
        b = label_digest(self.seed, "pad/" + label, 1)
        return (b & 1, (b >> 1) & 1)

    def measure_u(self, label: str) -> float:
        """Uniform draw in [0, 1) for a measurement; never disabled."""
        return (label_digest(self.seed, "u/" + label, 8) >> 11) * 2.0**-53


@functools.lru_cache(maxsize=None)
def _marginal_index(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Where to read a k-wire joint density so that summing the last axis
    gives wire w's 2x2 state at [w]: rows and columns with bit w set as
    asked and the other bits equal."""
    idx = np.arange(1 << k)
    rows = np.array([[idx[(idx >> w) & 1 == v] for v in (0, 1)]
                     for w in range(k)])
    return rows[:, :, None, :], rows[:, None, :, :]


class Round(NamedTuple):
    """One round trip (an immutable record).

    ``tag`` is the classical tag exactly as it crossed the channel, a
    canonical JSON string.  ``transmitted`` lists the wires actually on the
    channel.  ``sent`` is their joint reduced state as the client sends
    them and ``received`` as the server's reply comes back, each with the
    lowest transmitted wire as the least significant bit; both are
    read-only.  ``pad_labels`` maps each transmitted wire to the key label
    protecting it on the way out (used by the mixedness audit).
    """

    tag: str
    transmitted: tuple[int, ...]
    sent: np.ndarray
    received: np.ndarray
    pad_labels: tuple[tuple[int, str], ...]

    def wire_state(self, density: np.ndarray, wire: int) -> np.ndarray:
        """2x2 reduced state of transmitted ``wire`` in ``density``, this
        round's ``sent`` or ``received``."""
        if len(self.transmitted) == 1:
            return density
        rows, cols = _marginal_index(len(self.transmitted))
        w = sorted(self.transmitted).index(wire)
        return density[rows[w], cols[w]].sum(axis=-1)


def _server_phases(server_ops, wire: int) -> tuple[complex, complex]:
    """The phases of ``server_ops``, which must be one rz on ``wire``."""
    if (len(server_ops) != 1 or server_ops[0].kind is not sv.Gate.RZ
            or server_ops[0].qubits != (wire,)):
        raise ValueError(f"the pair takes one rz on wire {wire} from the "
                         f"server, not {[op.kind.value for op in server_ops]}")
    return sv.rz_phases(server_ops[0].angle)


@dataclass(frozen=True)
class GateMarker:
    """Delegation boundaries of one circuit gate inside the round list."""

    gate_index: int
    kind: str
    round_start: int
    round_end: int


@dataclass
class Transcript:
    seed: int
    epsilon: float | None
    n_qubits: int
    rounds: list[Round] = field(default_factory=list)
    markers: list[GateMarker] = field(default_factory=list)
    client_op_kinds: list[str] = field(default_factory=list)
    server_op_kinds: list[str] = field(default_factory=list)
    complete: bool = False
    # running hash of each round's two joint densities and of the full
    # register at every gate boundary; None in a fork, whose digest nothing
    # reads
    _stream: object = field(default_factory=hashlib.sha256, init=False,
                            repr=False, compare=False)

    def record(self, tag: str, transmitted, sent: np.ndarray,
               received: np.ndarray, pad_labels) -> None:
        """Append one round; ``sent`` and ``received`` are the joint state
        of the transmitted wires, the lowest wire as the least significant
        bit."""
        sent.setflags(write=False)
        received.setflags(write=False)
        if self._stream is not None:
            # bytes, not the array: exporting its buffer would pin numpy's
            # buffer-info cache on every stored density
            self._stream.update(sent.tobytes())
            self._stream.update(received.tobytes())
        self.rounds.append(Round(tag, transmitted, sent, received, pad_labels))

    def record_block(self, transmitted, tags, densities: np.ndarray) -> None:
        """Append the rounds of single-wire round trips at once.

        ``tags`` holds each round's (tag, pad_labels) and ``densities``
        stacks the wire's state as each round goes out and comes back,
        (2r, 2, 2).  The stack is made read-only and hashed in one update,
        the same bytes as ``record`` per round; each round holds views.
        """
        densities.setflags(write=False)
        if self._stream is not None:
            self._stream.update(densities.tobytes())
        views = iter(densities)
        self.rounds += [Round(tag, transmitted, sent, received, pad_labels)
                        for (tag, pad_labels), sent, received
                        in zip(tags, views, views)]

    def hash_register(self, amps: np.ndarray) -> None:
        """Feed the whole register into the running hash."""
        self._stream.update(amps)

    def round_trips(self) -> int:
        return len(self.rounds)

    def digest(self) -> str:
        """Canonical sha256 of the whole exchange; replays must match it."""
        if self._stream is None:
            raise ProtocolError("a forked transcript keeps no running hash, "
                                "so it has no digest")
        h = hashlib.sha256()
        head = f"{self.seed}|{self.epsilon!r}|{self.n_qubits}|{self.complete}"
        h.update(head.encode())
        # each round is spelled as its two directed messages, and markers
        # count messages, so the v5 run-report bytes stay the same
        h.update("".join(
            f"client->server{r.tag}{r.transmitted!r}"
            f"server->clientnull{r.transmitted!r}" for r in self.rounds
        ).encode())
        h.update(self._stream.digest())
        for mk in self.markers:
            h.update(f"{mk.gate_index}:{mk.kind}:"
                     f"{2 * mk.round_start}:{2 * mk.round_end}".encode())
        h.update(",".join(self.client_op_kinds).encode())
        h.update(b"|")
        h.update(",".join(self.server_op_kinds).encode())
        return h.hexdigest()


class Session:
    """One protocol run: register buffer, key source, growing transcript,
    and the ``WirePair`` split off the register, if any."""

    def __init__(self, n_qubits: int, seed: int, *, epsilon: float | None = None,
                 overrides=None, disable_pads: bool = False):
        if not 1 <= n_qubits <= sv.MAX_QUBITS:
            raise ValueError(f"register must hold 1..{sv.MAX_QUBITS} qubits")
        self.n_qubits = n_qubits
        self.amps = np.zeros(2**n_qubits, dtype=complex)
        self.amps[0] = 1.0
        self.wire_pair: sv.WirePair | None = None
        self.keys = KeySource(seed, overrides, disable_pads)
        self.transcript = Transcript(seed=int(seed), epsilon=epsilon,
                                     n_qubits=n_qubits)

    def state(self) -> Statevector:
        return Statevector(self.n_qubits, self.amps.copy())

    def split_pair(self, lo: int, hi: int) -> None:
        """Split wires ``lo < hi`` off the register for ``ladder_block``."""
        self.wire_pair = sv.WirePair(self.amps, lo, hi)

    def join_pair(self) -> None:
        """Apply the split pair's net op to the register, once."""
        self.wire_pair.apply_to(self.amps)
        self.wire_pair = None

    def client_apply(self, ops) -> None:
        for op in ops:
            sv._apply_op(self.amps, op)
            self.transcript.client_op_kinds.append(_KIND_NAMES[op.kind])

    def client_measure(self, wire: int, label: str) -> int:
        if not 0 <= wire < self.n_qubits:
            raise ProtocolError(f"wire {wire} out of range")
        outcome = sv._measure(self.amps, wire, self.keys.measure_u(label))
        self.transcript.client_op_kinds.append("measure")
        return outcome

    def round_trip(self, transmitted, tag: str, server_ops,
                   pad_labels=()) -> None:
        """Send ``transmitted`` wires with ``tag``; server applies its gates."""
        transmitted = tuple(transmitted)
        keep = tuple(sorted(transmitted))
        sent = sv._partial_trace(self.amps, keep)
        for op in server_ops:
            sv._apply_op(self.amps, op)
            self.transcript.server_op_kinds.append(_KIND_NAMES[op.kind])
        self.transcript.record(tag, transmitted, sent,
                               sv._partial_trace(self.amps, keep),
                               tuple(pad_labels))

    def ladder_block(self, transit: int, plan, labels, server) -> None:
        """Run one digit block's rounds on the split pair in one step.

        ``plan`` is the block's ``protocol.BlockPlan``, ``labels[k - 1]``
        pads round k and ``server`` is the ``protocol.BlindServer``.  Round
        k pads ``transit`` under its pair, sends it with
        ``server.round_tags[k - 1]``, takes the server's one rz on transit
        from ``ops_for`` and unpads; the client swaps the pair where the
        plan says.  The pair folds every op, and the transcript takes all
        the block's rounds in one ``record_block``; the op kinds logged
        are the ones the same ops would log one by one.
        """
        pair = self.wire_pair
        if pair is None:
            raise ProtocolError("a digit block runs on a split wire pair")
        steps, sent, client = [], [], []
        before = ("swap",) if plan.initial_swap else ()
        for r in plan.rounds:
            tag = server.round_tags[r.index - 1]
            before += _PAD_KINDS[r.pair]
            after = _UNPAD_KINDS[r.pair[0], r.unpad_z]
            if r.swap_after:
                after += ("swap",)
            steps.append(
                (before, _server_phases(server.ops_for(tag), transit), after))
            sent.append((tag, ((transit, labels[r.index - 1]),)))
            client += before
            client += after
            before = ()
        densities = pair.run_block(transit, steps)
        self.transcript.record_block((transit,), sent, densities)
        self.transcript.client_op_kinds += client
        self.transcript.server_op_kinds += ["rz"] * len(steps)

    def fork(self, amps: np.ndarray, n_rounds: int, label: str, pair,
             stop: int, wire_pair: sv.WirePair | None = None) -> Session:
        """This run resumed from ``amps``, the register after ``n_rounds``
        rounds, with ``label`` pinned to ``pair``; ``wire_pair`` is the pair
        split off ``amps`` at that point, if any, and is copied.

        The fork starts from this transcript's first ``n_rounds`` rounds (a
        list slice: the stored densities are shared, not copied) and raises
        ``ForkDone`` once it holds ``stop`` rounds.  A fork keeps no running
        hash, so its transcript has no digest.
        """
        keys = self.keys
        fork = _Fork(self.n_qubits, keys.seed,
                     epsilon=self.transcript.epsilon,
                     overrides={**keys.overrides, label: pair},
                     disable_pads=keys.disable_pads)
        fork.amps[:] = amps
        fork.wire_pair = copy.copy(wire_pair)
        fork.transcript.rounds = self.transcript.rounds[:n_rounds]
        fork.transcript._stream = None
        fork.stop = stop
        return fork

    def mark_gate(self, gate_index: int, kind: str, round_start: int) -> None:
        self.transcript.markers.append(GateMarker(
            gate_index, kind, round_start, len(self.transcript.rounds)))
        self.transcript.hash_register(self.amps)

    def finish(self) -> Transcript:
        self.transcript.hash_register(self.amps)
        self.transcript.complete = True
        return self.transcript


class _Fork(Session):
    """A session made by ``Session.fork``; stops at ``stop`` rounds."""

    stop: int

    def round_trip(self, *args, **kwargs) -> None:
        super().round_trip(*args, **kwargs)
        if len(self.transcript.rounds) >= self.stop:
            raise ForkDone

    def ladder_block(self, transit, plan, labels, server) -> None:
        # run only the rounds up to ``stop``
        left = self.stop - len(self.transcript.rounds)
        super().ladder_block(
            transit, plan._replace(rounds=plan.rounds[:left]), labels, server)
        if len(self.transcript.rounds) >= self.stop:
            raise ForkDone
