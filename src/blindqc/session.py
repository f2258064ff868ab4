"""Session plumbing shared by every interactive run: key material, the
client/server channel, and the replayable transcript of its round trips.

Randomness is label-addressed: ``KeySource`` reads each draw straight off
one BLAKE2b digest of ``"{seed}/{kind}/{label}"``, so the value bound to a
label never depends on draw order.  Each kind's prefix is hashed once per
key source; a draw copies that state and feeds it the label, which gives
the same digest, since BLAKE2b streams.  That is what lets the blindness
auditor override a single pad and re-run the protocol with every other
draw unchanged.  Such a replay re-runs only the round the pad protects,
for all the label's pairs on one fork (``Session.fork``), which starts
with an empty transcript, no register and no pair.  For each pair the
replay gives the fork the key source with the label pinned to it and a
fresh copy of the state saved just before that round (the register, or
the wire pair split off it), and runs the round.  A fork draws its own
pads; keys are label-addressed, so each draw gives the pair the run drew.

The channel is in-process: a round trip takes the transmitted wires'
state as the client sends them, applies the server's gates to the shared
state, and takes their state again as the reply comes back.  Each round
trip is one ``Round`` record holding both reduced densities, which are
what the channel carries and all the audit reads; ``Transcript.record``
stacks them and keeps the stack for the running hash.  The digit blocks
m >= 2 of an ``rz`` gate run as one step instead (``ladder``): on the
``WirePair`` split off the register, all their rounds fold into the
pair's net op, and one ``record`` call takes them all from one stacked
array.  At every gate boundary and at the end of the run the stacks
recorded since the last boundary enter the hash, in order, and then the
whole register: the same bytes as hashing each stack when it is
recorded, since sha256 streams.  So the digest covers every transmitted
density of every round and every amplitude at every gate boundary, and
a fork, which never reaches a gate boundary, hashes nothing.
Register copies stay flat in the number of round trips, but the
``Round`` list grows with it, by about 0.7 KB per round trip.
Off-channel amplitudes between two rounds of one gate are not hashed.
"""

from __future__ import annotations

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


class KeySource:
    """Deterministic per-label bits, overridable one label at a time.

    Every draw is a BLAKE2b digest.  A pad draw is the low two bits of the
    one-byte digest of ``"{seed}/pad/{label}"``: bit 0 is the x bit and
    bit 1 the z bit.  A measurement draw is the top 53 bits of the
    eight-byte digest of ``"{seed}/u/{label}"``, read little-endian and
    scaled into [0, 1).  Each kind hashes its prefix once; a draw copies
    that state and feeds it only the label.
    """

    def __init__(self, seed: int, overrides=None):
        self.seed = int(seed)
        self.overrides = {k: tuple(v) for k, v in (overrides or {}).items()}
        self._pad = hashlib.blake2b(f"{self.seed}/pad/".encode(),
                                    digest_size=1)
        self._u = hashlib.blake2b(f"{self.seed}/u/".encode(), digest_size=8)

    def pinned(self, label: str, pair) -> KeySource:
        """This key source with ``label`` also pinned to ``pair``, sharing
        the prefix states, which draws only copy."""
        twin = object.__new__(KeySource)
        twin.__dict__.update(self.__dict__)
        twin.overrides = {**self.overrides, label: tuple(pair)}
        return twin

    def pad_pair(self, label: str) -> tuple[int, int]:
        """One (x_bit, z_bit) pad draw."""
        if label in self.overrides:
            return self.overrides[label]
        h = self._pad.copy()
        h.update(label.encode())
        b = h.digest()[0]
        return (b & 1, (b >> 1) & 1)

    def measure_u(self, label: str) -> float:
        """Uniform draw in [0, 1) for a measurement."""
        h = self._u.copy()
        h.update(label.encode())
        return (int.from_bytes(h.digest(), "little") >> 11) * 2.0**-53


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
        round's ``sent`` or ``received``, or in each density of a stack of
        them (the last two axes)."""
        if len(self.transmitted) == 1:
            return density
        rows, cols = _marginal_index(len(self.transmitted))
        w = sorted(self.transmitted).index(wire)
        # indexing a stack need not lay the rows out in order; contiguous
        # rows are summed as one density's are, so the bits are the same
        return np.ascontiguousarray(
            density[..., rows[w], cols[w]]).sum(axis=-1)


def _server_phases(server_ops, wire: int) -> tuple[complex, complex]:
    """The phases of ``server_ops``, which must be one rz on ``wire``."""
    if (len(server_ops) != 1 or server_ops[0].kind is not sv.Gate.RZ
            or server_ops[0].qubits != (wire,)):
        raise ValueError(f"the pair takes one rz on wire {wire} from the "
                         f"server, not {[op.kind.value for op in server_ops]}")
    return sv.rz_phases(server_ops[0].angle)


@functools.lru_cache(maxsize=1024)
def _round_text(tag: str, transmitted: tuple[int, ...]) -> str:
    """A round as ``Transcript.digest`` spells it: its two directed
    messages.  A run uses a few (tag, wires) pairs over and over."""
    return (f"client->server{tag}{transmitted!r}"
            f"server->clientnull{transmitted!r}")


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
    # register at every gate boundary, which feeds it ``_unhashed`` first
    _stream: object = field(default_factory=hashlib.sha256, init=False,
                            repr=False, compare=False)
    _unhashed: list = field(default_factory=list, init=False, repr=False,
                            compare=False)

    def record(self, transmitted, tags, densities: np.ndarray) -> None:
        """Append r >= 1 rounds on the same wires.

        ``tags`` holds each round's (tag, pad_labels) and ``densities``
        stacks the transmitted wires' joint state as each round goes out
        and comes back, (2r, d, d), the lowest wire as the least
        significant bit.  The stack is made read-only and kept for the
        next ``hash_register``; each round holds views of it.
        """
        densities.setflags(write=False)
        self._unhashed.append(densities)
        views = iter(densities)
        self.rounds += [Round(tag, transmitted, sent, received, pad_labels)
                        for (tag, pad_labels), sent, received
                        in zip(tags, views, views)]

    def hash_register(self, amps: np.ndarray) -> None:
        """Feed the stacks recorded since the last call, one update each,
        then the whole register into the running hash."""
        for densities in self._unhashed:
            # bytes, not the array: exporting its buffer would pin numpy's
            # buffer-info cache on every stored density
            self._stream.update(densities.tobytes())
        self._unhashed.clear()
        self._stream.update(amps)

    def round_trips(self) -> int:
        return len(self.rounds)

    def digest(self) -> str:
        """Canonical sha256 of the whole exchange; replays must match it."""
        h = hashlib.sha256()
        head = f"{self.seed}|{self.epsilon!r}|{self.n_qubits}|{self.complete}"
        h.update(head.encode())
        # each round is spelled as its two directed messages, and markers
        # count messages, so the v5 run-report bytes stay the same
        h.update("".join([_round_text(r.tag, r.transmitted)
                          for r in self.rounds]).encode())
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
    and the ``WirePair`` split off the register, if any.  A fork's
    replay sets its key source and state before each round it runs."""

    def __init__(self, n_qubits: int, seed: int, *,
                 epsilon: float | None = None):
        if not 1 <= n_qubits <= sv.MAX_QUBITS:
            raise ValueError(f"register must hold 1..{sv.MAX_QUBITS} qubits")
        self.n_qubits = n_qubits
        self.amps = np.zeros(2**n_qubits, dtype=complex)
        self.amps[0] = 1.0
        self.wire_pair: sv.WirePair | None = None
        self.keys = KeySource(seed)
        self.transcript = Transcript(seed=int(seed), epsilon=epsilon,
                                     n_qubits=n_qubits)

    def state(self) -> Statevector:
        return Statevector(self.n_qubits, self.amps.copy())

    def split_pair(self, lo: int, hi: int) -> None:
        """Split wires ``lo < hi`` off the register, for ``ladder`` to run
        the rest of an rz gate's digit ladder on in one step."""
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

    def pad(self, pad_labels) -> list[tuple[int, int]]:
        """Pad each (wire, label) in ``pad_labels`` under its label's pair,
        and return the pairs, one draw per label."""
        pairs = [self.keys.pad_pair(label) for _, label in pad_labels]
        self.client_apply(paulis.pad_ops(pairs, [w for w, _ in pad_labels]))
        return pairs

    def round_trip(self, transmitted, tag: str, server_ops,
                   pad_labels=()) -> None:
        """Send ``transmitted`` wires with ``tag``; server applies its gates.
        The sent and received densities go into one (2, d, d) stack."""
        transmitted = tuple(transmitted)
        keep = tuple(sorted(transmitted))
        d = 1 << len(keep)
        densities = np.empty((2, d, d), dtype=complex)
        sv._partial_trace(self.amps, keep, densities[0])
        for op in server_ops:
            sv._apply_op(self.amps, op)
            self.transcript.server_op_kinds.append(_KIND_NAMES[op.kind])
        sv._partial_trace(self.amps, keep, densities[1])
        self.transcript.record(transmitted, ((tag, tuple(pad_labels)),),
                               densities)

    def ladder(self, transit: int, blocks, server) -> list:
        """Run digit blocks' rounds on the split pair in one step, and
        return the rounds as ``WirePair.run_block`` folded them.

        ``blocks`` lists (plan, labels) per block: the block's
        ``protocol.BlockPlan``, whose round k is padded by
        ``labels[k - 1]``.  ``server`` is the ``protocol.BlindServer``.
        Round k pads ``transit`` under its pair, sends it with
        ``server.round_tags[k - 1]``, takes the server's one rz on transit
        from ``ops_for`` (checked once per tag) and unpads; the client
        swaps the pair where the plan says.  The pair folds every op, and
        the transcript takes all the rounds in one ``record``; the op
        kinds logged are the ones the same ops would log one by one.
        """
        pair = self.wire_pair
        if pair is None:
            raise ProtocolError("a digit block runs on a split wire pair")
        steps, tags, client, rotations = [], [], [], {}
        for plan, labels in blocks:
            before = ("swap",) if plan.initial_swap else ()
            for r in plan.rounds:
                tag = server.round_tags[r.index - 1]
                if tag not in rotations:
                    rotations[tag] = _server_phases(server.ops_for(tag),
                                                    transit)
                before += _PAD_KINDS[r.pair]
                after = _UNPAD_KINDS[r.pair[0], r.unpad_z]
                if r.swap_after:
                    after += ("swap",)
                steps.append((before, rotations[tag], after))
                tags.append((tag, ((transit, labels[r.index - 1]),)))
                client += before
                client += after
                before = ()
        densities = pair.run_block(transit, steps)
        self.transcript.record((transit,), tags, densities)
        self.transcript.client_op_kinds += client
        self.transcript.server_op_kinds += ["rz"] * len(steps)
        return steps

    def fork(self) -> Session:
        """A session with this one's key source, an empty transcript, no
        register and no pair: ``CheckpointedRun.replay`` runs rounds on it."""
        # built field by field: a fork needs no fresh register
        fork = object.__new__(Session)
        fork.n_qubits = self.n_qubits
        fork.amps = fork.wire_pair = None
        fork.keys = self.keys
        fork.transcript = Transcript(self.transcript.seed,
                                     self.transcript.epsilon, self.n_qubits)
        return fork

    def mark_gate(self, gate_index: int, kind: str, round_start: int) -> None:
        self.transcript.markers.append(GateMarker(
            gate_index, kind, round_start, len(self.transcript.rounds)))
        self.transcript.hash_register(self.amps)

    def finish(self) -> Transcript:
        self.transcript.hash_register(self.amps)
        self.transcript.complete = True
        return self.transcript
