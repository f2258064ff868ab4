"""Session plumbing shared by every interactive run: key material, the
client/server channel, and the replayable transcript of its round trips.

Randomness is label-addressed: ``KeySource`` reads each draw straight off
one BLAKE2b digest of ``"{seed}/{kind}/{label}"``, so the value bound to a
label never depends on draw order, and the auditor can pin one pad and
re-run its round with every other draw unchanged.

The register holds the working wires only; every wire of the channel
holds one of them or a dummy, a product state of two amplitudes (a swap
with a dummy relabels the two).  A round trip returns the transmitted
wires' joint densities as the client sends them and as the server's
gates J (one matrix, which the server builds once per tag) send them
back; ``server_apply`` then applies J.  An ``rz`` gate's digit blocks
m >= 2 run on the ``WirePair`` split off the register, whole blocks per
``ladder`` pass: one loop draws each round's pad, looks up its schedule,
moves the pair's net op through tables of the client's composed ops and
returns the rounds' densities as one stack.  The run records each stack
(``Transcript.record``): the transcript keeps each round's tag and
wires, and its running hash takes the stack then and there and, at
every gate boundary and at the end, the whole register, renormalized.
The digest covers every transmitted density and every amplitude at
every gate boundary, not off-channel amplitudes between two rounds of
one gate.

A replay re-runs one round on a fork (``fork``), once per pair: the saved
state, the client's swaps and pads and the round trip, or the ladder
pass on the one round.  A fork records nothing and applies no server
gate.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import paulis
from . import statevec as sv

# the transcript's name of each gate kind, read without the Enum descriptor
_KIND_NAMES = {kind: kind.value for kind in sv.Gate}


def _ladder_moves(bit: int):
    """The client's ops around a ladder round on pair bit ``bit``, composed
    (``sv.pair_moves``), with the kinds they log: before the send at
    [initial swap][x][z], after the reply at [x][z][swap back]."""
    def table(ops):
        def entry(*key):
            kinds = tuple(_KIND_NAMES[op.kind] for op in ops(*key))
            return sv.pair_moves(kinds, bit), kinds
        return tuple(tuple(tuple(entry(u, v, w) for w in (0, 1))
                           for v in (0, 1)) for u in (0, 1))

    swap = [sv.swap(0, 1)]
    return (table(lambda s, x, z: swap * s + paulis.pad_ops(((x, z),))),
            table(lambda x, z, s: paulis.unpad_ops(((x, z),)) + swap * s))


# per pair bit of the wire the ladder sends
_LADDER = {bit: _ladder_moves(bit) for bit in (1, 2)}


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
    """One round trip (an immutable record): ``tag`` exactly as it crossed
    the channel, a canonical JSON string; the ``transmitted`` wires; their
    joint reduced state as the client sends them (``sent``) and as the
    server's reply comes back (``received``), read-only, the lowest wire
    as the least significant bit; and the key label protecting each wire
    on the way out (``pad_labels``, which the mixedness audit reads).
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


# the slots above the working wires, each a dummy in |0> when fresh
N_SLOTS, _FRESH = 4, (1.0, 0.0)
# a dummy's two amplitudes after each one-wire gate
_DUMMY_GATES = {
    sv.Gate.X: lambda op, a, b: (b, a),
    sv.Gate.Z: lambda op, a, b: (a, -b),
    sv.Gate.H: lambda op, a, b: ((a + b) * sv.SQRT_HALF,
                                 (a - b) * sv.SQRT_HALF),
    sv.Gate.RZ: lambda op, a, b: (a * sv.rz_phases(op.angle)[0],
                                  b * sv.rz_phases(op.angle)[1]),
}


def ops_matrix(server_ops, wires) -> np.ndarray:
    """``server_ops``, on ``wires`` only, as one matrix J (bit j of a row for
    ``wires[j]``), made by applying them to the rows of the identity."""
    k = len(wires)
    j = np.eye(1 << k, dtype=complex).reshape(-1)
    for op in server_ops:
        sv._apply_op(j, op, [k + wires.index(q) for q in op.qubits])
    return j.reshape(1 << k, 1 << k)


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
    markers: list[GateMarker] = field(default_factory=list)
    client_op_kinds: list[str] = field(default_factory=list)
    server_op_kinds: list[str] = field(default_factory=list)
    complete: bool = False
    # each round's tag (the classical view) and wires
    tags: list[str] = field(default_factory=list)
    _wires: list = field(default_factory=list, init=False, repr=False)
    # running hash of each round's two joint densities and of the full
    # register at every gate boundary
    _stream: object = field(default_factory=hashlib.sha256, init=False,
                            repr=False, compare=False)

    def record(self, transmitted, tags, densities: np.ndarray) -> None:
        """Append r >= 1 rounds on the same wires: ``tags`` holds each
        round's tag, ``densities`` the wires' joint state as each round
        goes out and comes back, (2r, d, d), the lowest wire as the least
        significant bit, which the running hash takes now."""
        self.tags += tags
        self._wires += [transmitted] * len(tags)
        self._stream.update(densities)

    def hash_register(self, amps: np.ndarray) -> None:
        """Feed the whole register into the running hash."""
        self._stream.update(amps)

    def round_trips(self) -> int:
        return len(self.tags)

    def digest(self) -> str:
        """Canonical sha256 of the whole exchange; replays must match it."""
        h = hashlib.sha256()
        head = f"{self.seed}|{self.epsilon!r}|{self.n_qubits}|{self.complete}"
        h.update(head.encode())
        # each round is spelled as its two directed messages, and markers
        # count messages, so the v5 run-report bytes stay the same
        h.update("".join(map(_round_text, self.tags, self._wires)).encode())
        h.update(self._stream.digest())
        for mk in self.markers:
            h.update(f"{mk.gate_index}:{mk.kind}:"
                     f"{2 * mk.round_start}:{2 * mk.round_end}".encode())
        h.update(",".join(self.client_op_kinds).encode())
        h.update(b"|")
        h.update(",".join(self.server_op_kinds).encode())
        return h.hexdigest()


class Session:
    """One protocol run: register, what each wire holds, key source,
    growing transcript, and the ``WirePair`` split off the register, if
    any.  A fork's replay sets its key source once and its state per
    pair."""

    def __init__(self, n_qubits: int, seed: int, *,
                 epsilon: float | None = None):
        if not 1 <= n_qubits <= sv.MAX_QUBITS:
            raise ValueError(f"register must hold 1..{sv.MAX_QUBITS} qubits")
        self.n_qubits = n_qubits
        self.restore(np.eye(1, 2**n_qubits, dtype=complex)[0])
        self.keys = KeySource(seed)
        self.transcript = Transcript(seed=int(seed), epsilon=epsilon,
                                     n_qubits=n_qubits)

    def restore(self, state) -> None:
        """Hold ``state`` (no copy): a split pair, or a fresh-slot register."""
        if isinstance(state, sv.WirePair):
            self.wire_pair = state
        else:
            self.amps, self.wire_pair = state, None
            self.held = [*range(self.n_qubits), *[_FRESH] * N_SLOTS]

    def _apply(self, op) -> None:
        """Apply ``op`` to the register wires its wires hold, or to their
        dummies; a swap with a dummy relabels the two wires."""
        try:
            held = [self.held[w] for w in op.qubits]
        except IndexError:
            raise ProtocolError(f"wire {max(op.qubits)} out of range") from None
        if type(held[0]) is int and type(held[-1]) is int:
            sv._apply_op(self.amps, op, held)
        elif op.kind is sv.Gate.SWAP:
            self.held[op.qubits[0]], self.held[op.qubits[1]] = held[::-1]
        elif len(held) == 1:
            self.held[op.qubits[0]] = _DUMMY_GATES[op.kind](op, *held[0])
        elif op.kind is sv.Gate.CZ and not any(
                type(d) is int or d[0] and d[1] for d in held):
            # on basis states, the -1 of |11> is a phase of either factor
            if held[0][1] and held[1][1]:
                self.held[op.qubits[0]] = (held[0][0], -held[0][1])
        else:
            raise ProtocolError(f"{op.kind.value} would entangle a dummy slot")

    def split_pair(self, q: int, transit: int) -> None:
        """Split working wire ``q`` and the ``transit`` slot in |0> off the
        register, for ``ladder`` to run an rz gate's ladder on in one step."""
        if type(held := self.held[transit]) is int or held[1]:
            raise ProtocolError(f"transit {transit} is not in |0>")
        self.wire_pair = sv.WirePair(self.amps, q, transit)

    def join_pair(self) -> None:
        """Apply the pair's net op to wire q, once; transit must end in |0>."""
        if max(self.wire_pair.perm[:2]) > 1:
            raise ProtocolError("the ladder leaves transit outside |0>")
        self.wire_pair.apply_to(self.amps)
        self.wire_pair = None

    def client_apply(self, ops) -> None:
        for op in ops:
            self._apply(op)
            self.transcript.client_op_kinds.append(_KIND_NAMES[op.kind])

    def client_measure(self, wire: int, label: str) -> int:
        if not 0 <= wire < len(self.held):
            raise ProtocolError(f"wire {wire} out of range")
        u = self.keys.measure_u(label)
        if type(held := self.held[wire]) is int:
            outcome = sv._measure(self.amps, held, u)
        else:
            # a product factor: the register takes the kept amplitude's phase
            outcome = int(u < abs(held[1]) ** 2)
            self.amps *= held[outcome] / abs(held[outcome])
            self.held[wire] = (1.0 - outcome, float(outcome))
        self.transcript.client_op_kinds.append("measure")
        return outcome

    def pad(self, pad_labels) -> list[tuple[int, int]]:
        """Pad each (wire, label) in ``pad_labels`` under its label's pair,
        and return the pairs, one draw per label."""
        pairs = [self.keys.pad_pair(label) for _, label in pad_labels]
        self.client_apply(paulis.pad_ops(pairs, [w for w, _ in pad_labels]))
        return pairs

    def round_trip(self, transmitted, j: np.ndarray) -> np.ndarray:
        """Send ``transmitted`` wires and return their joint densities, out
        then back, (2, d, d): the carried wires' register rows times the
        dummies, then the server's gates as one matrix ``j`` (``ops_matrix``
        on the sorted wires) times them.  The state stays as sent;
        ``server_apply`` applies the gates after the reply, and a replay
        stops before it."""
        wires = tuple(sorted(transmitted))
        if wires[0] < 0 or wires[-1] >= len(self.held):
            raise ProtocolError(f"wires {wires} out of range")
        held = [self.held[w] for w in wires]
        carried = [h for h in held if type(h) is int]
        state = [1.0]
        for h in held:
            if type(h) is not int:
                state = [x * y for x in h for y in state]
        # one axis per wire, the highest first, then the register's rest;
        # the two rows are written in place
        axes = [2 if type(h) is int else 1 for h in reversed(held)]
        rows = np.empty((2, 1 << len(wires), self.amps.size >> len(carried)),
                        dtype=complex)
        np.multiply(np.array(state).reshape([3 - a for a in axes] + [1]),
                    sv._rows(self.amps, carried).reshape(axes + [-1]),
                    out=rows[0].reshape([2] * len(wires) + [-1]))
        np.matmul(j, rows[0], out=rows[1])
        return rows @ rows.conj().transpose(0, 2, 1)

    def server_apply(self, ops) -> None:
        """The server's gates, applied after the round trip that sent them."""
        for op in ops:
            self._apply(op)
            self.transcript.server_op_kinds.append(_KIND_NAMES[op.kind])

    def ladder(self, transit: int, blocks, server, starts=None) -> tuple:
        """Run digit blocks' rounds on the split pair in one pass; return
        their densities as one stack and their tags.

        A block is (schedule, labels, ks, carry), ``schedule`` (initial
        swap, rows).  Round k, for k in ``ks``, pads ``transit`` under the
        pair (x, z) drawn for ``labels[k - 1]``, sends it with
        ``server.round_tags[k - 1]``, takes the server's one rz on transit
        and runs rows[k == 1][carry][x][z] = (unpad z, swap back, next
        carry); a block's top round opens with the initial swap.  The op
        kinds logged are those of the ops one by one.  A list ``starts``
        gets per round its pad labels, the pair as it starts and the round
        as a one-round block, which a pass from that pair re-runs exactly.
        """
        pair = self.wire_pair
        if pair is None:
            raise ProtocolError("a digit block runs on a split wire pair")
        if transit not in pair.wires:
            raise ValueError(f"wire {transit} is outside the pair "
                             f"{pair.wires}")
        before, after = _LADDER[1 if transit == pair.wires[0] else 2]
        draw, rho, round_tags = self.keys.pad_pair, pair.rho, server.round_tags
        s, ph = sv._PERMS.index(pair.perm), list(pair.phases)
        flat, tags, client, rotations = [], [], [], {}
        # per _PERMS index: the wire's populations and the two entries of
        # rho its coherence reads, taken on first use
        reads = [None] * len(sv._PERMS)
        for schedule, labels, ks, carry in blocks:
            swap, rows = schedule
            swap *= ks[0] == len(labels)  # only the top round opens it
            for k in ks:
                rz, label = rotations.get(k), labels[k - 1]
                if rz is None:
                    ops = server.ops_for(round_tags[k - 1])
                    if [(op.kind, op.qubits) for op in ops] != [
                            (sv.Gate.RZ, (transit,))]:
                        raise ValueError(
                            f"the pair takes one rz on wire {transit} from "
                            f"the server, not {[op.kind.value for op in ops]}")
                    rz = rotations[k] = sv.rz_phases(ops[0].angle)
                x, z = draw(label)
                unpad_z, swap_after, next_carry = rows[k == 1][carry][x][z]
                if starts is not None:
                    starts.append((((transit, label),), pair.copy(
                        perm=sv._PERMS[s], phases=tuple(ph)),
                        (schedule, labels, (k,), carry)))
                moves, kinds = before[swap][x][z]
                s, negated, (a, b, c, d) = moves[s]
                for j in negated:
                    ph[j] = -ph[j]
                client += kinds
                # U sends a and b to the wire's 0 states and c and d to its
                # 1 states; phases have modulus 1, so the rz leaves the
                # diagonal as it is.  The <0|.|1> entry of U rho U^dagger
                # sums ph[i] rho[i][j] conj(ph[j]); rho is hermitian, so
                # <1|.|0> is its conjugate.
                if reads[s] is None:
                    reads[s] = (rho[a][a] + rho[b][b], rho[c][c] + rho[d][d],
                                rho[a][c], rho[b][d])
                zero, one, ac, bd = reads[s]
                out = (ph[a] * ac * ph[c].conjugate()
                       + ph[b] * bd * ph[d].conjugate())
                down, up = rz
                ph[a] *= down
                ph[b] *= down
                ph[c] *= up
                ph[d] *= up
                back = (ph[a] * ac * ph[c].conjugate()
                        + ph[b] * bd * ph[d].conjugate())
                flat += (zero, out, out.conjugate(), one,
                         zero, back, back.conjugate(), one)
                moves, kinds = after[x][unpad_z][swap_after]
                s, negated, _ = moves[s]
                for j in negated:
                    ph[j] = -ph[j]
                client += kinds
                tags.append(round_tags[k - 1])
                carry, swap = next_carry, 0
        pair.perm, pair.phases = sv._PERMS[s], tuple(ph)
        self.transcript.client_op_kinds += client
        self.transcript.server_op_kinds += ["rz"] * len(tags)
        # one array that owns its memory, so no round's density has a
        # writable base
        densities = np.empty((len(flat) >> 2, 2, 2), dtype=complex)
        densities.reshape(-1)[:] = flat
        return densities, tags

    def fork(self) -> Session:
        """A session with no register, pair or key source, for
        ``protocol.replay`` to run rounds on; nothing records them."""
        # built field by field: a fork needs no fresh register
        fork = object.__new__(Session)
        fork.n_qubits = self.n_qubits
        fork.amps = fork.wire_pair = fork.held = None
        fork.transcript = Transcript(self.transcript.seed,
                                     self.transcript.epsilon, self.n_qubits)
        return fork

    def mark_gate(self, gate_index: int, kind: str, round_start: int) -> None:
        self.transcript.markers.append(GateMarker(
            gate_index, kind, round_start, self.transcript.round_trips()))
        self.amps /= np.linalg.norm(self.amps)
        self.transcript.hash_register(self.amps)

    def finish(self) -> Transcript:
        self.transcript.hash_register(self.amps)
        self.transcript.complete = True
        return self.transcript
