"""Pauli one-time-pad keys and their propagation through Clifford gates.

A register is encrypted qubit-wise with ``X^a Z^b`` (Z first, then X).  For
each supported gate ``U`` there is an exact rewrite

    U . P(key) = i^phase . C . P(new_key) . U

where ``C`` is a (possibly empty) product of Clifford corrections on the
padded wires and ``phase`` is an exponent of ``i`` mod 4.  ``verify_key_update``
checks that identity numerically and is reused by the test suite.

The non-Clifford T gate is handled by a measurement gadget: the padded wire
is consumed, and the gate lands on a prepared ancilla with a rewritten key
plus a conditional S correction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import statevec as sv
from .statevec import Gate, GateOp, Statevector

Pair = tuple[int, int]


def _check_bit(v: int) -> int:
    if v not in (0, 1):
        raise ValueError(f"key bits must be 0 or 1, got {v!r}")
    return int(v)


@dataclass(frozen=True)
class PauliKey:
    """Per-qubit (x_bit, z_bit) pad exponents."""

    pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        clean = tuple((_check_bit(a), _check_bit(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", clean)

    @property
    def n_qubits(self) -> int:
        return len(self.pairs)

    @classmethod
    def zero(cls, n: int) -> "PauliKey":
        return cls(((0, 0),) * n)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "PauliKey":
        bits = rng.integers(0, 2, size=(n, 2))
        return cls(tuple((int(a), int(b)) for a, b in bits))

    def __getitem__(self, i: int) -> Pair:
        return self.pairs[i]


def all_keys(n: int):
    """Every pad assignment on ``n`` qubits, in lexicographic order."""
    for bits in itertools.product((0, 1), repeat=2 * n):
        yield PauliKey(tuple((bits[2 * i], bits[2 * i + 1]) for i in range(n)))


def pad_ops(pairs, qubits=None) -> list[GateOp]:
    """Pad for (x, z) ``pairs``: per qubit, Z^z then X^x."""
    if qubits is None:
        qubits = range(len(pairs))
    ops: list[GateOp] = []
    for (a, b), q in zip(pairs, qubits):
        if b:
            ops.append(sv.z(q))
        if a:
            ops.append(sv.x(q))
    return ops


def unpad_ops(pairs, qubits=None) -> list[GateOp]:
    """Inverse pad: per qubit, X^x then Z^z."""
    if qubits is None:
        qubits = range(len(pairs))
    ops: list[GateOp] = []
    for (a, b), q in zip(pairs, qubits):
        if a:
            ops.append(sv.x(q))
        if b:
            ops.append(sv.z(q))
    return ops


def encrypt(state: Statevector, key: PauliKey, qubits=None) -> Statevector:
    return sv.apply_all(state, pad_ops(key.pairs, qubits))


def decrypt(state: Statevector, key: PauliKey, qubits=None) -> Statevector:
    return sv.apply_all(state, unpad_ops(key.pairs, qubits))


@dataclass(frozen=True)
class KeyUpdate:
    """Result of commuting a gate past the pad."""

    new_key: PauliKey
    phase_exponent: int
    corrections: tuple[GateOp, ...] = ()


def key_update(op: GateOp, key: PauliKey) -> KeyUpdate:
    """Exact pad rewrite for one gate; qubit indices address key slots."""
    pairs = list(key.pairs)
    if op.kind is Gate.H:
        (q,) = op.qubits
        a, b = pairs[q]
        pairs[q] = (b, a)
        return KeyUpdate(PauliKey(tuple(pairs)), (2 * a * b) % 4)
    if op.kind is Gate.S:
        (q,) = op.qubits
        a, b = pairs[q]
        pairs[q] = (a, a ^ b)
        return KeyUpdate(PauliKey(tuple(pairs)), a % 4)
    if op.kind is Gate.CX:
        qc, qt = op.qubits
        a, b = pairs[qc]
        c, d = pairs[qt]
        pairs[qc] = (a, b ^ d)
        pairs[qt] = (a ^ c, d)
        return KeyUpdate(PauliKey(tuple(pairs)), 0)
    if op.kind is Gate.CZ:
        q1, q2 = op.qubits
        a, b = pairs[q1]
        c, d = pairs[q2]
        pairs[q1] = (a, b ^ c)
        pairs[q2] = (c, a ^ d)
        return KeyUpdate(PauliKey(tuple(pairs)), (2 * a * c) % 4)
    if op.kind is Gate.CCX:
        q1, q2, q3 = op.qubits
        a, b = pairs[q1]
        c, d = pairs[q2]
        e, f = pairs[q3]
        pairs[q1] = (a, b ^ (c & f))
        pairs[q2] = (c, d ^ (a & f))
        pairs[q3] = (e ^ (a & c), f)
        # conditional two-qubit Cliffords the decryptor must also undo
        corr: list[GateOp] = []
        if a:
            corr.append(sv.cx(q2, q3))
        if c:
            corr.append(sv.cx(q1, q3))
        if f:
            corr.append(sv.cz(q1, q2))
        return KeyUpdate(PauliKey(tuple(pairs)), (2 * a * c * f) % 4, tuple(corr))
    raise ValueError(f"no key update rule for {op.kind.value}")


def key_update_circuit(ops, key: PauliKey) -> KeyUpdate:
    """Fold a correction-free Clifford sequence (h, s, cx, cz) into the key."""
    phase = 0
    for op in ops:
        if op.kind is Gate.CCX:
            raise ValueError("ccx produces corrections; fold it gate by gate")
        upd = key_update(op, key)
        key = upd.new_key
        phase = (phase + upd.phase_exponent) % 4
    return KeyUpdate(key, phase)


def verify_key_update(op: GateOp, key: PauliKey, rng: np.random.Generator,
                      trials: int = 2) -> float:
    """Max-norm deviation of U.P|psi> from i^k.C.P'.U|psi> on random states."""
    n = max(op.qubits) + 1
    if key.n_qubits != n:
        raise ValueError("key must cover exactly the gate's wire span")
    upd = key_update(op, key)
    worst = 0.0
    for _ in range(trials):
        psi = sv.random_state(n, rng)
        lhs = sv.apply(encrypt(psi, key), op)
        rhs = encrypt(sv.apply(psi, op), upd.new_key)
        rhs = sv.apply_all(rhs, upd.corrections)
        rhs_amps = (1j ** upd.phase_exponent) * rhs.amps
        worst = max(worst, float(np.abs(lhs.amps - rhs_amps).max()))
    return worst


def one_time_pad_density(state: Statevector) -> sv.DensityMatrix:
    """Exact average of P(key)|psi><psi|P(key)^dag over every key.

    For any input this is the maximally mixed state; the audit module checks
    that numerically on protocol payloads.
    """
    return sv.ensemble_density([encrypt(state, k) for k in all_keys(state.n_qubits)])


# ---------------------------------------------------------------------------
# T gadget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TGadgetUpdate:
    """Key rewrite after the gadget measurement yields outcome ``m``."""

    new_pair: Pair
    s_exponent: int


def t_gadget_key_update(pair: Pair, y: int, d: int, m: int) -> TGadgetUpdate:
    """Output wire holds S^{a^y} X^{a'} Z^{b'} T|psi> up to global phase.

    ``(y, d)`` are the client's secret ancilla-preparation bits and ``m``
    the broadcast measurement outcome.
    """
    a, b = pair
    new_a = a ^ m
    new_b = (a & (m ^ y)) ^ b ^ d
    return TGadgetUpdate((new_a, new_b), a ^ y)


def run_t_gadget(padded: Statevector, y: int, d: int, *,
                 u: float | None = None,
                 rng: np.random.Generator | None = None) -> tuple[Statevector, int]:
    """Execute the gadget on a padded single-qubit state.

    The server holds the padded wire, prepares the ancilla S^y Z^d |+>,
    applies T to the data, entangles with CX (ancilla controls), and
    measures the data wire.  Returns the surviving wire and the outcome.
    """
    if padded.n_qubits != 1:
        raise ValueError("gadget input is a single padded wire")
    reg = sv.append_qubits(padded, 1)
    prep = [sv.h(1)]
    if d:
        prep.append(sv.z(1))
    if y:
        prep.append(sv.s(1))
    reg = sv.apply_all(reg, prep + [sv.t(0), sv.cx(1, 0)])
    reg, m = sv.measure_qubit(reg, 0, u=u, rng=rng)
    return sv.drop_qubit(reg, 0, m), m
