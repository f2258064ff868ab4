"""Pauli one-time-pad keys and their propagation through Clifford gates.

A register is encrypted qubit-wise with ``X^a Z^b`` (Z first, then X).  For
each supported gate ``U`` there is an exact rewrite

    U . P(key) = i^phase . C . P(new_key) . U

where ``C`` is a (possibly empty) product of Clifford corrections on the
padded wires and ``phase`` is an exponent of ``i`` mod 4.  The protocol
folds only ``h`` and ``cz``; the ``s``, ``cx`` and ``ccx`` rules stay
beside them, so the rule table has one home.  ``verify_key_update`` in
``tests/oracles.py`` checks each rule numerically.

Non-Clifford gates need no rule here: ``t`` lowers to an ``rz`` ladder.
The T-gate measurement gadget, the other route, lives in
``tests/oracles.py`` as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import statevec as sv
from .statevec import Gate, GateOp

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
