"""Compile circuits down to the delegable gate set {h, cz, rz}.

Every supported gate rewrites exactly into that set up to a global phase:
diagonal gates become single rotations, x conjugates a half-turn rotation
by h, cx conjugates cz by h on the target, swap is three cx, ccx uses the
standard quarter-turn ladder with six cx, and raw 2x2 unitaries go through
a ZXZ Euler split with the middle X-axis rotation realized as h rz h.
Measurements pass through untouched; they are the client's job.
"""

from __future__ import annotations

import math

import numpy as np

from . import statevec as sv
from .circuits import Circuit
from .statevec import Gate, GateOp

PI = math.pi

# gates the server knows how to apply; measurements stay with the client
SERVER_KINDS = frozenset({Gate.H, Gate.CZ, Gate.RZ})


def first_undelegable(circuit: Circuit) -> GateOp | None:
    """The first op that is neither a server gate nor a measurement."""
    return next((op for op in circuit.ops
                 if op.kind not in SERVER_KINDS and op.kind is not Gate.MEASURE),
                None)


def euler_zxz(matrix: np.ndarray) -> tuple[float, float, float]:
    """Angles (alpha, beta, gamma) with matrix ~ Rz(alpha) Rx(beta) Rz(gamma).

    Exact up to a global phase for any single-qubit unitary.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2) or np.abs(m @ m.conj().T - np.eye(2)).max() > 1e-9:
        raise ValueError("euler_zxz needs a 2x2 unitary")
    v = m / np.sqrt(np.linalg.det(m))
    beta = 2.0 * math.atan2(abs(v[0, 1]), abs(v[0, 0]))
    # v00 = cos(b/2) e^{-i(a+g)/2},  v01 = -i sin(b/2) e^{-i(a-g)/2}
    total = -2.0 * float(np.angle(v[0, 0]))
    diff = -2.0 * float(np.angle(v[0, 1])) - PI
    return (total + diff) / 2.0, beta, (total - diff) / 2.0


def _expand(op: GateOp) -> list[GateOp]:
    kind = op.kind
    if kind in SERVER_KINDS or kind is Gate.MEASURE:
        return [op]
    if kind is Gate.Z:
        return [sv.rz(PI, op.qubits[0])]
    if kind is Gate.S:
        return [sv.rz(PI / 2, op.qubits[0])]
    if kind is Gate.T:
        return [sv.rz(PI / 4, op.qubits[0])]
    if kind is Gate.X:
        q = op.qubits[0]
        return [sv.h(q), sv.rz(PI, q), sv.h(q)]
    if kind is Gate.CX:
        c, t = op.qubits
        return [sv.h(t), sv.cz(c, t), sv.h(t)]
    if kind is Gate.SWAP:
        a, b = op.qubits
        out = []
        for cx_op in (sv.cx(a, b), sv.cx(b, a), sv.cx(a, b)):
            out += _expand(cx_op)
        return out
    if kind is Gate.CCX:
        a, b, c = op.qubits
        quarter = PI / 4
        ladder = [
            sv.h(c),
            sv.cx(b, c), sv.rz(-quarter, c),
            sv.cx(a, c), sv.rz(quarter, c),
            sv.cx(b, c), sv.rz(-quarter, c),
            sv.cx(a, c), sv.rz(quarter, b), sv.rz(quarter, c),
            sv.h(c),
            sv.cx(a, b), sv.rz(quarter, a), sv.rz(-quarter, b),
            sv.cx(a, b),
        ]
        out = []
        for g in ladder:
            out += _expand(g)
        return out
    if kind is Gate.U:
        q = op.qubits[0]
        alpha, beta, gamma = euler_zxz(op.matrix)
        return [
            sv.rz(gamma, q), sv.h(q), sv.rz(beta, q), sv.h(q),
            sv.rz(alpha, q),
        ]
    raise ValueError(f"no lowering rule for {kind.value}")


def lower(circuit: Circuit) -> Circuit:
    """Rewrite into {h, cz, rz} (+ measure), equal up to a global phase."""
    ops: list[GateOp] = []
    for op in circuit.ops:
        ops += _expand(op)
    return Circuit(circuit.n_qubits, tuple(ops))
