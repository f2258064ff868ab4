"""Dense statevector simulator for small registers.

Conventions used across the package:

* little-endian indexing: qubit ``q`` is bit ``q`` of the amplitude index,
  so qubit 0 is the least significant bit;
* ``Rz(theta) = diag(exp(-i theta/2), exp(+i theta/2))``;
* ``S = diag(1, i)`` and ``T = diag(1, exp(i pi/4))``;
* registers are capped at ``MAX_QUBITS`` qubits.

States are value objects: ``measure_qubit`` and ``drop_qubit`` return a
fresh ``Statevector`` and never mutate their input.  Ops are too: a
``GateOp`` is frozen, and the ``x``, ``z``, ``h``, ``cz`` and ``swap``
factories return one shared op per qubit tuple (qubits normalised to plain
``int``), so the protocol's round loop builds no op twice.  The in-place
``_apply_*`` kernels serve the protocol engine, which owns a private
buffer.  The reference simulator the tests compare against (``apply``,
random states, mixtures and distances) lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import cmath
import functools
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

MAX_QUBITS = 12

SQRT_HALF = 1.0 / np.sqrt(2.0)

H_MAT = np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], dtype=complex)
S_MAT = np.array([[1, 0], [0, 1j]], dtype=complex)
T_MAT = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)


class Gate(str, Enum):
    """Gate vocabulary for circuits and protocol messages."""

    X = "x"
    Z = "z"
    H = "h"
    S = "s"
    T = "t"
    CX = "cx"
    CZ = "cz"
    CCX = "ccx"
    RZ = "rz"
    SWAP = "swap"
    MEASURE = "measure"
    # U is an in-memory-only kind carrying an explicit 2x2 matrix, so that
    # arbitrary single-qubit unitaries can be fed to the lowering pass.  The
    # circuit file format intentionally does not serialize it.
    U = "u"


GATE_ARITY = {
    Gate.X: 1,
    Gate.Z: 1,
    Gate.H: 1,
    Gate.S: 1,
    Gate.T: 1,
    Gate.CX: 2,
    Gate.CZ: 2,
    Gate.CCX: 3,
    Gate.RZ: 1,
    Gate.SWAP: 2,
    Gate.MEASURE: 1,
    Gate.U: 1,
}


@dataclass(frozen=True)
class GateOp:
    """One gate application: a kind, target qubits, and optional payload."""

    kind: Gate
    qubits: tuple[int, ...]
    angle: float | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if len(self.qubits) != GATE_ARITY[self.kind]:
            raise ValueError(
                f"{self.kind.value} takes {GATE_ARITY[self.kind]} qubit(s), "
                f"got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in {self.kind.value}{self.qubits}")
        if (self.angle is not None) != (self.kind is Gate.RZ):
            raise ValueError("angle is required for rz and forbidden elsewhere")
        if (self.matrix is not None) != (self.kind is Gate.U):
            raise ValueError("matrix payload is required for u and forbidden elsewhere")
        if self.matrix is not None and self.matrix.shape != (2, 2):
            raise ValueError("u payload must be a 2x2 matrix")


# Small factories; tests and the lowering pass read much better with these.
# bounded, yet above the 300 distinct ops these factories can make on
# MAX_QUBITS wires, so the register's own ops stay cached
@functools.lru_cache(maxsize=1024)
def _shared(kind: str, *qubits: int) -> GateOp:
    """The one ``GateOp`` of ``kind`` on ``qubits``, built on first use."""
    return GateOp(Gate(kind), qubits)


def x(q: int) -> GateOp:
    return _shared("x", operator.index(q))


def z(q: int) -> GateOp:
    return _shared("z", operator.index(q))


def h(q: int) -> GateOp:
    return _shared("h", operator.index(q))


def s(q: int) -> GateOp:
    return GateOp(Gate.S, (q,))


def t(q: int) -> GateOp:
    return GateOp(Gate.T, (q,))


def cx(control: int, target: int) -> GateOp:
    return GateOp(Gate.CX, (control, target))


def cz(a: int, b: int) -> GateOp:
    return _shared("cz", operator.index(a), operator.index(b))


def ccx(c1: int, c2: int, target: int) -> GateOp:
    return GateOp(Gate.CCX, (c1, c2, target))


def rz(theta: float, q: int) -> GateOp:
    return GateOp(Gate.RZ, (q,), angle=float(theta))


def swap(a: int, b: int) -> GateOp:
    return _shared("swap", operator.index(a), operator.index(b))


def measure(q: int) -> GateOp:
    return GateOp(Gate.MEASURE, (q,))


def u(matrix: np.ndarray, q: int) -> GateOp:
    return GateOp(Gate.U, (q,), matrix=np.asarray(matrix, dtype=complex))


@dataclass(frozen=True)
class Statevector:
    """Normalized pure state of ``n_qubits`` qubits (little-endian amplitudes)."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")
        # freeze a view, so the caller's own array stays writable
        a = np.asarray(self.amps, dtype=complex).view()
        if a.shape != (2**self.n_qubits,):
            raise ValueError("amplitude length does not match qubit count")
        object.__setattr__(self, "amps", a)
        a.setflags(write=False)


@dataclass(frozen=True)
class DensityMatrix:
    """Density operator on ``dim`` basis states."""

    dim: int
    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mat, dtype=complex).view()
        if m.shape != (self.dim, self.dim):
            raise ValueError("density matrix shape does not match dim")
        object.__setattr__(self, "mat", m)
        m.setflags(write=False)


# ---------------------------------------------------------------------------
# in-place kernels (shared with the protocol engine)
# ---------------------------------------------------------------------------


def _apply_1q(amps: np.ndarray, mat: np.ndarray, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    lo = view[:, 0, :].copy()
    hi = view[:, 1, :]
    view[:, 0, :] = mat[0, 0] * lo + mat[0, 1] * hi
    view[:, 1, :] = mat[1, 0] * lo + mat[1, 1] * hi


def _apply_x(amps: np.ndarray, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    lo = view[:, 0, :].copy()
    view[:, 0, :] = view[:, 1, :]
    view[:, 1, :] = lo


def _apply_z(amps: np.ndarray, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    view[:, 1, :] *= -1.0


def _apply_rz(amps: np.ndarray, theta: float, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    view[:, 0, :] *= np.exp(-0.5j * theta)
    view[:, 1, :] *= np.exp(0.5j * theta)


def _apply_cx(amps: np.ndarray, controls: tuple[int, ...], target: int) -> None:
    """Flip qubit ``target`` where every qubit in ``controls`` is 1."""
    n = amps.size.bit_length() - 1
    view = amps.reshape([2] * n)
    # axis n-1-q corresponds to qubit q after reshape
    lo = [slice(None)] * n
    for c in controls:
        lo[n - 1 - c] = 1
    hi = list(lo)
    lo[n - 1 - target], hi[n - 1 - target] = 0, 1
    lo, hi = tuple(lo), tuple(hi)
    flipped = view[hi].copy()
    view[hi] = view[lo]
    view[lo] = flipped


def _apply_cz(amps: np.ndarray, a: int, b: int) -> None:
    lo, hi = sorted((a, b))
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    view[:, 1, :, 1, :] *= -1.0


def _apply_swap(amps: np.ndarray, a: int, b: int) -> None:
    lo, hi = sorted((a, b))
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    one_zero = view[:, 1, :, 0, :].copy()
    view[:, 1, :, 0, :] = view[:, 0, :, 1, :]
    view[:, 0, :, 1, :] = one_zero


def _measure(amps: np.ndarray, q: int, u: float) -> int:
    """Collapse qubit ``q`` in place (outcome 1 iff ``u < p1``); renormalize."""
    view = amps.reshape(-1, 2, 1 << q)
    p1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
    outcome = 1 if u < p1 else 0
    view[:, 1 - outcome, :] = 0.0
    amps /= np.linalg.norm(amps)
    return outcome


def _partial_trace(amps: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix of the distinct ascending wires ``keep``.

    Qubit ``keep[j]`` is bit j of the row index.  The kept amplitudes are
    gathered into rows and multiplied once by their adjoint.  Top wires
    already sit in row order; that shortcut builds the same rows as the
    general transpose, so the result is bit-for-bit the same.
    """
    n = amps.size.bit_length() - 1
    k = len(keep)
    if keep[0] == n - k:
        moved = amps.reshape(1 << k, -1)
    else:
        # axis n-1-q corresponds to qubit q after reshape
        keep_axes = [n - 1 - q for q in reversed(keep)]
        other_axes = [ax for ax in range(n) if ax not in keep_axes]
        moved = np.transpose(amps.reshape([2] * n),
                             keep_axes + other_axes).reshape(1 << k, -1)
    return moved @ moved.conj().T


# kind -> in-place kernel; measure has none
_KERNELS = {
    Gate.RZ: lambda amps, op: _apply_rz(amps, op.angle, op.qubits[0]),
    Gate.X: lambda amps, op: _apply_x(amps, op.qubits[0]),
    Gate.Z: lambda amps, op: _apply_z(amps, op.qubits[0]),
    Gate.H: lambda amps, op: _apply_1q(amps, H_MAT, op.qubits[0]),
    Gate.S: lambda amps, op: _apply_1q(amps, S_MAT, op.qubits[0]),
    Gate.T: lambda amps, op: _apply_1q(amps, T_MAT, op.qubits[0]),
    Gate.U: lambda amps, op: _apply_1q(amps, op.matrix, op.qubits[0]),
    Gate.CX: lambda amps, op: _apply_cx(amps, op.qubits[:-1], op.qubits[-1]),
    Gate.CCX: lambda amps, op: _apply_cx(amps, op.qubits[:-1], op.qubits[-1]),
    Gate.CZ: lambda amps, op: _apply_cz(amps, op.qubits[0], op.qubits[1]),
    Gate.SWAP: lambda amps, op: _apply_swap(amps, op.qubits[0], op.qubits[1]),
}


def _apply_op(amps: np.ndarray, op: GateOp) -> None:
    if op.kind not in _KERNELS:
        raise ValueError(f"cannot apply {op.kind.value} as a unitary; use measure_qubit")
    _KERNELS[op.kind](amps, op)


@functools.lru_cache(maxsize=1024)
def rz_phases(theta: float) -> tuple[complex, complex]:
    """(exp(-i theta/2), exp(+i theta/2)), the diagonal of Rz(theta)."""
    return cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)


class WirePair:
    """Wires ``lo < hi`` split off a register while only x, z, rz and swap
    act on them.

    ``rho`` is their reduced density at the split (basis index bit(lo) +
    2 bit(hi)).  The gates are monomial, so the net op since the split is
    U|j> = phases[j]|perm[j]>, and the pair's state is U rho U^dagger
    exactly, however entangled with wires that see no gate meanwhile.
    ``run_block`` rebinds U's tuples, so a shallow copy is a snapshot.
    """

    def __init__(self, amps: np.ndarray, lo: int, hi: int):
        self.wires = (lo, hi)
        self.rho = _partial_trace(amps, self.wires).tolist()
        self.perm, self.phases = (0, 1, 2, 3), (1.0, 1.0, 1.0, 1.0)

    def run_block(self, wire: int, rounds) -> np.ndarray:
        """U <- (the rounds' ops) U, and ``wire``'s 2x2 state as each of the
        r >= 1 rounds sends it and gets it back: one (2r, 2, 2) array.

        A round is (before, (down, up), after).  ``before`` and ``after``
        name the x, z and swap ops applied before the send and after the
        reply; x and z act on ``wire`` and swap exchanges the pair.
        (down, up) is the received rz as ``rz_phases`` gives it.
        """
        if wire not in self.wires:
            raise ValueError(f"wire {wire} is outside the pair {self.wires}")
        bit = 1 if wire == self.wires[0] else 2
        perm, phases, rho = self.perm, self.phases, self.rho
        states = []
        for before, (down, up), after in rounds:
            perm, phases = _fold(before, bit, perm, phases)
            # the wire reads 0 at basis states 0 and 3 - bit, which U sends
            # from a and b, and 1 at bit and 3, sent from c and d; phases
            # have modulus 1, so the rz leaves the diagonal as it is
            a, b, c, d = [perm.index(x) for x in (0, 3 - bit, bit, 3)]
            zero, one = rho[a][a] + rho[b][b], rho[c][c] + rho[d][d]
            off = _coherence(rho, phases, a, b, c, d)
            states.append([[zero, off], [off.conjugate(), one]])
            phases = [v * (up if k & bit else down)
                      for k, v in zip(perm, phases)]
            off = _coherence(rho, phases, a, b, c, d)
            states.append([[zero, off], [off.conjugate(), one]])
            perm, phases = _fold(after, bit, perm, phases)
        self.perm, self.phases = tuple(perm), tuple(phases)
        # one array that owns its memory, so no round's density has a
        # writable base
        return np.array(states, dtype=complex)

    def apply_to(self, amps: np.ndarray) -> None:
        """Apply U to the register ``amps`` in place."""
        lo, hi = self.wires
        view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        old = [view[:, j >> 1, :, j & 1, :].copy() for j in range(4)]
        for j, k in enumerate(self.perm):
            view[:, k >> 1, :, k & 1, :] = self.phases[j] * old[j]


def _coherence(rho, ph, a: int, b: int, c: int, d: int) -> complex:
    """The wire's <0|.|1> entry of U rho U^dagger, whose [x, y] entry is
    ph[i] rho[i][j] conj(ph[j]) for x = perm[i] and y = perm[j]; rho is
    hermitian, so the <1|.|0> entry is its conjugate."""
    return (ph[a] * rho[a][c] * ph[c].conjugate()
            + ph[b] * rho[b][d] * ph[d].conjugate())


def _fold(kinds, bit: int, perm, phases):
    """U after the named x, z and swap ops; x and z act on pair bit ``bit``."""
    for kind in kinds:
        if kind == "swap":
            perm = [(0, 2, 1, 3)[k] for k in perm]
        elif kind == "x":
            perm = [k ^ bit for k in perm]
        elif kind == "z":
            phases = [-v if k & bit else v for k, v in zip(perm, phases)]
        else:
            raise ValueError(f"{kind} is not a monomial pair gate")
    return perm, phases


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def measure_qubit(
    state: Statevector, q: int, *, u: float | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[Statevector, int]:
    """Projective computational-basis measurement of qubit ``q``.

    The outcome is drawn from ``u`` in [0, 1) when given, otherwise from
    ``rng``.  Returns the collapsed, renormalized state and the outcome bit.
    """
    if u is None:
        if rng is None:
            raise ValueError("measure_qubit needs either u or rng")
        u = float(rng.random())
    amps = state.amps.copy()
    outcome = _measure(amps, q, u)
    return Statevector(state.n_qubits, amps), outcome


def reduced_density(state: Statevector, keep) -> DensityMatrix:
    """Partial trace onto ``keep`` (ascending little-endian order preserved)."""
    keep = sorted(set(keep))
    n = state.n_qubits
    if any(q < 0 or q >= n for q in keep):
        raise ValueError("keep set out of range")
    if not keep:
        raise ValueError("keep set is empty")
    return DensityMatrix(2 ** len(keep), _partial_trace(state.amps, tuple(keep)))


def drop_qubit(state: Statevector, q: int, bit: int) -> Statevector:
    """Remove qubit ``q``, which must hold the basis state ``bit`` exactly."""
    view = state.amps.reshape(-1, 2, 1 << q)
    gone = view[:, 1 - bit, :]
    if float(np.linalg.norm(gone)) > 1e-9:
        raise ValueError(f"qubit {q} is not in |{bit}>")
    kept = view[:, bit, :].reshape(-1)
    return Statevector(state.n_qubits - 1, kept)
