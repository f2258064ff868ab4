"""Dense statevector simulator for small registers.

Conventions used across the package:

* little-endian indexing: qubit ``q`` is bit ``q`` of the amplitude index,
  so qubit 0 is the least significant bit;
* ``Rz(theta) = diag(exp(-i theta/2), exp(+i theta/2))``;
* ``S = diag(1, i)`` and ``T = diag(1, exp(i pi/4))``;
* registers are capped at ``MAX_QUBITS`` qubits.

States are value objects: ``measure_qubit`` returns a fresh
``Statevector`` and never mutates its input.  Ops are too: a
``GateOp`` is frozen, and the ``x``, ``z``, ``h``, ``cz`` and ``swap``
factories return one shared op per qubit tuple (qubits normalised to plain
``int``), so the protocol's round loop builds no op twice.  The in-place
``_apply_*`` kernels serve the protocol engine, which owns a private
buffer, and cover only the six kinds the protocol applies (the client's
x, z and swap, the server's h, cz and rz), on an op's wires or on ones a
caller names.  Lowering rewrites a circuit's gates into h, cz and rz.
An rz ladder runs on a ``WirePair``, a density and a monomial net op U;
``pair_moves`` tabulates how x, z and swap move U, for lookups.
The reference simulator the tests compare against (``apply`` with its
own gate matrices, random states, mixtures and distances) lives in
``tests/oracles.py``.
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
        if min(self.qubits) < 0:
            raise ValueError(f"negative qubit in {self.kind.value}{self.qubits}")
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


def _apply_h(amps: np.ndarray, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    lo, hi = view[:, 0, :], view[:, 1, :]
    lo[...], hi[...] = lo + hi, lo - hi
    view *= SQRT_HALF


def _apply_x(amps: np.ndarray, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    # numpy buffers an assignment from memory it overlaps
    view[...] = view[:, ::-1, :]


def _apply_z(amps: np.ndarray, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    view[:, 1, :] *= -1.0


def _apply_rz(amps: np.ndarray, phases: tuple[complex, complex],
              q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    view[:, 0, :] *= phases[0]
    view[:, 1, :] *= phases[1]


def _apply_cz(amps: np.ndarray, a: int, b: int) -> None:
    lo, hi = sorted((a, b))
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    view[:, 1, :, 1, :] *= -1.0


def _apply_swap(amps: np.ndarray, a: int, b: int) -> None:
    lo, hi = sorted((a, b))
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    one_zero, zero_one = view[:, 1, :, 0, :], view[:, 0, :, 1, :]
    one_zero[...], zero_one[...] = zero_one.copy(), one_zero.copy()


def _measure(amps: np.ndarray, q: int, u: float) -> int:
    """Collapse qubit ``q`` in place (outcome 1 iff ``u < p1``); renormalize."""
    view = amps.reshape(-1, 2, 1 << q)
    p1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
    outcome = 1 if u < p1 else 0
    view[:, 1 - outcome, :] = 0.0
    amps /= np.linalg.norm(amps)
    return outcome


def _rows(amps: np.ndarray, keep) -> np.ndarray:
    """The amplitudes as a (2^k, rest) matrix, bit j of the row for wire
    ``keep[j]``; the shortcuts build the general transpose's rows."""
    n = amps.size.bit_length() - 1
    k = len(keep)
    if tuple(keep) == tuple(range(n - k, n)):
        return amps.reshape(1 << k, -1)
    if k == 1:
        return amps.reshape(-1, 2, 1 << keep[0]).swapaxes(0, 1).reshape(2, -1)
    # axis n-1-q corresponds to qubit q after reshape
    keep_axes = [n - 1 - q for q in reversed(keep)]
    other_axes = [ax for ax in range(n) if ax not in keep_axes]
    return np.transpose(amps.reshape([2] * n),
                        keep_axes + other_axes).reshape(1 << k, -1)


# kind -> in-place kernel on wires q, for the six kinds the protocol applies
_KERNELS = {
    Gate.RZ: lambda amps, op, q: _apply_rz(amps, rz_phases(op.angle), q[0]),
    Gate.X: lambda amps, op, q: _apply_x(amps, q[0]),
    Gate.Z: lambda amps, op, q: _apply_z(amps, q[0]),
    Gate.H: lambda amps, op, q: _apply_h(amps, q[0]),
    Gate.CZ: lambda amps, op, q: _apply_cz(amps, q[0], q[1]),
    Gate.SWAP: lambda amps, op, q: _apply_swap(amps, q[0], q[1]),
}


def _apply_op(amps: np.ndarray, op: GateOp, qubits=None) -> None:
    """Apply ``op`` in place, on ``qubits`` instead of its own when given."""
    if op.kind not in _KERNELS:
        kinds = ", ".join(kind.value for kind in _KERNELS)
        raise ValueError(f"no kernel for {op.kind.value}: the protocol "
                         f"applies only {kinds}")
    _KERNELS[op.kind](amps, op, qubits or op.qubits)


@functools.lru_cache(maxsize=1024)
def rz_phases(theta: float) -> tuple[complex, complex]:
    """(exp(-i theta/2), exp(+i theta/2)), the diagonal of Rz(theta)."""
    return cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)


class WirePair:
    """Register wire ``q`` and a wire ``transit > q`` in |0>, split off
    while only x, z, rz and swap act on them.

    ``rho`` is their density at the split, rho_q (x) |0><0| (basis index
    bit(q) + 2 bit(transit)).  The gates are monomial, so the net op since
    the split is U|j> = phases[j]|perm[j]>, and the pair's state is
    U rho U^dagger exactly, however entangled q is with the rest.
    ``Session.ladder`` moves U through the tables ``pair_moves`` builds
    and rebinds its tuples, so a snapshot (``copy``) shares ``rho``.
    """

    def __init__(self, amps: np.ndarray, q: int, transit: int):
        self.wires = (q, transit)
        rows = _rows(amps, (q,))
        (a, b), (c, d) = (rows @ rows.conj().T).tolist()
        self.rho = [[a, b, 0j, 0j], [c, d, 0j, 0j], [0j] * 4, [0j] * 4]
        self.perm, self.phases = (0, 1, 2, 3), (1.0, 1.0, 1.0, 1.0)

    def copy(self, **u) -> WirePair:
        """A snapshot of the pair, sharing its (never mutated) values, with
        U's ``perm`` and ``phases`` as given in ``u``."""
        twin = object.__new__(WirePair)
        twin.__dict__.update(self.__dict__, **u)
        return twin

    def apply_to(self, amps: np.ndarray) -> None:
        """Apply U, which must keep transit in |0>, to wire q of ``amps``,
        each phase, a product of many rounds', back on the unit circle."""
        view = amps.reshape(-1, 2, 1 << self.wires[0])
        old = [view[:, 0, :].copy(), view[:, 1, :].copy()]
        for j in (0, 1):
            view[:, self.perm[j], :] = self.phases[j] / abs(
                self.phases[j]) * old[j]


# swap of the pair's two wires, as a map of basis states
_SWAP = (0, 2, 1, 3)
# The permutations U can reach from the identity under x on either wire
# and swap: j -> j ^ f, or j -> swap(j) ^ f; the identity comes first.
_PERMS = tuple(tuple(_SWAP[j] ^ f if swapped else j ^ f for j in range(4))
               for swapped in (0, 1) for f in range(4))


def pair_moves(kinds, bit: int) -> tuple:
    """Per permutation in ``_PERMS``: its index after the x, z and swap
    ops in ``kinds``, one at a time (x and z on pair bit ``bit``), the
    phases their z's negate, and the states a, b, c, d it then sends to 0,
    3 - bit, bit and 3: the wire reads 0 at a and b, 1 at c and d."""
    index = {perm: i for i, perm in enumerate(_PERMS)}
    moves = []
    for perm in _PERMS:
        negated = set()
        for kind in kinds:
            if kind == "x":
                perm = tuple(k ^ bit for k in perm)
            elif kind == "swap":
                perm = tuple(_SWAP[k] for k in perm)
            elif kind == "z":
                negated ^= {j for j, k in enumerate(perm) if k & bit}
            else:
                raise ValueError(f"{kind} is not a monomial pair gate")
        moves.append((index[perm], tuple(sorted(negated)),
                      tuple(perm.index(k) for k in (0, 3 - bit, bit, 3))))
    return tuple(moves)


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
    rows = _rows(state.amps, keep)
    return DensityMatrix(2 ** len(keep), rows @ rows.conj().T)
