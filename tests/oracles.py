"""Reference code the tests pin the package against; no command runs it.

A value-object statevector simulator (``apply`` returns a fresh
``Statevector``) with its own gate matrices, so it shares no kernel with
the engine it checks, the key-rule verifier for ``paulis.key_update``, the
T-gate measurement gadget (the route to a non-Clifford gate that lowering
``t`` to an ``rz`` ladder replaces), angle reconstruction and the
per-digit flags, lowering's equivalence check on random probe states, and
the list-based fold the ladder pass (``session.Session.ladder``) must
match.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from blindqc import statevec as sv
from blindqc.angles import PI, AngleDigits
from blindqc.circuits import Circuit
from blindqc.paulis import Pair, PauliKey, key_update, pad_ops, unpad_ops
from blindqc.statevec import DensityMatrix, Gate, GateOp, Statevector

X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
Z_MAT = np.array([[1, 0], [0, -1]], dtype=complex)
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
S_MAT = np.array([[1, 0], [0, 1j]], dtype=complex)
T_MAT = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
# multi-qubit matrices take op.qubits[0] as the most significant index bit
_FIXED_MATRICES = {
    Gate.X: X_MAT, Gate.Z: Z_MAT, Gate.H: H_MAT, Gate.S: S_MAT, Gate.T: T_MAT,
    Gate.CX: np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    Gate.CZ: np.diag([1, 1, 1, -1]).astype(complex),
    Gate.SWAP: np.eye(4, dtype=complex)[[0, 2, 1, 3]],
    Gate.CCX: np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]],
}


def rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


def gate_matrix(op: GateOp) -> np.ndarray:
    """The 2^k x 2^k matrix of a unitary op on k qubits."""
    if op.kind is Gate.RZ:
        return rz_matrix(op.angle)
    if op.kind is Gate.U:
        return op.matrix
    if op.kind not in _FIXED_MATRICES:
        raise ValueError(f"{op.kind.value} is not a unitary gate")
    return _FIXED_MATRICES[op.kind]


def validate_density(rho: DensityMatrix, tol: float = 1e-9) -> None:
    """Check hermiticity, unit trace and positivity within ``tol``."""
    if np.abs(rho.mat - rho.mat.conj().T).max() > tol:
        raise ValueError("density matrix is not hermitian")
    if abs(np.trace(rho.mat) - 1.0) > tol:
        raise ValueError("density matrix trace is not 1")
    if np.linalg.eigvalsh(rho.mat).min() < -tol:
        raise ValueError("density matrix has a negative eigenvalue")


def new_state(n_qubits: int, amps: np.ndarray | None = None) -> Statevector:
    """|0...0> on ``n_qubits`` qubits, or a validated custom amplitude vector."""
    if amps is None:
        a = np.zeros(2**n_qubits, dtype=complex)
        a[0] = 1.0
        return Statevector(n_qubits, a)
    a = np.asarray(amps, dtype=complex)
    n = abs(np.linalg.norm(a) - 1.0)
    if n > 1e-9:
        raise ValueError(f"amplitudes are not normalized (off by {n:.2e})")
    return Statevector(n_qubits, a.copy())


def norm(state: Statevector) -> float:
    """2-norm of the amplitude vector."""
    return float(np.linalg.norm(state.amps))


def random_state(n_qubits: int, rng: np.random.Generator) -> Statevector:
    a = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return Statevector(n_qubits, a / np.linalg.norm(a))


def _contract(psi: np.ndarray, n: int, ops) -> np.ndarray:
    """``psi`` after the unitary ``ops``: each op's matrix is contracted
    onto its qubits' axes, qubit q being axis n - 1 - q.  Axes past the
    first n are carried along untouched."""
    for op in ops:
        for q in op.qubits:
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range for {n} qubits")
        k = len(op.qubits)
        axes = [n - 1 - q for q in op.qubits]
        gate = gate_matrix(op).reshape([2] * (2 * k))
        psi = np.moveaxis(np.tensordot(gate, psi, (range(k, 2 * k), axes)),
                          range(k), axes)
    return psi


def apply(state: Statevector, *ops: GateOp) -> Statevector:
    """Apply unitary gates in order and return the new state."""
    n = state.n_qubits
    return Statevector(n, _contract(state.amps.reshape([2] * n), n, ops)
                       .reshape(-1))


def fidelity(a: Statevector, b: Statevector) -> float:
    return float(np.abs(np.vdot(a.amps, b.amps)) ** 2)


def phase_aligned_distance(a: Statevector, b: Statevector) -> float:
    """max_i |a_i - e^{i phi} b_i| with phi chosen to cancel the global phase."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states have different qubit counts")
    ip = np.vdot(b.amps, a.amps)
    phase = ip / abs(ip) if abs(ip) > 1e-300 else 1.0
    return float(np.abs(a.amps - phase * b.amps).max())


def reduced_density(amps: np.ndarray, keep) -> np.ndarray:
    """Reduced density of the distinct wires ``keep`` (qubit ``keep[j]`` is
    bit j of the row index) as one einsum of the amplitude tensor with its
    conjugate: each traced wire shares its subscript, each kept wire gets
    its own on the bra side."""
    n = amps.size.bit_length() - 1
    psi = amps.reshape([2] * n)  # axis n - 1 - q is qubit q
    bra = list(range(n))
    for j, q in enumerate(keep):
        bra[n - 1 - q] = n + j
    rows = [n - 1 - q for q in reversed(keep)]
    cols = [n + j for j in reversed(range(len(keep)))]
    rho = np.einsum(psi, list(range(n)), psi.conj(), bra, rows + cols)
    return rho.reshape(2 ** len(keep), -1)


def ensemble_density(states, weights=None) -> DensityMatrix:
    """Weighted mixture sum_i w_i |psi_i><psi_i| (uniform weights by default)."""
    states = list(states)
    if not states:
        raise ValueError("empty ensemble")
    if weights is None:
        weights = [1.0 / len(states)] * len(states)
    if len(weights) != len(states) or abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("weights must match states and sum to 1")
    dim = states[0].amps.size
    rho = np.zeros((dim, dim), dtype=complex)
    for w, st in zip(weights, states):
        if st.amps.size != dim:
            raise ValueError("mixed register sizes in ensemble")
        rho += w * np.outer(st.amps, st.amps.conj())
    return DensityMatrix(dim, rho)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) * trace norm of rho - sigma."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    eigs = np.linalg.eigvalsh(rho.mat - sigma.mat)
    return float(0.5 * np.sum(np.abs(eigs)))


def maximally_mixed(n_qubits: int) -> DensityMatrix:
    dim = 2**n_qubits
    return DensityMatrix(dim, np.eye(dim, dtype=complex) / dim)


def append_qubits(state: Statevector, k: int) -> Statevector:
    """Adjoin ``k`` fresh |0> qubits above the current high qubit."""
    if state.n_qubits + k > sv.MAX_QUBITS:
        raise ValueError(f"register would exceed {sv.MAX_QUBITS} qubits")
    amps = np.zeros(2 ** (state.n_qubits + k), dtype=complex)
    amps[: state.amps.size] = state.amps
    return Statevector(state.n_qubits + k, amps)


def ops_unitary(n_qubits: int, ops) -> np.ndarray:
    """Full matrix of an op list: the ops applied to every basis column."""
    dim = 2**n_qubits
    basis = np.eye(dim, dtype=complex).reshape([2] * n_qubits + [dim])
    return _contract(basis, n_qubits, ops).reshape(dim, dim)


def zero_key(n: int) -> PauliKey:
    return PauliKey(((0, 0),) * n)


def random_key(n: int, rng: np.random.Generator) -> PauliKey:
    bits = rng.integers(0, 2, size=(n, 2))
    return PauliKey(tuple((int(a), int(b)) for a, b in bits))


def all_keys(n: int):
    """Every pad assignment on ``n`` qubits, in lexicographic order."""
    for bits in itertools.product((0, 1), repeat=2 * n):
        yield PauliKey(tuple((bits[2 * i], bits[2 * i + 1]) for i in range(n)))


def encrypt(state: Statevector, key: PauliKey, qubits=None) -> Statevector:
    return apply(state, *pad_ops(key.pairs, qubits))


def decrypt(state: Statevector, key: PauliKey, qubits=None) -> Statevector:
    return apply(state, *unpad_ops(key.pairs, qubits))


def verify_key_update(op: GateOp, key: PauliKey, rng: np.random.Generator,
                      trials: int = 2) -> float:
    """Max-norm deviation of U.P|psi> from i^k.C.P'.U|psi> on random states."""
    n = max(op.qubits) + 1
    if key.n_qubits != n:
        raise ValueError("key must cover exactly the gate's wire span")
    upd = key_update(op, key)
    worst = 0.0
    for _ in range(trials):
        psi = random_state(n, rng)
        lhs = apply(encrypt(psi, key), op)
        rhs = encrypt(apply(psi, op), upd.new_key)
        rhs = apply(rhs, *upd.corrections)
        rhs_amps = (1j ** upd.phase_exponent) * rhs.amps
        worst = max(worst, float(np.abs(lhs.amps - rhs_amps).max()))
    return worst


def one_time_pad_density(state: Statevector) -> DensityMatrix:
    """Exact average of P(key)|psi><psi|P(key)^dag over every key.

    For any input this is the maximally mixed state.
    """
    return ensemble_density([encrypt(state, k) for k in all_keys(state.n_qubits)])


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
    reg = append_qubits(padded, 1)
    prep = [sv.h(1)]
    if d:
        prep.append(sv.z(1))
    if y:
        prep.append(sv.s(1))
    reg = apply(reg, *prep, sv.t(0), sv.cx(1, 0))
    reg, m = sv.measure_qubit(reg, 0, u=u, rng=rng)
    return drop_qubit(reg, 0, m), m


def drop_qubit(state: Statevector, q: int, bit: int) -> Statevector:
    """Remove qubit ``q``, which must hold the basis state ``bit`` exactly."""
    view = state.amps.reshape(-1, 2, 1 << q)
    gone = view[:, 1 - bit, :]
    if float(np.linalg.norm(gone)) > 1e-9:
        raise ValueError(f"qubit {q} is not in |{bit}>")
    kept = view[:, bit, :].reshape(-1)
    return Statevector(state.n_qubits - 1, kept)


def nonzero_flags(d: AngleDigits) -> tuple[int, ...]:
    """Per digit: 1 when a rotation is actually encoded, else 0."""
    return tuple(abs(dig) for dig in d.digits)


def negative_flags(d: AngleDigits) -> tuple[int, ...]:
    """Per digit: 1 when the encoded rotation is negative, else 0."""
    return tuple(1 if dig < 0 else 0 for dig in d.digits)


def reconstruct(d: AngleDigits) -> float:
    """Angle encoded by the digit string (drops only the remainder)."""
    frac = sum(dig / 2**m for m, dig in enumerate(d.digits, start=1))
    return d.half_turns * PI + frac * PI


def impurity(d: AngleDigits) -> float:
    """Extra rotation the protocol applies on top of the encoded fraction."""
    return sum((1 - dig) * PI / 2**m for m, dig in enumerate(d.digits, start=1))


def delegation_angle(half_turns: int, n_digits: int) -> float:
    """reconstruct + impurity for any digit string: digit-independent."""
    return half_turns * PI + PI - PI / 2**n_digits


def remainder(d: AngleDigits) -> float:
    return d.theta - reconstruct(d)


def gate_counts(circuit: Circuit) -> dict[str, int]:
    counts: dict[str, int] = {}
    for op in circuit.ops:
        counts[op.kind.value] = counts.get(op.kind.value, 0) + 1
    return counts


def has_measurements(circuit: Circuit) -> bool:
    return any(op.kind is Gate.MEASURE for op in circuit.ops)


def check_equivalent(original: Circuit, lowered: Circuit, *, probes: int = 3,
                     rng: np.random.Generator | None = None) -> float:
    """Max phase-aligned deviation over random probe states.

    Only meaningful for unitary circuits; raises if either side measures.
    """
    if has_measurements(original) or has_measurements(lowered):
        raise ValueError("cannot compare circuits containing measurements")
    if original.n_qubits != lowered.n_qubits:
        raise ValueError("qubit counts differ")
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for _ in range(probes):
        probe = random_state(original.n_qubits, rng)
        a = apply(probe, *original.ops)
        b = apply(probe, *lowered.ops)
        worst = max(worst, phase_aligned_distance(a, b))
    return worst


@dataclass
class ListPair:
    """The reference's own copy of a split pair: the reduced density as
    nested lists, and U = the identity with float phases 1.0."""

    wires: tuple[int, int]
    rho: list
    perm: tuple[int, ...] = (0, 1, 2, 3)
    phases: tuple = (1.0, 1.0, 1.0, 1.0)


def pair_run_block(pair: ListPair, wire: int, rounds) -> np.ndarray:
    """The ladder's fold as list rebuilds and index searches, one round at
    a time: the reference the table-driven pass must match byte for byte.
    A round is (before, (down, up), after): the x, z and swap ops before
    the send, the received rz as ``rz_phases`` gives it, and the ops after
    the reply.

    U|j> = phases[j]|perm[j]>; the wire reads 0 at basis states 0 and
    3 - bit, which U sends from a and b, and 1 at bit and 3, sent from c
    and d.  Phases start as float 1.0, z is a negation and the received rz
    multiplies, so each step does the same float operations in the same
    order as the package; signed zeros survive into the bytes.
    """
    if wire not in pair.wires:
        raise ValueError(f"wire {wire} is outside the pair {pair.wires}")
    bit = 1 if wire == pair.wires[0] else 2
    perm, phases, rho = pair.perm, pair.phases, pair.rho
    states = []
    for before, (down, up), after in rounds:
        perm, phases = _pair_fold(before, bit, perm, phases)
        a, b, c, d = [perm.index(x) for x in (0, 3 - bit, bit, 3)]
        zero, one = rho[a][a] + rho[b][b], rho[c][c] + rho[d][d]
        off = _pair_coherence(rho, phases, a, b, c, d)
        states.append([[zero, off], [off.conjugate(), one]])
        phases = [v * (up if k & bit else down)
                  for k, v in zip(perm, phases)]
        off = _pair_coherence(rho, phases, a, b, c, d)
        states.append([[zero, off], [off.conjugate(), one]])
        perm, phases = _pair_fold(after, bit, perm, phases)
    pair.perm, pair.phases = tuple(perm), tuple(phases)
    return np.array(states, dtype=complex)


def _pair_coherence(rho, ph, a: int, b: int, c: int, d: int) -> complex:
    """The wire's <0|.|1> entry of U rho U^dagger."""
    return (ph[a] * rho[a][c] * ph[c].conjugate()
            + ph[b] * rho[b][d] * ph[d].conjugate())


def _pair_fold(kinds, bit: int, perm, phases):
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
