"""The benchmark's own reference: a small dense simulator and the round law.

Nothing here imports ``blindqc``.  Gates are plain tuples
``(name, qubits, angle)`` with the package's documented conventions:
little-endian amplitudes (qubit q is bit q of the index),
``Rz(t) = diag(exp(-i t/2), exp(+i t/2))``, ``S = diag(1, i)``,
``T = diag(1, exp(i pi/4))``.  A multi-qubit matrix reads its listed
qubits as the bits of the row index, first qubit most significant.
"""

from __future__ import annotations

import math

import numpy as np

PI = math.pi

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_FIXED = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
    "h": _H,
    "s": np.diag([1, 1j]),
    "t": np.diag([1, np.exp(1j * PI / 4)]),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "cx": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "swap": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
    "ccx": np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]],
}

# gates the protocol delegates; anything else must be lowered first
DELEGABLE = ("h", "cz", "rz")

FIDELITY_TOLERANCE = 1e-9


def precision_bits(epsilon: float) -> int:
    """Smallest M >= 1 with pi / 2^M <= epsilon."""
    return max(1, math.ceil(math.log2(PI / epsilon) - 1e-12))


def round_law(kinds, epsilon: float) -> int:
    """Round trips the protocol must spend: n_h + n_cz + n_rz * M(M+1)/2."""
    m = precision_bits(epsilon)
    kinds = list(kinds)
    bad = sorted(set(kinds) - set(DELEGABLE))
    if bad:
        raise ValueError(f"no round law for non-delegable gates {bad}")
    return (kinds.count("h") + kinds.count("cz")
            + kinds.count("rz") * m * (m + 1) // 2)


def snap(theta: float, n_digits: int) -> float:
    """The floor-digit approximant: pi*floor(theta/pi) + pi*floor(2^M x)/2^M."""
    half_turns = math.floor(theta / PI)
    x = (theta - half_turns * PI) / PI
    x = min(max(x, 0.0), math.nextafter(1.0, 0.0))
    return half_turns * PI + math.floor(2**n_digits * x) * PI / 2**n_digits


def _matrix(name: str, angle) -> np.ndarray:
    if name == "rz":
        return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])
    return _FIXED[name]


def simulate(n_qubits: int, gates) -> np.ndarray:
    """Amplitudes of ``gates`` applied to |0...0>."""
    psi = np.zeros([2] * n_qubits, dtype=complex)
    psi[(0,) * n_qubits] = 1.0
    for name, qubits, angle in gates:
        k = len(qubits)
        axes = [n_qubits - 1 - q for q in qubits]
        u = _matrix(name, angle).reshape([2] * (2 * k))
        psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), axes))
        psi = np.moveaxis(psi, list(range(k)), axes)
    return psi.reshape(-1)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


def check_run(n_qubits: int, gates, lowered, epsilon: float, amps,
              round_trips: int) -> list[str]:
    """Failure reasons for one run job; empty when the job is correct.

    ``gates`` is the circuit the benchmark generated, ``lowered`` the gate
    list the package produced from its text, ``amps`` the working-register
    state and ``round_trips`` the realized count.
    """
    kinds = [g[0] for g in lowered]
    try:
        law = round_law(kinds, epsilon)
    except ValueError as exc:
        return [str(exc)]
    out = []
    if round_trips != law:
        out.append(f"realized {round_trips} round trips, law says {law}")
    amps = np.asarray(amps, dtype=complex)
    if amps.shape != (2**n_qubits,):
        return out + [f"working state has shape {amps.shape}"]
    if abs(np.linalg.norm(amps) - 1.0) > FIDELITY_TOLERANCE:
        out.append("working state is not normalized")
    m = precision_bits(epsilon)
    snapped = [(g[0], g[1], snap(g[2], m)) if g[0] == "rz" else g
               for g in lowered]
    fid = fidelity(amps, simulate(n_qubits, snapped))
    if fid < 1.0 - FIDELITY_TOLERANCE:
        out.append(f"digit-snapped fidelity {fid!r} below 1 - 1e-9")
    half_angle = sum(abs(g[2] - s[2]) / 2
                     for g, s in zip(lowered, snapped) if g[0] == "rz")
    budget = math.sin(min(half_angle, PI / 2)) ** 2
    infid = 1.0 - fidelity(amps, simulate(n_qubits, gates))
    if infid > budget + 1e-12:
        out.append(f"infidelity {infid:.3e} vs exact circuit exceeds the "
                   f"truncation budget {budget:.3e}")
    return out


def check_audit(gates, epsilon: float, report: dict) -> list[str]:
    """Failure reasons for one exhaustive audit report."""
    out = []
    if report.get("pass") is not True:
        out.append("audit did not pass")
    if report.get("negative_control", {}).get("pass") is not True:
        out.append("negative control is not green")
    law = round_law([g[0] for g in gates], epsilon)
    if report.get("round_trips") != law:
        out.append(f"audit reports {report.get('round_trips')} round trips, "
                   f"law says {law}")
    return out


def nearby_state(amps: np.ndarray, angle: float = 1e-2) -> np.ndarray:
    """A unit vector at fidelity cos^2(angle) from ``amps``."""
    amps = np.asarray(amps, dtype=complex)
    basis = np.zeros_like(amps)
    basis[0 if abs(amps[0]) < 0.9 else 1] = 1.0
    perp = basis - np.vdot(amps, basis) * amps
    perp /= np.linalg.norm(perp)
    return math.cos(angle) * amps + math.sin(angle) * perp
