"""Reference derivations for one digit block, independent of the executor.

Two derivations of the block's action live here: ``block_ops`` builds
the full two-wire circuit (real swaps, real pads) for statevector
simulation, while ``swap_free_working_unitary`` tracks the working
qubit's slot classically and multiplies out only the 2x2 factors that
touch it.  Tests require both to agree with the closed form for every
key assignment, and ``sign_split_matrices`` checks the commutation
identity the schedule rests on.
"""

import math

import numpy as np

from blindqc import statevec as sv
from blindqc.paulis import pad_ops, unpad_ops
from blindqc.protocol import BlockPlan
from blindqc.statevec import GateOp
import oracles

PI = math.pi


def rz_conjugation_exponent(a: int, q: int) -> int:
    """Exponent of the Rz(2 theta) residual left after commuting past X^a."""
    return (a ^ q) & 1


def _pad_mat(a: int, b: int) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    if b:
        m = oracles.Z_MAT @ m
    if a:
        m = oracles.X_MAT @ m
    return m


def sign_split_matrices(theta: float, a: int, b: int, q: int):
    """Both sides of the residual-splitting identity

        Rz(theta) . X^a Z^b = Rz(2 theta)^{a xor q} . X^a Z^b . Rz((-1)^q theta)

    which holds exactly (no stray phase) for every (a, b, q).
    """
    pad = _pad_mat(a, b)
    lhs = oracles.rz_matrix(theta) @ pad
    residual = (oracles.rz_matrix(2 * theta) if rz_conjugation_exponent(a, q)
                else np.eye(2))
    rhs = residual @ pad @ oracles.rz_matrix((-1) ** q * theta)
    return lhs, rhs


def sign_split_residual(theta: float, a: int, b: int, q: int) -> float:
    lhs, rhs = sign_split_matrices(theta, a, b, q)
    return float(np.abs(lhs - rhs).max())


def block_rotation(plan: BlockPlan) -> float:
    """Net rotation the block applies to the working qubit."""
    if not plan.rounds:
        return 0.0
    return (-1) ** plan.negative * plan.nonzero * PI / 2**plan.rounds[0].index


def block_ops(plan: BlockPlan, transit: int, parked: int) -> list[GateOp]:
    """Whole block as a local gate list (server rotations included)."""
    ops: list[GateOp] = []
    if plan.initial_swap:
        ops.append(sv.swap(transit, parked))
    for r in plan.rounds:
        ops += pad_ops((r.pair,), (transit,))
        ops.append(sv.rz(PI / 2**r.index, transit))
        ops += unpad_ops(((r.pair[0], r.unpad_z),), (transit,))
        if r.swap_after:
            ops.append(sv.swap(transit, parked))
    return ops


def block_unitary(plan: BlockPlan) -> np.ndarray:
    """4x4 matrix of the block on (transit=qubit 0, parked=qubit 1)."""
    return oracles.ops_unitary(2, block_ops(plan, 0, 1))


def swap_free_working_unitary(plan: BlockPlan) -> np.ndarray:
    """2x2 action on the working qubit, derived without simulating swaps.

    Tracks which physical slot holds the working qubit and multiplies only
    the operators that land on it; the schedule must return it to the
    parked wire by the end.
    """
    w = np.eye(2, dtype=complex)
    in_transit = bool(plan.initial_swap)
    for r in plan.rounds:
        if in_transit:
            a, _ = r.pair
            unpad = (oracles.Z_MAT if r.unpad_z else np.eye(2)) @ (
                oracles.X_MAT if a else np.eye(2)
            )
            w = unpad @ oracles.rz_matrix(PI / 2**r.index) @ _pad_mat(*r.pair) @ w
        if r.swap_after:
            in_transit = not in_transit
    if in_transit:
        raise AssertionError("schedule left the working qubit in transit")
    return w


def working_wire_action(unitary4: np.ndarray) -> np.ndarray:
    """Factor a two-wire block unitary as garbage(transit) x W(parked).

    Valid because a fixed-key block is a product of single-wire gates and
    swaps, hence exactly a tensor product once the working qubit is back on
    the parked wire.  Raises if the factorization fails.
    """
    cols = []
    for j in (0, 1):
        y = unitary4[:, 2 * j]  # input |parked=j, transit=0>
        cols.append(y.reshape(2, 2))  # [parked, transit]
    ref = max((row for m in cols for row in m), key=np.linalg.norm)
    g = ref / np.linalg.norm(ref)
    w = np.empty((2, 2), dtype=complex)
    for j in (0, 1):
        w[:, j] = cols[j] @ g.conj()
    for j in (0, 1):
        if np.abs(cols[j] - np.outer(w[:, j], g)).max() > 1e-9:
            raise AssertionError("block did not factor over (transit, parked)")
    return w
