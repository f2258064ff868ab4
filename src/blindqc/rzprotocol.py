"""Interactive recursive decryption of Rz rotations.

The server only ever rotates a transit wire by the fixed ladder of angles
pi/2^k, k = m..1.  The client hides which rotations matter by keeping the
working qubit on a parked wire and swapping it into transit under a
key-conditioned schedule.  For one digit (nonzero flag s, sign flag q) and
fresh pads (a_k, b_k), the net effect on the working qubit is exactly
Rz((-1)^q * s * pi/2^m) up to a global phase.

Two independent derivations of that fact live here: ``block_ops`` builds
the full two-wire circuit (real swaps, real pads) for statevector
simulation, while ``swap_free_working_unitary`` tracks the working qubit's
slot classically and multiplies out only the 2x2 factors that touch it.
Tests require both to agree with the closed form for every key assignment.

The swap exponents implemented here are the ones that survive exhaustive
numerical validation; they differ from a naive transcription of the
published schedule in three places (the parked-wire condition is
a_k == q rather than a_k != q, the carry product runs over rounds already
executed, i.e. i > k, and the final round's unpad needs an extra Z when
the digit is negative).  ``tests/test_rzprotocol.py`` pins all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import statevec as sv
from .angles import AngleDigits, digitize
from .session import ProtocolError, Session
from .statevec import GateOp

PI = math.pi

Pair = tuple[int, int]


def rz_conjugation_exponent(a: int, q: int) -> int:
    """Exponent of the Rz(2 theta) residual left after commuting past X^a."""
    return (a ^ q) & 1


def _pad_mat(a: int, b: int) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    if b:
        m = sv.Z_MAT @ m
    if a:
        m = sv.X_MAT @ m
    return m


def sign_split_matrices(theta: float, a: int, b: int, q: int):
    """Both sides of the residual-splitting identity

        Rz(theta) . X^a Z^b = Rz(2 theta)^{a xor q} . X^a Z^b . Rz((-1)^q theta)

    which holds exactly (no stray phase) for every (a, b, q).
    """
    pad = _pad_mat(a, b)
    lhs = sv.rz_matrix(theta) @ pad
    residual = sv.rz_matrix(2 * theta) if rz_conjugation_exponent(a, q) else np.eye(2)
    rhs = residual @ pad @ sv.rz_matrix((-1) ** q * theta)
    return lhs, rhs


def sign_split_residual(theta: float, a: int, b: int, q: int) -> float:
    lhs, rhs = sign_split_matrices(theta, a, b, q)
    return float(np.abs(lhs - rhs).max())


def half_pi_key_update(pair: Pair, negative: int = 0) -> tuple[Pair, int]:
    """Base case Rz(+-pi/2) X^a Z^b = i^{+-a} X^a Z^{a xor b} Rz(+-pi/2)."""
    a, b = pair
    return (a, a ^ b), (-a if negative else a) % 4


def decrypt_rz_pi2(state: sv.Statevector, wire: int, pair: Pair,
                   negative: int = 0) -> tuple[sv.Statevector, int]:
    """Client correction after the server rotated a padded wire by Rz(+-pi/2).

    Returns the corrected state, equal to i^phase Rz(+-pi/2)|psi> when the
    input was X^a Z^b |psi>, and the tracked phase exponent.
    """
    new_pair, phase = half_pi_key_update(pair, negative)
    a, b = new_pair
    ops: list[GateOp] = []
    if a:
        ops.append(sv.x(wire))
    if b:
        ops.append(sv.z(wire))
    return sv.apply_all(state, ops), phase


# ---------------------------------------------------------------------------
# digit block: plan construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundKeys:
    """Fresh pads for one digit block; pairs[k-1] protects round k."""

    pairs: tuple[Pair, ...]

    @property
    def rounds(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SwapStep:
    round_index: int
    exponent: int
    trace: str


@dataclass(frozen=True)
class SwapSchedule:
    """Initial swap plus one conditional swap after each round (k = m..1)."""

    initial_exponent: int
    steps: tuple[SwapStep, ...]


def swap_schedule(nonzero: int, negative: int, keys: RoundKeys) -> SwapSchedule:
    """Conditional swap exponents that route the working qubit correctly.

    The working qubit must sit in transit for round k exactly when every
    later-executed pad bit disagreed with the sign flag (carry = 1); it
    parks for good on the first agreement.  The final round's swap returns
    it to the parked wire unconditionally when it is still in transit.
    """
    m = keys.rounds
    s, q = nonzero, negative
    steps = []
    carry = 1  # prod over i in (k, m] of (a_i xor q); empty product is 1
    for k in range(m, 1, -1):
        a_k = keys.pairs[k - 1][0]
        match = int(a_k == q)
        exponent = s * match * carry
        steps.append(SwapStep(k, exponent,
                              f"s={s} match(a_{k})={match} carry={carry}"))
        carry *= a_k ^ q
    steps.append(SwapStep(1, s * carry, f"s={s} match(a_1)=n/a carry={carry}"))
    return SwapSchedule(s, tuple(steps))


@dataclass(frozen=True)
class RoundPlan:
    """Client actions around one server rotation Rz(pi/2^index) on transit."""

    index: int
    pair: Pair
    unpad_z: int
    swap_after: int


@dataclass(frozen=True)
class BlockPlan:
    nonzero: int
    negative: int
    initial_swap: int
    rounds: tuple[RoundPlan, ...]

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


def digit_block_plan(nonzero: int, negative: int, keys: RoundKeys) -> BlockPlan:
    """Full client plan for delegating one digit with the given pads."""
    if nonzero not in (0, 1) or negative not in (0, 1):
        raise ValueError("digit flags must be bits")
    if nonzero == 0 and negative == 1:
        raise ValueError("a zero digit cannot be negative")
    schedule = swap_schedule(nonzero, negative, keys)
    rounds = []
    for step in schedule.steps:
        k = step.round_index
        a, b = keys.pairs[k - 1]
        # the last round folds the base-case correction into its unpad
        unpad_z = b if k > 1 else b ^ a ^ negative
        rounds.append(RoundPlan(k, (a, b), unpad_z, step.exponent))
    return BlockPlan(nonzero, negative, schedule.initial_exponent, tuple(rounds))


def round_pad_ops(r: RoundPlan, transit: int) -> list[GateOp]:
    a, b = r.pair
    ops = []
    if b:
        ops.append(sv.z(transit))
    if a:
        ops.append(sv.x(transit))
    return ops


def round_unpad_ops(r: RoundPlan, transit: int) -> list[GateOp]:
    a = r.pair[0]
    ops = []
    if a:
        ops.append(sv.x(transit))
    if r.unpad_z:
        ops.append(sv.z(transit))
    return ops


def block_rotation(plan: BlockPlan) -> float:
    """Net rotation the block applies to the working qubit."""
    if plan.n_rounds == 0:
        return 0.0
    return (-1) ** plan.negative * plan.nonzero * PI / 2**plan.rounds[0].index


def block_ops(plan: BlockPlan, transit: int, parked: int) -> list[GateOp]:
    """Whole block as a local gate list (server rotations included)."""
    ops: list[GateOp] = []
    if plan.initial_swap:
        ops.append(sv.swap(transit, parked))
    for r in plan.rounds:
        ops += round_pad_ops(r, transit)
        ops.append(sv.rz(PI / 2**r.index, transit))
        ops += round_unpad_ops(r, transit)
        if r.swap_after:
            ops.append(sv.swap(transit, parked))
    return ops


def block_unitary(plan: BlockPlan) -> np.ndarray:
    """4x4 matrix of the block on (transit=qubit 0, parked=qubit 1)."""
    return sv.ops_unitary(2, block_ops(plan, 0, 1))


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
            unpad = (sv.Z_MAT if r.unpad_z else np.eye(2)) @ (
                sv.X_MAT if a else np.eye(2)
            )
            w = unpad @ sv.rz_matrix(PI / 2**r.index) @ _pad_mat(*r.pair) @ w
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


# ---------------------------------------------------------------------------
# channel-level delegation
# ---------------------------------------------------------------------------


def rotation_server_ops(tag: dict, transit: int) -> list[GateOp]:
    """Server dispatch for a bare rotation session (no ancilla block)."""
    if tag.get("kind") == "rotate":
        return [sv.rz(float(tag["angle"]), transit)]
    if tag.get("kind") == "round":
        return [sv.rz(PI / 2 ** int(tag["k"]), transit)]
    raise ProtocolError(f"server cannot satisfy tag {tag}")


def run_block_over_channel(session: Session, plan: BlockPlan, transit: int,
                           parked: int, tags, server, labels) -> None:
    """Execute one digit block interactively.

    ``tags[i]`` is the classical payload for round i, ``server`` maps a tag
    to the gate list the server applies, and ``labels[i]`` names the key
    protecting the transit wire in that round (for the audit trail).
    """
    if plan.initial_swap:
        session.client_apply([sv.swap(transit, parked)])
    for r, tag, label in zip(plan.rounds, tags, labels):
        session.client_apply(round_pad_ops(r, transit))
        session.round_trip((transit,), tag, server(tag),
                           pad_labels=((transit, label),))
        session.client_apply(round_unpad_ops(r, transit))
        if r.swap_after:
            session.client_apply([sv.swap(transit, parked)])


def half_blind_rz(session: Session, wire: int, ancilla: int, m: int, *,
                  negative: bool = False, label_prefix: str = "halfblind") -> None:
    """Delegate Rz(+-pi/2^m) with the rotation angles sent in the clear.

    Hides the data (every transit is padded) but not the angle; m round
    trips, angle doubling from pi/2^m up to pi/2.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    keys = RoundKeys(tuple(
        session.keys.pad_pair(f"{label_prefix}/k{k}") for k in range(1, m + 1)
    ))
    plan = digit_block_plan(1, int(negative), keys)
    tags = [{"kind": "rotate", "angle": PI / 2**r.index} for r in plan.rounds]
    labels = [f"{label_prefix}/k{r.index}" for r in plan.rounds]
    run_block_over_channel(session, plan, ancilla, wire, tags,
                           lambda t: rotation_server_ops(t, ancilla), labels)


def blind_rz(session: Session, wire: int, ancilla: int, theta: float,
             n_digits: int, *, extractor: str = "floor",
             label_prefix: str = "blind") -> AngleDigits:
    """Delegate Rz(theta) revealing only the digit-count schedule.

    Runs one digit block per precision level m = 1..n_digits; every block's
    round tags are the indices k = m..1 regardless of theta.  The working
    wire ends up rotated by the digitized approximant of theta.  Returns
    the AngleDigits actually used.
    """
    d = digitize(theta, n_digits, extractor)
    if d.parity:
        session.client_apply([sv.z(wire)])
    flags = zip(d.nonzero_flags, d.negative_flags)
    for m, (s_m, q_m) in enumerate(flags, start=1):
        keys = RoundKeys(tuple(
            session.keys.pad_pair(f"{label_prefix}/m{m}/k{k}")
            for k in range(1, m + 1)
        ))
        plan = digit_block_plan(s_m, q_m, keys)
        tags = [{"kind": "round", "k": r.index} for r in plan.rounds]
        labels = [f"{label_prefix}/m{m}/k{r.index}" for r in plan.rounds]
        run_block_over_channel(session, plan, ancilla, wire, tags,
                               lambda t: rotation_server_ops(t, ancilla),
                               labels)
    return d
