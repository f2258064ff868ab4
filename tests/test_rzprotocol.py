"""Digit blocks, swap schedules, and rz delegation through the executor."""

import itertools
import math

import numpy as np
import pytest

from blindqc import statevec as sv
from blindqc.angles import digitize, precision_bits
from blindqc.circuits import Circuit
from blindqc.protocol import (
    OPENING_TAG,
    digit_block_plan,
    round_tag,
    run_protocol,
)
from block_oracles import (
    PI,
    block_ops,
    block_rotation,
    block_unitary,
    rz_conjugation_exponent,
    sign_split_residual,
    swap_free_working_unitary,
    working_wire_action,
)
from conftest import digitized_reference
import oracles
from register_engine import run_pinned

ALL_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def mat_phase_dist(a: np.ndarray, b: np.ndarray) -> float:
    ip = np.trace(b.conj().T @ a)
    phase = ip / abs(ip) if abs(ip) > 1e-300 else 1.0
    return float(np.abs(a - phase * b).max())


def direct(*ops) -> sv.Statevector:
    return oracles.apply(oracles.new_state(1), *ops)


class TestSignSplit:
    def test_identity_holds_exactly_for_all_pad_and_sign_bits(self):
        rng = np.random.default_rng(31)
        for theta in rng.uniform(-4 * PI, 4 * PI, size=100):
            for a, b, q in itertools.product((0, 1), repeat=3):
                assert sign_split_residual(float(theta), a, b, q) < 1e-12

    def test_residual_exponent_table(self):
        assert [rz_conjugation_exponent(a, q)
                for a, q in ((0, 0), (1, 0), (0, 1), (1, 1))] == [0, 1, 1, 0]


class TestBaseCase:
    def test_decrypt_recovers_rotation_with_tracked_phase(self):
        # through the executor: the m = 1 round rides the block round
        circ = Circuit(1, (sv.h(0), sv.rz(PI / 2, 0)))
        want = direct(*circ.ops)
        for pair in ALL_PAIRS:
            res = run_pinned(circ, PI / 2, 0, {"gate1:m1:k1": pair})
            assert oracles.phase_aligned_distance(res.working_state, want) < 1e-12

    def test_key_update_values(self):
        # the last round's unpad folds Rz(pi/2) X^a Z^b = X^a Z^(a^b) Rz(pi/2)
        # and, for a negative digit, the extra Z
        def last_unpad_z(q, pairs):
            return digit_block_plan(1, q, pairs).rounds[-1].unpad_z
        assert last_unpad_z(0, ((1, 0),)) == 1
        assert last_unpad_z(1, ((1, 1),)) == 1
        assert last_unpad_z(0, ((0, 1),)) == 1
        assert last_unpad_z(0, ((1, 1),)) == 0
        plan = digit_block_plan(1, 1, ((0, 0), (1, 1)))
        assert [r.unpad_z for r in plan.rounds] == [1, 1]


class TestSwapSchedule:
    def test_zero_digit_never_moves_the_working_qubit(self):
        plan = digit_block_plan(0, 0, ((1, 0), (0, 1), (1, 1)))
        assert plan.initial_swap == 0
        assert all(r.swap_after == 0 for r in plan.rounds)

    def test_all_mismatched_pads_keep_working_in_transit_until_the_end(self):
        # q=0 and every a_k=1: only the initial and final swaps fire
        plan = digit_block_plan(1, 0, ((1, 0), (1, 1), (1, 0)))
        assert plan.initial_swap == 1
        assert [r.swap_after for r in plan.rounds] == [0, 0, 1]

    def test_first_matching_pad_parks_for_good(self):
        # q=0, a_3=0 matches immediately; no later swap may fire
        plan = digit_block_plan(1, 0, ((1, 1), (1, 0), (0, 0)))
        assert plan.initial_swap == 1
        assert [r.swap_after for r in plan.rounds] == [1, 0, 0]

    def test_rounds_are_ordered_high_k_first(self):
        plan = digit_block_plan(1, 0, tuple((0, 0) for _ in range(4)))
        assert [r.index for r in plan.rounds] == [4, 3, 2, 1]

    def test_zero_digit_rejects_negative_flag(self):
        with pytest.raises(ValueError):
            digit_block_plan(0, 1, ((0, 0),))


class TestDigitBlock:
    def test_block_acts_as_single_rotation_for_every_key_assignment(self):
        # exhaustive over pads for m <= 4; both derivations must agree
        for m in range(1, 5):
            for s, q in ((0, 0), (1, 0), (1, 1)):
                for bits in itertools.product(ALL_PAIRS, repeat=m):
                    plan = digit_block_plan(s, q, bits)
                    expected = oracles.rz_matrix(block_rotation(plan))
                    w_sim = working_wire_action(block_unitary(plan))
                    w_free = swap_free_working_unitary(plan)
                    assert mat_phase_dist(w_sim, expected) < 1e-10
                    assert mat_phase_dist(w_free, expected) < 1e-10
                    assert mat_phase_dist(w_sim, w_free) < 1e-10

    def test_block_rotation_magnitude_set_by_round_count(self):
        keys = tuple((0, 1) for _ in range(3))
        assert block_rotation(digit_block_plan(1, 0, keys)) == PI / 8
        assert block_rotation(digit_block_plan(1, 1, keys)) == -PI / 8
        assert block_rotation(digit_block_plan(0, 0, keys)) == 0.0

    def test_server_sees_only_the_fixed_ladder(self):
        keys = ((1, 0), (0, 1), (1, 1))
        ops = block_ops(digit_block_plan(1, 1, keys), 0, 1)
        angles = [op.angle for op in ops if op.kind is sv.Gate.RZ]
        assert angles == [PI / 8, PI / 4, PI / 2]


class TestBlindRz:
    """One rz gate through run_protocol on a single working qubit.

    ``precision_bits(pi / 2**M) == M``, so ``PI / 8`` runs three digit
    blocks.  A leading h makes the rotation visible on the working state.
    """

    def test_dyadic_angle_is_exact(self):
        circ = Circuit(1, (sv.h(0), sv.rz(PI / 2, 0)))
        res = run_protocol(circ, PI / 8, seed=2)
        assert oracles.reconstruct(res.digits[1]) == pytest.approx(PI / 2, abs=1e-15)
        assert oracles.fidelity(res.working_state, direct(*circ.ops)) > 1 - 1e-12

    def test_round_count_and_tag_schedule_are_angle_independent(self):
        for theta in (0.0, 1.0, -2.6, PI / 2):
            res = run_protocol(Circuit(1, (sv.rz(theta, 0),)), PI / 8, seed=4)
            t = res.transcript
            assert t.round_trips() == 6
            tags = [r.tag for r in t.rounds]
            assert tags == [OPENING_TAG] + [round_tag(k)
                                            for k in (2, 1, 3, 2, 1)]

    def test_reaches_requested_precision(self):
        bits = precision_bits(1e-2)
        assert bits == 9
        circ = Circuit(1, (sv.h(0), sv.rz(1.0, 0)))
        res = run_protocol(circ, 1e-2, seed=5)
        d = res.digits[1]
        assert res.transcript.round_trips() == 1 + bits * (bits + 1) // 2
        infid = 1 - oracles.fidelity(res.working_state, direct(*circ.ops))
        assert infid <= math.sin(oracles.remainder(d) / 2) ** 2 + 1e-12
        approx = direct(sv.h(0), sv.rz(oracles.reconstruct(d), 0))
        assert oracles.fidelity(res.working_state, approx) > 1 - 1e-10

    def test_zero_angle_runs_the_full_schedule_and_does_nothing(self):
        res = run_protocol(Circuit(1, (sv.h(0), sv.rz(0.0, 0))), PI / 16,
                           seed=6)
        assert res.transcript.round_trips() == 1 + 10
        assert oracles.fidelity(res.working_state, direct(sv.h(0))) > 1 - 1e-12

    @pytest.mark.parametrize("extractor", ["floor", "balanced"])
    def test_random_angles_match_their_digitization(self, extractor):
        rng = np.random.default_rng(13)
        for i in range(10):
            theta = float(rng.uniform(-2 * PI, 2 * PI))
            prep = float(rng.uniform(-PI, PI))
            circ = Circuit(1, (sv.h(0), sv.rz(prep, 0), sv.h(0),
                               sv.rz(theta, 0)))
            res = run_protocol(circ, PI / 16, seed=100 + i,
                               extractor=extractor)
            assert res.digits[3] == digitize(theta, 4, extractor)
            want = digitized_reference(circ, 4, extractor)
            assert oracles.fidelity(res.working_state, want) > 1 - 1e-10

    def test_negative_angle_uses_the_parity_correction(self):
        circ = Circuit(1, (sv.h(0), sv.rz(-2.6, 0)))
        res = run_protocol(circ, PI / 32, seed=7)
        d = res.digits[1]
        assert d.half_turns == -1 and d.parity == 1
        approx = direct(sv.h(0), sv.rz(oracles.reconstruct(d), 0))
        assert oracles.fidelity(res.working_state, approx) > 1 - 1e-10

    @pytest.mark.parametrize("extractor", ["floor", "balanced"])
    def test_every_pad_of_a_digit_block_gives_its_digit(self, extractor):
        # pi/4 at M = 2: floor digits (0, 1), balanced (1, -1), so block 2
        # rotates by +pi/4 or -pi/4 in bare single-wire rounds
        circ = Circuit(1, (sv.h(0), sv.rz(PI / 4, 0)))
        want = digitized_reference(circ, 2, extractor)
        for k1, k2 in itertools.product(ALL_PAIRS, repeat=2):
            res = run_pinned(circ, PI / 4, 0, {"gate1:m2:k1": k1,
                                               "gate1:m2:k2": k2},
                             extractor=extractor)
            assert res.digits[1].negative_flags[1] == (extractor == "balanced")
            assert oracles.phase_aligned_distance(res.working_state, want) < 1e-12
