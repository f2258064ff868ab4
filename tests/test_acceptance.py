"""Acceptance gate: the ten end-to-end guarantees this package makes.

Each test pins one property with explicit tolerances.  Reference values
come from exact algebra (exhaustive enumeration, Pauli twirls), direct
statevector simulation, or independent arbitrary-precision evaluation;
none are tuned to the implementation.
"""

import itertools
import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from blindqc import paulis
from blindqc import statevec as sv
from blindqc.angles import digitize, precision_bits
from blindqc.audit import (
    classical_view,
    negative_control,
    payload_mixedness,
    view_invariance,
)
from blindqc.circuits import Circuit
from blindqc.cli import main as cli_main
from blindqc.costs import critical_ratio
from blindqc.protocol import digit_block_plan, run_protocol
from blindqc.statevec import Gate
from block_oracles import (
    block_rotation,
    block_unitary,
    sign_split_residual,
    swap_free_working_unitary,
    working_wire_action,
)
from conftest import digitized_reference, random_lowered_circuit, rz_error_budget
import oracles

PI = math.pi
ALL_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def test_criterion_01_protocol_matches_direct_simulation():
    """100 random circuits x 5 seeds at eps = 1e-2, under 60 s.

    The error budget vs the exact circuit is the triangle-inequality
    accumulation sin^2(sum |delta_i| / 2); truncation remainders share a
    sign, so their rotations compound coherently and per-gate infidelity
    sums undershoot the observed error.
    """
    eps, bits = 1e-2, 9
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_fid_gap = 0.0
    for c in range(100):
        n = int(rng.integers(1, 4))
        n_gates = int(rng.integers(1, 31))
        circ = random_lowered_circuit(rng, n, n_gates)
        reference = digitized_reference(circ, bits)
        exact = oracles.apply(oracles.new_state(n), *circ.ops)
        budget = rz_error_budget(circ, bits)
        for op in circ.ops:
            if op.kind is Gate.RZ:
                d = digitize(op.angle, bits)
                assert abs(oracles.remainder(d)) <= PI / 2**bits + 1e-12
        for s in range(5):
            res = run_protocol(circ, eps, seed=1000 * c + s)
            fid = oracles.fidelity(res.working_state, reference)
            worst_fid_gap = max(worst_fid_gap, 1.0 - fid)
            assert fid >= 1.0 - 1e-9
            infid = 1.0 - oracles.fidelity(res.working_state, exact)
            assert infid <= budget + 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 1: PASS (worst fidelity gap {worst_fid_gap:.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_02_one_time_pad_is_maximally_mixed():
    """Exhaustive key average equals I/2^n to 1e-10 on random states."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    for n in (1, 2):
        target = oracles.maximally_mixed(n)
        for _ in range(20):
            state = oracles.random_state(n, rng)
            rho = oracles.one_time_pad_density(state)
            worst = max(worst, oracles.trace_distance(rho, target))
    assert worst < 1e-10
    print(f"criterion 2: PASS (worst trace distance {worst:.2e})")


def test_criterion_03_key_update_rules_are_exact():
    """Exhaustive key bits per rule, 20 random states each, 1e-10."""
    rng = np.random.default_rng(2026)
    worst = 0.0
    for op in (sv.h(0), sv.s(0)):
        for key in oracles.all_keys(1):
            worst = max(worst, oracles.verify_key_update(op, key, rng,
                                                        trials=20))
    for op in (sv.cx(0, 1), sv.cx(1, 0), sv.cz(0, 1)):
        for key in oracles.all_keys(2):
            worst = max(worst, oracles.verify_key_update(op, key, rng,
                                                        trials=20))
    for key in oracles.all_keys(3):
        worst = max(worst, oracles.verify_key_update(sv.ccx(0, 1, 2), key,
                                                    rng, trials=20))
    assert worst < 1e-10

    # rotation gadget: all pad/prep bits and both measurement branches
    gadget_worst = 0.0
    for (a, b), y, d, branch in itertools.product(
            ALL_PAIRS, (0, 1), (0, 1), (0, 1)):
        for _ in range(20):
            psi = oracles.random_state(1, rng)
            padded = psi
            if b:
                padded = oracles.apply(padded, sv.z(0))
            if a:
                padded = oracles.apply(padded, sv.x(0))
            u = 0.25 if branch else 0.75
            out, m = oracles.run_t_gadget(padded, y, d, u=u)
            assert m == branch
            upd = oracles.t_gadget_key_update((a, b), y, d, m)
            fixed = out
            for _ in range(upd.s_exponent % 4):
                fixed = oracles.apply(fixed, sv.u(sv.S_MAT.conj().T, 0))
            fixed = oracles.decrypt(fixed, paulis.PauliKey((upd.new_pair,)))
            want = oracles.apply(psi, sv.t(0))
            gadget_worst = max(gadget_worst,
                               oracles.phase_aligned_distance(fixed, want))
    assert gadget_worst < 1e-10
    print(f"criterion 3: PASS (clifford {worst:.2e}, gadget "
          f"{gadget_worst:.2e})")


def test_criterion_04_rotation_commutation_identity():
    """100 random angles x all (a,b,q): residual < 1e-12, no stray phase."""
    rng = np.random.default_rng(2027)
    worst = 0.0
    for theta in rng.uniform(-4 * PI, 4 * PI, size=100):
        for a, b, q in itertools.product((0, 1), repeat=3):
            worst = max(worst, sign_split_residual(float(theta), a, b, q))
    assert worst < 1e-12
    print(f"criterion 4: PASS (worst residual {worst:.2e})")


def test_criterion_05_digit_block_equals_single_rotation():
    """Exhaustive pads m <= 4, all digit flags, swap-free and simulated."""
    worst = 0.0
    for m in range(1, 5):
        for s, q in ((0, 0), (1, 0), (1, 1)):
            for bits in itertools.product(ALL_PAIRS, repeat=m):
                plan = digit_block_plan(s, q, bits)
                expected = oracles.rz_matrix(block_rotation(plan))
                assert block_rotation(plan) == (-1) ** q * s * PI / 2**m
                for w in (swap_free_working_unitary(plan),
                          working_wire_action(block_unitary(plan))):
                    ip = np.trace(expected.conj().T @ w)
                    dist = float(np.abs(w - ip / abs(ip) * expected).max())
                    worst = max(worst, dist)
    assert worst < 1e-10
    print(f"criterion 5: PASS (worst block deviation {worst:.2e})")


def test_criterion_06_delegated_angle_is_input_independent():
    """reconstruct + impurity - p*pi == pi - pi/2^M to 1e-12."""
    rng = np.random.default_rng(2028)
    worst = 0.0
    for eps in (1e-1, 1e-2, 1e-4):
        bits = precision_bits(eps)
        constant = PI - PI / 2**bits
        for theta in rng.uniform(-4 * PI, 4 * PI, size=1000):
            for extractor in ("floor", "balanced"):
                d = digitize(float(theta), bits, extractor)
                got = oracles.reconstruct(d) + oracles.impurity(d) - d.half_turns * PI
                worst = max(worst, abs(got - constant))
    assert worst < 1e-12
    print(f"criterion 6: PASS (worst deviation {worst:.2e})")


def test_criterion_07_round_count_law():
    """At M = 9: rz costs exactly 45 trips (under the 81 bound), h/cz 1."""
    bits = precision_bits(1e-2)
    assert bits == 9
    circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(1.7, 0), sv.rz(-0.2, 1)))
    res = run_protocol(circ, 1e-2, seed=77)
    per_gate = {mk.gate_index: mk.round_end - mk.round_start
                for mk in res.transcript.markers}
    assert per_gate[0] == 1
    assert per_gate[1] == 1
    assert per_gate[2] == bits * (bits + 1) // 2 == 45
    assert per_gate[3] == 45
    assert per_gate[2] <= bits**2
    print("criterion 7: PASS (h=1, cz=1, rz=45 <= 81)")


def test_criterion_08_blindness_audit():
    """View invariance over 50 pairs, exact mixedness, negative control."""
    rng = np.random.default_rng(2029)
    eps = 1e-2
    for trial in range(50):
        n_gates = int(rng.integers(1, 5))
        ops_a, ops_b = [], []
        for _ in range(n_gates):
            if rng.integers(2):
                wire = int(rng.integers(2))
                ops_a.append(sv.rz(float(rng.uniform(-PI, PI)), wire))
                ops_b.append(sv.rz(float(rng.uniform(-PI, PI)), wire))
            else:
                ops_a.append(sv.h(0) if rng.integers(2) else sv.cz(0, 1))
                ops_b.append(sv.h(1) if rng.integers(2) else sv.cz(1, 0))
        view = view_invariance(Circuit(2, tuple(ops_a)),
                               Circuit(2, tuple(ops_b)), eps, seed=trial)
        joined = "\n".join(view).encode()
        other = "\n".join(classical_view(
            run_protocol(Circuit(2, tuple(ops_b)), eps,
                         seed=trial + 999).transcript)).encode()
        assert joined == other  # byte-identical, seed-independent

    mix_circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.9, 1)))
    mixed = payload_mixedness(mix_circ, eps, seed=5)
    assert mixed.passed
    assert mixed.worst_distance < 1e-10
    assert mixed.uncovered == ()

    plus_circ = Circuit(1, (sv.h(0), sv.rz(1.1, 0)))
    control = negative_control(plus_circ, eps, seed=6)
    assert control >= 0.4
    print(f"criterion 8: PASS (mixedness {mixed.worst_distance:.2e}, "
          f"control {control:.3f})")


def test_criterion_09_cost_model_reference_values():
    """Quoted threshold, independent recomputation, monotone trend."""
    assert critical_ratio(1e-10) == pytest.approx(0.005, abs=1e-3)

    mp.mp.dps = 30
    eps = mp.mpf("1e-2")
    num = mp.log(mp.pi / eps, 2) ** 2 - 1
    den = mp.log(1 / eps) ** mp.mpf("3.97") - 1
    independent = float(num / den)
    assert critical_ratio(1e-2) == pytest.approx(independent, rel=5e-7)

    grid = [critical_ratio(10.0**-k) for k in range(1, 13)]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    print(f"criterion 9: PASS (c(1e-2) = {critical_ratio(1e-2):.9g})")


def test_criterion_10_run_reports_are_byte_identical(tmp_path):
    """Same circuit, flags and seed: identical report bytes and digests."""
    src = tmp_path / "circ.bqc"
    src.write_text(
        "version 1\nqubits 2\nh 0\ncx 0 1\nrz 1 0.8\nmeasure 0\n")
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out_a, out_b):
        code = cli_main(["run", str(src), "--epsilon", "1e-2",
                         "--seed", "42", "--out", str(out)])
        assert code == 0
    bytes_a, bytes_b = out_a.read_bytes(), out_b.read_bytes()
    assert bytes_a == bytes_b
    digest_line = next(line for line in bytes_a.decode().splitlines()
                       if line.startswith("transcript-digest:"))
    assert digest_line in bytes_b.decode()
    print("criterion 10: PASS (reports byte-identical)")
