import itertools

import numpy as np
import pytest

from blindqc import paulis as pk
from blindqc import statevec as sv
import oracles


def test_pad_operator_order_is_x_after_z():
    # X^1 Z^1 on |0> gives |1> with no sign; Z^1 X^1 would give -|1>
    st = oracles.encrypt(oracles.new_state(1), pk.PauliKey(((1, 1),)))
    assert np.allclose(st.amps, [0, 1])
    st = oracles.encrypt(oracles.apply(oracles.new_state(1), sv.x(0)),
                         pk.PauliKey(((1, 1),)))
    assert np.allclose(st.amps, [-1, 0])


def test_encrypt_decrypt_roundtrip():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        psi = oracles.random_state(n, rng)
        key = oracles.random_key(n, rng)
        back = oracles.decrypt(oracles.encrypt(psi, key), key)
        assert np.allclose(back.amps, psi.amps)


def test_encrypt_on_selected_wires():
    rng = np.random.default_rng(8)
    psi = oracles.random_state(3, rng)
    key = pk.PauliKey(((1, 0),))
    got = oracles.encrypt(psi, key, qubits=[2])
    want = oracles.apply(psi, sv.x(2))
    assert np.allclose(got.amps, want.amps)


def test_all_keys_enumeration():
    keys = list(oracles.all_keys(2))
    assert len(keys) == 16
    assert len(set(keys)) == 16
    assert keys[0] == oracles.zero_key(2)


def test_key_validation():
    with pytest.raises(ValueError):
        pk.PauliKey(((2, 0),))


class TestCliffordRules:
    """Each rewrite must hold exactly, tracked phase included."""

    def test_h_rule_exhaustive(self):
        rng = np.random.default_rng(10)
        for key in oracles.all_keys(1):
            assert oracles.verify_key_update(sv.h(0), key, rng) < 1e-12

    def test_s_rule_exhaustive(self):
        rng = np.random.default_rng(11)
        for key in oracles.all_keys(1):
            assert oracles.verify_key_update(sv.s(0), key, rng) < 1e-12

    def test_cx_rule_exhaustive(self):
        rng = np.random.default_rng(12)
        for key in oracles.all_keys(2):
            for op in (sv.cx(0, 1), sv.cx(1, 0)):
                assert oracles.verify_key_update(op, key, rng) < 1e-12

    def test_cz_rule_exhaustive(self):
        rng = np.random.default_rng(13)
        for key in oracles.all_keys(2):
            assert oracles.verify_key_update(sv.cz(0, 1), key, rng) < 1e-12

    def test_ccx_rule_exhaustive(self):
        rng = np.random.default_rng(14)
        for key in oracles.all_keys(3):
            assert oracles.verify_key_update(sv.ccx(0, 1, 2), key, rng) < 1e-12

    def test_expected_bit_rewrites(self):
        upd = pk.key_update(sv.h(0), pk.PauliKey(((1, 0),)))
        assert upd.new_key.pairs == ((0, 1),)
        upd = pk.key_update(sv.s(0), pk.PauliKey(((1, 1),)))
        assert upd.new_key.pairs == ((1, 0),)
        assert upd.phase_exponent == 1
        upd = pk.key_update(sv.cz(0, 1), pk.PauliKey(((1, 0), (1, 0))))
        assert upd.new_key.pairs == ((1, 1), (1, 1))
        assert upd.phase_exponent == 2

    def test_ccx_emits_conditional_corrections(self):
        key = pk.PauliKey(((1, 0), (1, 0), (0, 1)))
        upd = pk.key_update(sv.ccx(0, 1, 2), key)
        kinds = [(op.kind, op.qubits) for op in upd.corrections]
        assert kinds == [(sv.Gate.CX, (1, 2)), (sv.Gate.CX, (0, 2)),
                        (sv.Gate.CZ, (0, 1))]
        assert upd.new_key.pairs == ((1, 1), (1, 1), (1, 1))
        assert upd.phase_exponent == 2

    def test_no_rule_for_t(self):
        with pytest.raises(ValueError):
            pk.key_update(sv.t(0), oracles.zero_key(1))


def test_key_update_circuit_folds_sequences():
    rng = np.random.default_rng(21)
    ops = [sv.h(0), sv.cz(0, 1), sv.s(1), sv.cx(1, 0), sv.h(1)]
    for key in (oracles.random_key(2, rng) for _ in range(12)):
        upd = pk.key_update_circuit(ops, key)
        psi = oracles.random_state(2, rng)
        lhs = oracles.apply(oracles.encrypt(psi, key), *ops)
        rhs_amps = (1j ** upd.phase_exponent) * oracles.encrypt(
            oracles.apply(psi, *ops), upd.new_key
        ).amps
        assert np.abs(lhs.amps - rhs_amps).max() < 1e-12


def test_key_update_circuit_rejects_ccx():
    with pytest.raises(ValueError):
        pk.key_update_circuit([sv.ccx(0, 1, 2)], oracles.zero_key(3))


def test_one_time_pad_density_is_maximally_mixed():
    rng = np.random.default_rng(31)
    for n in (1, 2):
        rho = oracles.one_time_pad_density(oracles.random_state(n, rng))
        assert oracles.trace_distance(rho, oracles.maximally_mixed(n)) < 1e-12


class TestTGadget:
    def gadget_cases(self):
        return itertools.product((0, 1), repeat=4)

    def test_measurement_is_unbiased(self):
        rng = np.random.default_rng(40)
        for a, b, y, d in self.gadget_cases():
            psi = oracles.random_state(1, rng)
            padded = oracles.encrypt(psi, pk.PauliKey(((a, b),)))
            # outcome flips across u = 1/2 exactly, so each branch has mass 1/2
            _, m_lo = oracles.run_t_gadget(padded, y, d, u=0.25)
            _, m_hi = oracles.run_t_gadget(padded, y, d, u=0.75)
            assert (m_lo, m_hi) == (1, 0)

    def test_output_key_rule_all_branches(self):
        rng = np.random.default_rng(41)
        for a, b, y, d in self.gadget_cases():
            psi = oracles.random_state(1, rng)
            padded = oracles.encrypt(psi, pk.PauliKey(((a, b),)))
            for u in (0.25, 0.75):
                out, m = oracles.run_t_gadget(padded, y, d, u=u)
                upd = oracles.t_gadget_key_update((a, b), y, d, m)
                want = oracles.apply(psi, sv.t(0))
                want = oracles.encrypt(want, pk.PauliKey((upd.new_pair,)))
                if upd.s_exponent:
                    want = oracles.apply(want, sv.s(0))
                assert oracles.phase_aligned_distance(out, want) <= 1e-10

    def test_completion_recovers_t_psi(self):
        rng = np.random.default_rng(42)
        s_dag = oracles.S_MAT.conj().T
        for a, b, y, d in self.gadget_cases():
            psi = oracles.random_state(1, rng)
            padded = oracles.encrypt(psi, pk.PauliKey(((a, b),)))
            out, m = oracles.run_t_gadget(padded, y, d, rng=rng)
            upd = oracles.t_gadget_key_update((a, b), y, d, m)
            if upd.s_exponent:
                out = oracles.apply(out, sv.u(s_dag, 0))
            out = oracles.decrypt(out, pk.PauliKey((upd.new_pair,)))
            assert oracles.phase_aligned_distance(
                out, oracles.apply(psi, sv.t(0))) <= 1e-10

    def test_rejects_multi_qubit_input(self):
        with pytest.raises(ValueError):
            oracles.run_t_gadget(oracles.new_state(2), 0, 0, u=0.3)
