"""Gate-set lowering: every rewrite must preserve the unitary up to phase."""

import itertools

import numpy as np
import pytest

from blindqc import statevec as sv
from blindqc.circuits import Circuit
from blindqc.lowering import (
    SERVER_KINDS,
    euler_zxz,
    first_undelegable,
    lower,
)
import oracles


def random_unitary(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestEulerSplit:
    def test_reconstructs_random_unitaries(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            u = random_unitary(rng)
            alpha, beta, gamma = euler_zxz(u)
            rebuilt = (
                oracles.rz_matrix(alpha)
                @ oracles.H_MAT @ oracles.rz_matrix(beta) @ oracles.H_MAT
                @ oracles.rz_matrix(gamma)
            )
            ip = np.trace(rebuilt.conj().T @ u)
            assert np.abs(u - ip / abs(ip) * rebuilt).max() < 1e-10

    def test_handles_diagonal_and_antidiagonal_corners(self):
        for u in (np.eye(2), oracles.Z_MAT, oracles.X_MAT, oracles.S_MAT,
                  oracles.H_MAT):
            alpha, beta, gamma = euler_zxz(u.astype(complex))
            rebuilt = (
                oracles.rz_matrix(alpha)
                @ oracles.H_MAT @ oracles.rz_matrix(beta) @ oracles.H_MAT
                @ oracles.rz_matrix(gamma)
            )
            ip = np.trace(rebuilt.conj().T @ u)
            assert np.abs(u - ip / abs(ip) * rebuilt).max() < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            euler_zxz(np.array([[1.0, 0.0], [0.0, 2.0]]))


class TestLowering:
    def test_output_uses_only_the_server_set(self):
        circ = Circuit(3, (
            sv.x(0), sv.z(1), sv.s(2), sv.t(0), sv.cx(0, 1), sv.swap(1, 2),
            sv.ccx(0, 1, 2), sv.h(0), sv.cz(0, 2), sv.rz(0.3, 1),
            sv.measure(2),
        ))
        low = lower(circ)
        assert first_undelegable(low) is None
        assert first_undelegable(circ) is not None
        kinds = {op.kind for op in low.ops if op.kind is not sv.Gate.MEASURE}
        assert kinds <= SERVER_KINDS

    @pytest.mark.parametrize("ops,n", [
        ((sv.x(0),), 1),
        ((sv.z(0),), 1),
        ((sv.s(0),), 1),
        ((sv.t(0),), 1),
        ((sv.cx(0, 1),), 2),
        ((sv.cx(1, 0),), 2),
        ((sv.swap(0, 1),), 2),
        ((sv.ccx(0, 1, 2),), 3),
        ((sv.ccx(2, 0, 1),), 3),
    ])
    def test_each_rewrite_is_phase_equivalent(self, ops, n):
        circ = Circuit(n, ops)
        assert oracles.check_equivalent(circ, lower(circ), probes=4) < 1e-10

    def test_raw_unitary_gate_lowering(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            circ = Circuit(1, (sv.u(random_unitary(rng), 0),))
            assert oracles.check_equivalent(circ, lower(circ)) < 1e-10

    def test_random_mixed_circuits(self):
        rng = np.random.default_rng(29)
        makers = [
            lambda q: sv.x(q[0]), lambda q: sv.z(q[0]),
            lambda q: sv.s(q[0]), lambda q: sv.t(q[0]),
            lambda q: sv.h(q[0]), lambda q: sv.rz(float(rng.uniform(-3, 3)), q[0]),
            lambda q: sv.cx(q[0], q[1]), lambda q: sv.cz(q[0], q[1]),
            lambda q: sv.swap(q[0], q[1]), lambda q: sv.ccx(q[0], q[1], q[2]),
        ]
        for _ in range(10):
            ops = []
            for _ in range(12):
                maker = makers[rng.integers(len(makers))]
                qubits = tuple(rng.permutation(3)[:3])
                ops.append(maker([int(q) for q in qubits]))
            circ = Circuit(3, tuple(ops))
            assert oracles.check_equivalent(circ, lower(circ), probes=3) < 1e-9

    def test_lowering_is_idempotent(self):
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.4, 1)))
        assert lower(circ) == circ

    def test_ccx_gate_budget(self):
        low = lower(Circuit(3, (sv.ccx(0, 1, 2),)))
        counts = oracles.gate_counts(low)
        assert counts["cz"] == 6
        assert counts["rz"] == 7

    def test_check_equivalent_rejects_measurements(self):
        circ = Circuit(1, (sv.measure(0),))
        with pytest.raises(ValueError):
            oracles.check_equivalent(circ, circ)
