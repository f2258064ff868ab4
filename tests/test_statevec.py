import itertools

import numpy as np
import pytest

from blindqc import statevec as sv
from blindqc.audit import CLIENT_OP_KINDS, SERVER_OP_KINDS
from blindqc.circuits import parse
from blindqc.lowering import lower
import oracles


def kron_le(*mats):
    """Kronecker product in little-endian qubit order (qubit 0 first arg)."""
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(m, out)
    return out


I2 = np.eye(2, dtype=complex)
P0, P1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
# written out here, apart from both simulators' own tables
H_REF = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_REF = np.diag([1, 1j])
T_REF = np.diag([1, np.exp(1j * np.pi / 4)])


def embed(n, mats):
    """kron_le of ``mats`` (qubit -> 2x2) with the identity elsewhere."""
    return kron_le(*[mats.get(q, I2) for q in range(n)])


def unit(i, j):
    """The matrix unit |i><j| on one qubit."""
    out = np.zeros((2, 2), dtype=complex)
    out[i, j] = 1.0
    return out


class TestConventions:
    def test_s_and_t_are_diagonal_phases(self):
        assert np.allclose(oracles.S_MAT, np.diag([1, 1j]))
        assert np.allclose(oracles.T_MAT, np.diag([1, np.exp(1j * np.pi / 4)]))
        assert np.allclose(oracles.S_MAT @ oracles.S_MAT, oracles.Z_MAT)
        assert np.allclose(oracles.T_MAT @ oracles.T_MAT, oracles.S_MAT)

    def test_rz_matrix_halves_the_angle(self):
        th = 0.73
        m = oracles.rz_matrix(th)
        assert m[0, 0] == pytest.approx(np.exp(-0.5j * th))
        assert m[1, 1] == pytest.approx(np.exp(0.5j * th))
        assert m[0, 1] == 0 and m[1, 0] == 0

    def test_little_endian_bit_order(self):
        st = oracles.apply(oracles.new_state(2), sv.x(0))
        assert np.allclose(st.amps, [0, 1, 0, 0])
        st = oracles.apply(oracles.new_state(2), sv.x(1))
        assert np.allclose(st.amps, [0, 0, 1, 0])

    def test_rz_pi_equals_z_up_to_global_phase(self):
        rng = np.random.default_rng(7)
        st = oracles.random_state(1, rng)
        a = oracles.apply(st, sv.rz(np.pi, 0))
        b = oracles.apply(st, sv.z(0))
        assert oracles.phase_aligned_distance(a, b) <= 1e-12
        assert np.allclose(a.amps, -1j * b.amps)


class TestGateOpValidation:
    def test_arity_checked(self):
        with pytest.raises(ValueError):
            sv.GateOp(sv.Gate.CX, (0,))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            sv.GateOp(sv.Gate.CZ, (1, 1))

    def test_angle_only_on_rz(self):
        with pytest.raises(ValueError):
            sv.GateOp(sv.Gate.H, (0,), angle=0.1)
        with pytest.raises(ValueError):
            sv.GateOp(sv.Gate.RZ, (0,))

    def test_matrix_only_on_u(self):
        with pytest.raises(ValueError):
            sv.GateOp(sv.Gate.U, (0,))
        sv.u(np.eye(2), 0)

    def test_measure_not_unitary(self):
        with pytest.raises(ValueError, match="measure"):
            oracles.apply(oracles.new_state(1), sv.measure(0))

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            oracles.apply(oracles.new_state(1), sv.x(3))


class TestStateConstruction:
    def test_default_is_all_zero(self):
        st = oracles.new_state(3)
        assert st.amps[0] == 1.0
        assert np.count_nonzero(st.amps) == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            oracles.new_state(1, np.array([1.0, 1.0]))

    def test_register_cap(self):
        with pytest.raises(ValueError):
            oracles.new_state(sv.MAX_QUBITS + 1)

    def test_amps_are_read_only(self):
        st = oracles.new_state(1)
        with pytest.raises(ValueError):
            st.amps[0] = 0.0

    def test_callers_array_stays_writable(self):
        a = np.array([1.0, 0.0], dtype=complex)
        st = sv.Statevector(1, a)
        assert a.flags.writeable
        assert not st.amps.flags.writeable
        a[0] = 0.0

    def test_random_state_normalized(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5):
            assert oracles.norm(oracles.random_state(n, rng)) == pytest.approx(1.0)


def test_two_qubit_gates_match_kron_truth_tables():
    # qubit 0 sits in the low factor, so control-on-0 CX is |1><1| x X + |0><0| x I
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    cx01 = kron_le(p0, I2) + kron_le(p1, oracles.X_MAT)
    got = oracles.ops_unitary(2, [sv.cx(0, 1)])
    assert np.allclose(got, cx01)

    cz_mat = np.diag([1, 1, 1, -1]).astype(complex)
    assert np.allclose(oracles.ops_unitary(2, [sv.cz(0, 1)]), cz_mat)
    assert np.allclose(oracles.ops_unitary(2, [sv.cz(1, 0)]), cz_mat)

    swap_mat = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.allclose(oracles.ops_unitary(2, [sv.swap(0, 1)]), swap_mat)
    assert np.allclose(oracles.ops_unitary(2, [sv.swap(1, 0)]), swap_mat)


def test_permutation_kernels_match_index_reference():
    # x, swap and cz only move or negate amplitudes: results are exact
    n = 4
    amps = oracles.random_state(n, np.random.default_rng(3)).amps
    idx = np.arange(2**n)
    for a in range(n):
        got = amps.copy()
        sv._apply_x(got, a)
        assert np.array_equal(got, amps[idx ^ (1 << a)])
        for b in range(n):
            if a == b:
                continue
            differ = ((idx >> a) ^ (idx >> b)) & 1
            got = amps.copy()
            sv._apply_swap(got, a, b)
            assert np.array_equal(got, amps[idx ^ (differ << a | differ << b)])
            got = amps.copy()
            sv._apply_cz(got, a, b)
            both = (idx >> a) & (idx >> b) & 1
            assert np.array_equal(got, np.where(both == 1, -amps, amps))


def test_controlled_x_matches_index_reference():
    # the reference contracts a permutation matrix, so it only moves
    # amplitudes: exact
    n = 4
    st = oracles.random_state(n, np.random.default_rng(4))
    amps = st.amps
    idx = np.arange(2**n)
    for target in range(n):
        others = [q for q in range(n) if q != target]
        for controls in [(c,) for c in others] + list(
                itertools.permutations(others, 2)):
            fire = np.ones_like(idx)
            for c in controls:
                fire &= idx >> c
            op = (sv.cx if len(controls) == 1 else sv.ccx)(*controls, target)
            got = oracles.apply(st, op).amps
            assert np.array_equal(got, amps[idx ^ ((fire & 1) << target)])


def test_ccx_truth_table():
    got = oracles.ops_unitary(3, [sv.ccx(0, 1, 2)])
    want = np.eye(8, dtype=complex)
    # |011> and |111> exchange their target bit (qubit 2 is the high bit)
    want[[3, 7], :] = want[[7, 3], :]
    assert np.allclose(got, want)


def test_apply_matches_dense_kron_on_random_sequences():
    rng = np.random.default_rng(42)
    n = 3
    for _ in range(20):
        ops = []
        mat = np.eye(2**n, dtype=complex)
        for _ in range(8):
            kind = rng.choice(["x", "z", "h", "s", "t", "rz", "cx", "cz", "swap"])
            if kind in ("cx", "cz", "swap"):
                a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
                op = getattr(sv, kind)(a, b)
                if kind == "swap":
                    step = sum(embed(n, {a: unit(i, j), b: unit(j, i)})
                               for i in (0, 1) for j in (0, 1))
                else:
                    flip = oracles.X_MAT if kind == "cx" else oracles.Z_MAT
                    step = embed(n, {a: P0}) + embed(n, {a: P1, b: flip})
            elif kind == "rz":
                th = float(rng.uniform(-np.pi, np.pi))
                q = int(rng.integers(n))
                op = sv.rz(th, q)
                facs = [oracles.rz_matrix(th) if i == q else I2 for i in range(n)]
                step = kron_le(*facs)
            else:
                q = int(rng.integers(n))
                op = getattr(sv, kind)(q)
                m1 = {"x": oracles.X_MAT, "z": oracles.Z_MAT, "h": H_REF,
                      "s": S_REF, "t": T_REF}[kind]
                facs = [m1 if i == q else I2 for i in range(n)]
                step = kron_le(*facs)
            ops.append(op)
            mat = step @ mat
        st = oracles.random_state(n, rng)
        got = oracles.apply(st, *ops)
        assert np.allclose(got.amps, mat @ st.amps, atol=1e-12)


def test_every_unitary_kind_dispatches_to_its_kernel():
    # the engine has kernels for the six kinds the protocol applies
    ops = {sv.Gate.X: sv.x(1), sv.Gate.Z: sv.z(1), sv.Gate.H: sv.h(1),
           sv.Gate.RZ: sv.rz(0.4, 1), sv.Gate.CZ: sv.cz(2, 1),
           sv.Gate.SWAP: sv.swap(2, 1)}
    # swapping qubits 1 and 2 swaps bits 1 and 2 of the basis index
    swap = np.eye(8)[[i & 1 | (i >> 2 & 1) << 1 | (i >> 1 & 1) << 2
                      for i in range(8)]]
    want = {
        sv.Gate.X: embed(3, {1: oracles.X_MAT}),
        sv.Gate.Z: embed(3, {1: oracles.Z_MAT}),
        sv.Gate.H: embed(3, {1: H_REF}),
        sv.Gate.RZ: embed(3, {1: oracles.rz_matrix(0.4)}),
        sv.Gate.CZ: embed(3, {2: P0}) + embed(3, {2: P1, 1: oracles.Z_MAT}),
        sv.Gate.SWAP: swap,
    }
    st = oracles.random_state(3, np.random.default_rng(4))
    for kind, op in ops.items():
        amps = st.amps.copy()
        sv._apply_op(amps, op)
        assert np.allclose(amps, want[kind] @ st.amps, atol=1e-12), kind
    # every other kind is refused, and the state is left as it was
    for op in (sv.s(1), sv.t(1), sv.u(oracles.rz_matrix(-0.3), 1),
               sv.cx(2, 1), sv.ccx(0, 2, 1), sv.measure(0)):
        amps = st.amps.copy()
        with pytest.raises(ValueError, match=op.kind.value):
            sv._apply_op(amps, op)
        assert np.array_equal(amps, st.amps)


def test_kernel_table_is_the_parties_capabilities():
    # a kernel no party may apply is dead code; a missing one breaks a run
    assert set(sv._KERNELS) == {
        sv.Gate(k) for k in (CLIENT_OP_KINDS - {"measure"}) | SERVER_OP_KINDS}


def test_reference_simulator_uses_no_engine_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("the reference called an engine kernel")

    monkeypatch.setattr(sv, "_apply_op", refuse)
    monkeypatch.setattr(sv, "_KERNELS", {kind: refuse for kind in sv.Gate})
    n = 3
    u_mat = oracles.rz_matrix(-0.3) @ H_REF
    singles = [(sv.x(1), oracles.X_MAT), (sv.z(1), oracles.Z_MAT),
               (sv.h(1), H_REF), (sv.s(1), S_REF), (sv.t(1), T_REF),
               (sv.rz(0.4, 1), oracles.rz_matrix(0.4)),
               (sv.u(u_mat, 1), u_mat)]
    cases = [(op, embed(n, {1: m})) for op, m in singles] + [
        (sv.cx(2, 1), embed(n, {2: P0}) + embed(n, {2: P1, 1: oracles.X_MAT})),
        (sv.cz(2, 1), embed(n, {2: P0}) + embed(n, {2: P1, 1: oracles.Z_MAT})),
        (sv.swap(2, 1), sum(embed(n, {2: unit(i, j), 1: unit(j, i)})
                            for i in (0, 1) for j in (0, 1))),
        (sv.ccx(0, 2, 1), np.eye(8) - embed(n, {0: P1, 2: P1})
         + embed(n, {0: P1, 2: P1, 1: oracles.X_MAT})),
    ]
    assert {op.kind for op, _ in cases} == set(sv.Gate) - {sv.Gate.MEASURE}
    st = oracles.random_state(n, np.random.default_rng(5))
    for op, want in cases:
        got = oracles.apply(st, op)
        assert np.allclose(got.amps, want @ st.amps, atol=1e-12), op.kind
    circuit = parse("version 1\nqubits 3\nx 0\nz 1\nh 2\ns 0\nt 1\n"
                    "rz 2 0.7\ncx 0 1\ncz 1 2\nswap 0 2\nccx 0 1 2\n")
    assert {op.kind for op in circuit.ops} == set(sv.Gate) - {
        sv.Gate.MEASURE, sv.Gate.U}
    assert oracles.check_equivalent(circuit, lower(circuit)) < 1e-9


def test_u_gate_applies_payload_matrix():
    rng = np.random.default_rng(3)
    st = oracles.random_state(2, rng)
    got = oracles.apply(st, sv.u(oracles.H_MAT, 1))
    want = oracles.apply(st, sv.h(1))
    assert np.allclose(got.amps, want.amps)


class TestMeasurement:
    def test_deterministic_outcomes(self):
        st = oracles.apply(oracles.new_state(1), sv.h(0))
        st0, m0 = sv.measure_qubit(st, 0, u=0.9)
        st1, m1 = sv.measure_qubit(st, 0, u=0.1)
        assert (m0, m1) == (0, 1)
        assert np.allclose(st0.amps, [1, 0])
        assert np.allclose(st1.amps, [0, 1])

    def test_collapse_renormalizes_entangled_pair(self):
        bell = oracles.apply(oracles.new_state(2), sv.h(0), sv.cx(0, 1))
        post, m = sv.measure_qubit(bell, 0, u=0.49)
        assert m == 1
        assert oracles.norm(post) == pytest.approx(1.0)
        assert abs(post.amps[3]) == pytest.approx(1.0)

    def test_rng_draw_statistics(self):
        rng = np.random.default_rng(11)
        st = oracles.apply(oracles.new_state(1), sv.h(0))
        outcomes = [sv.measure_qubit(st, 0, rng=rng)[1] for _ in range(400)]
        assert 120 < sum(outcomes) < 280

    def test_needs_randomness_source(self):
        with pytest.raises(ValueError):
            sv.measure_qubit(oracles.new_state(1), 0)


class TestDensity:
    def test_bell_state_marginal_is_maximally_mixed(self):
        bell = oracles.apply(oracles.new_state(2), sv.h(0), sv.cx(0, 1))
        rho = sv.reduced_density(bell, [0])
        assert np.allclose(rho.mat, np.eye(2) / 2)
        assert oracles.trace_distance(rho, oracles.maximally_mixed(1)) < 1e-12

    def test_plus_state_distance_to_mixed_is_half(self):
        plus = oracles.apply(oracles.new_state(1), sv.h(0))
        rho = oracles.ensemble_density([plus])
        assert oracles.trace_distance(
            rho, oracles.maximally_mixed(1)) == pytest.approx(0.5)

    def test_ensemble_weights(self):
        zero = oracles.new_state(1)
        one = oracles.apply(zero, sv.x(0))
        rho = oracles.ensemble_density([zero, one], [0.5, 0.5])
        assert np.allclose(rho.mat, np.eye(2) / 2)
        with pytest.raises(ValueError):
            oracles.ensemble_density([zero, one], [0.9, 0.9])

    def test_partial_trace_shortcuts_match_the_general_transpose(self):
        # top wires and single wires skip the n-axis transpose; the rows
        # they build must be the same, so traces agree bit for bit
        n = 5
        amps = oracles.random_state(n, np.random.default_rng(12)).amps
        for keep in [(q,) for q in range(n)] + [(3, 4), (2, 3, 4), (0, 2)]:
            keep_axes = [n - 1 - q for q in reversed(keep)]
            rest = [ax for ax in range(n) if ax not in keep_axes]
            rows = np.transpose(amps.reshape([2] * n), keep_axes + rest)
            rows = rows.reshape(2 ** len(keep), -1)
            assert np.array_equal(sv._rows(amps, keep), rows)

    def test_reduced_density_matches_an_einsum_oracle(self):
        # random states on 5-12 wires; keep-sets of 1, 2 and 4 wires,
        # adjacent, spread out, on top (the row-order shortcut) and
        # reaching the top wire from below it
        rng = np.random.default_rng(41)
        for n in range(5, sv.MAX_QUBITS + 1):
            amps = oracles.random_state(n, rng).amps
            lo = int(rng.integers(n - 4))
            spread = tuple(sorted(int(q) for q in
                                  rng.choice(n - 1, size=4, replace=False)))
            keeps = [(lo,), (n - 1,), (lo, lo + 1), (spread[0], spread[2]),
                     (n - 2, n - 1), (lo, n - 1), tuple(range(lo, lo + 4)),
                     spread, tuple(range(n - 4, n)), (*spread[:3], n - 1)]
            for keep in keeps:
                want = oracles.reduced_density(amps, keep)
                got = sv.reduced_density(sv.Statevector(n, amps), keep).mat
                assert np.max(np.abs(got - want)) <= 1e-14
                if len(keep) == 1:
                    # the pair of a wire and a transit wire above the
                    # register in |0>
                    pair = sv.WirePair(amps, keep[0], n)
                    zero = np.kron(np.array([1.0, 0.0]), amps)
                    want = oracles.reduced_density(zero, (keep[0], n))
                    assert np.max(np.abs(np.array(pair.rho) - want)) <= 1e-14

    def test_reduced_density_keeps_requested_order(self):
        st = oracles.apply(oracles.new_state(2), sv.x(1))
        rho = sv.reduced_density(st, [1])
        assert np.allclose(rho.mat, np.diag([0.0, 1.0]))

    def test_validate_flags_bad_operators(self):
        bad = sv.DensityMatrix(2, np.array([[1.0, 0.2], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            oracles.validate_density(bad)
        oracles.validate_density(oracles.maximally_mixed(2))


class TestRegisterResize:
    def test_append_then_drop_roundtrip(self):
        rng = np.random.default_rng(5)
        st = oracles.random_state(2, rng)
        grown = oracles.append_qubits(st, 2)
        assert grown.n_qubits == 4
        back = oracles.drop_qubit(oracles.drop_qubit(grown, 3, 0), 2, 0)
        assert np.allclose(back.amps, st.amps)

    def test_drop_requires_product_form(self):
        bell = oracles.apply(oracles.new_state(2), sv.h(0), sv.cx(0, 1))
        with pytest.raises(ValueError):
            oracles.drop_qubit(bell, 0, 0)

    def test_drop_one_bit(self):
        st = oracles.apply(oracles.new_state(2), sv.x(0), sv.h(1))
        out = oracles.drop_qubit(st, 0, 1)
        assert np.allclose(out.amps, [sv.SQRT_HALF, sv.SQRT_HALF])

    def test_append_respects_cap(self):
        with pytest.raises(ValueError):
            oracles.append_qubits(oracles.new_state(sv.MAX_QUBITS), 1)


def test_equal_up_to_global_phase():
    rng = np.random.default_rng(9)
    st = oracles.random_state(3, rng)
    rotated = sv.Statevector(3, np.exp(0.31j) * st.amps)
    assert oracles.phase_aligned_distance(st, rotated) <= 1e-12
    other = oracles.random_state(3, rng)
    assert oracles.phase_aligned_distance(st, other) > 1e-10
    assert oracles.fidelity(st, rotated) == pytest.approx(1.0)
