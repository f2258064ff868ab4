"""The two-wire rz ladder against the per-op register engine.

Digit blocks m >= 2 of an rz gate run on the reduced density of the
working wire and transit (``statevec.WirePair``); ``register_engine``
runs the same blocks op by op on the whole register.  Both must record
the same messages and reach the same register, within float rounding.
"""

import math

import numpy as np
import pytest

from blindqc import statevec as sv
from blindqc.circuits import Circuit
from blindqc.protocol import CheckpointedRun, run_protocol
from blindqc.session import Session
import oracles
from register_engine import RegisterSession, run_pinned

TOL = 1e-12


def random_circuit(rng, n_qubits, n_gates):
    """Random circuit over h, cz, rz and mid-circuit measure."""
    ops = []
    for _ in range(n_gates):
        roll = int(rng.integers(7))
        if roll == 0:
            ops.append(sv.h(int(rng.integers(n_qubits))))
        elif roll == 1 and n_qubits >= 2:
            a, b = (int(x) for x in rng.permutation(n_qubits)[:2])
            ops.append(sv.cz(a, b))
        elif roll == 2:
            ops.append(sv.measure(int(rng.integers(n_qubits))))
        else:
            theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            ops.append(sv.rz(theta, int(rng.integers(n_qubits))))
    return Circuit(n_qubits, tuple(ops))


def assert_messages_match(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.direction, a.tag, a.transmitted, a.pad_labels) == (
            b.direction, b.tag, b.transmitted, b.pad_labels)
        assert np.abs(a.density - b.density).max() <= TOL
        assert len(a.wire_densities) == len(b.wire_densities)
        for x, y in zip(a.wire_densities, b.wire_densities):
            assert np.abs(x - y).max() <= TOL


def assert_runs_match(got, want):
    assert_messages_match(got.transcript.messages, want.transcript.messages)
    assert got.transcript.client_op_kinds == want.transcript.client_op_kinds
    assert got.transcript.server_op_kinds == want.transcript.server_op_kinds
    assert got.transcript.markers == want.transcript.markers
    assert got.transcript.round_trips() == want.transcript.round_trips()
    assert got.outcomes == want.outcomes
    assert got.digits == want.digits
    assert np.abs(got.state.amps - want.state.amps).max() <= TOL
    assert np.abs(got.working_state.amps
                  - want.working_state.amps).max() <= TOL


class TestAgainstRegisterEngine:
    @pytest.mark.parametrize("extractor", ["floor", "balanced"])
    @pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-6])
    @pytest.mark.parametrize("case", range(4))
    def test_random_circuits(self, case, epsilon, extractor):
        rng = np.random.default_rng(1000 * case + int(-math.log10(epsilon)))
        n = int(rng.integers(1, 7))
        circ = random_circuit(rng, n, int(rng.integers(3, 9)))
        seed = int(rng.integers(2**31))
        assert_runs_match(
            run_protocol(circ, epsilon, seed, extractor=extractor),
            run_pinned(circ, epsilon, seed, extractor=extractor,
                       session_type=RegisterSession))

    @pytest.mark.parametrize("extractor", ["floor", "balanced"])
    @pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-6])
    def test_full_register_with_rz_next_to_the_slots(self, epsilon, extractor):
        # 8 working qubits fill all 12 wires; wire 7 sits just below slot 1
        circ = Circuit(8, (sv.h(7), sv.cz(7, 2), sv.h(2), sv.rz(-2.6, 7),
                           sv.rz(1.1, 2), sv.measure(2), sv.h(7),
                           sv.rz(0.4, 7)))
        assert_runs_match(
            run_protocol(circ, epsilon, 9, extractor=extractor),
            run_pinned(circ, epsilon, 9, extractor=extractor,
                       session_type=RegisterSession))

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-6])
    def test_forks_resumed_in_later_blocks(self, epsilon):
        circ = Circuit(8, (sv.h(7), sv.cz(7, 0), sv.rz(2.3, 7),
                           sv.rz(-0.8, 0)))
        base = CheckpointedRun(circ, epsilon, seed=2)
        messages = base.result.transcript.messages
        late = [(i, label) for i, msg in enumerate(messages)
                for _, label in msg.pad_labels if ":m1:" not in label
                and ":slot" not in label]
        assert late
        # the first and last rounds of the ladder, and some in between
        for i, label in late[::max(1, len(late) // 6)] + late[-1:]:
            for pair in ((0, 1), (1, 1)):
                want = run_pinned(circ, epsilon, 2, {label: pair},
                                  session_type=RegisterSession)
                assert_messages_match(base.replay(i, label, pair),
                                      want.transcript.messages[:i + 2])


class TestCheckpoints:
    @pytest.mark.parametrize("epsilon", [2.0, 1.0, 1e-1, 1e-2, 1e-6])
    def test_register_copies_per_gate(self, epsilon):
        circ = Circuit(3, (sv.h(0), sv.rz(0.9, 1), sv.cz(0, 2),
                           sv.rz(-1.7, 2)))
        run = CheckpointedRun(circ, epsilon, seed=5)
        copies = {}
        for cp in run._checkpoints:
            copies.setdefault(cp.gate_index, set()).add(id(cp.amps))
        assert {j: len(ids) for j, ids in copies.items()} == {
            0: 1, 1: min(2, run._run.n_digits), 2: 1,
            3: min(2, run._run.n_digits)}

    def test_replaying_a_label_twice_returns_identical_messages(self):
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(2.2, 0)))
        run = CheckpointedRun(circ, 1e-2, seed=3)
        saved = [cp.amps.copy() for cp in run._checkpoints]
        messages = run.result.transcript.messages
        labels = [(i, label) for i, msg in enumerate(messages)
                  for _, label in msg.pad_labels]
        for i, label in labels:
            first = run.replay(i, label, (1, 0))
            second = run.replay(i, label, (1, 0))
            assert len(first) == len(second) == i + 2
            for a, b in zip(first, second):
                assert np.array_equal(a.density, b.density)
        # no fork wrote to the registers the checkpoints share
        for cp, amps in zip(run._checkpoints, saved):
            assert np.array_equal(cp.amps, amps)


class TestWirePair:
    OPS = (sv.x(2), sv.z(2), sv.rz(0.7, 2), sv.swap(2, 0), sv.x(0),
           sv.rz(-1.3, 0), sv.z(0), sv.swap(0, 2), sv.rz(math.pi / 8, 2))

    def test_matches_the_register_kernels(self):
        state = oracles.random_state(4, np.random.default_rng(8))
        amps = state.amps.copy()
        pair = sv.WirePair(amps, 0, 2)
        for op in self.OPS:
            pair.apply(op)
            sv._apply_op(amps, op)
            for wire in (0, 2):
                assert np.abs(pair.marginal(wire) - sv._partial_trace(
                    amps, (wire,))).max() <= TOL
        landed = state.amps.copy()
        pair.apply_to(landed)
        assert np.abs(landed - amps).max() <= TOL

    def test_refuses_gates_it_cannot_fold(self):
        pair = sv.WirePair(oracles.random_state(3, np.random.default_rng(2)).amps,
                           0, 2)
        with pytest.raises(ValueError, match="monomial"):
            pair.apply(sv.h(2))
        with pytest.raises(ValueError, match="outside the pair"):
            pair.apply(sv.x(1))
        with pytest.raises(ValueError, match="outside the pair"):
            pair.apply(sv.swap(1, 2))

    def test_session_routes_ops_to_the_split_pair(self):
        sess = Session(3, seed=0)
        sess.split_pair(0, 2)
        sess.client_apply([sv.x(2)])
        sess.round_trip((2,), '{"kind":"block"}', [sv.swap(0, 2)])
        assert sess.amps[0] == 1.0  # the register waits for the join
        first, second = sess.transcript.messages
        assert np.array_equal(first.density, np.diag([0, 1]))
        assert np.array_equal(second.density, np.diag([1, 0]))
        sess.join_pair()
        assert sess.amps[1] == 1.0
        assert sess.transcript.client_op_kinds == ["x"]
        assert sess.transcript.server_op_kinds == ["swap"]
