"""The two-wire rz ladder against the per-op register engine.

Digit blocks m >= 2 of an rz gate run as one step each on the reduced
density of the working wire and transit (``Session.ladder_block`` and
``statevec.WirePair.run_block``); ``register_engine`` runs the same
blocks op by op on the whole register.  Both must record the same
rounds and reach the same register, within float rounding.
"""

import math
import re

import numpy as np
import pytest

from blindqc import statevec as sv
from blindqc.circuits import Circuit
from blindqc.protocol import (CheckpointedRun, digit_block_plan, round_tag,
                              run_protocol)
from blindqc.session import ProtocolError, Session, Transcript
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


def assert_rounds_match(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.tag, a.transmitted, a.pad_labels) == (
            b.tag, b.transmitted, b.pad_labels)
        for half in ("sent", "received"):
            x, y = getattr(a, half), getattr(b, half)
            assert np.abs(x - y).max() <= TOL
            for wire in a.transmitted:
                assert np.abs(a.wire_state(x, wire)
                              - b.wire_state(y, wire)).max() <= TOL


def assert_runs_match(got, want):
    assert_rounds_match(got.transcript.rounds, want.transcript.rounds)
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
        rounds = base.result.transcript.rounds
        late = [(i, label) for i, rnd in enumerate(rounds)
                for _, label in rnd.pad_labels if ":m1:" not in label
                and ":slot" not in label]
        assert late
        # the first and last rounds of the ladder, and some in between
        for i, label in late[::max(1, len(late) // 6)] + late[-1:]:
            for pair in ((0, 1), (1, 1)):
                want = run_pinned(circ, epsilon, 2, {label: pair},
                                  session_type=RegisterSession)
                assert_rounds_match(base.replay(i, label, pair),
                                    want.transcript.rounds[:i + 1])


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
        rounds = run.result.transcript.rounds
        labels = [(i, label) for i, rnd in enumerate(rounds)
                  for _, label in rnd.pad_labels]
        for i, label in labels:
            first = run.replay(i, label, (1, 0))
            second = run.replay(i, label, (1, 0))
            assert len(first) == len(second) == i + 1
            for a, b in zip(first, second):
                assert np.array_equal(a.sent, b.sent)
                assert np.array_equal(a.received, b.received)
        # no fork wrote to the registers the checkpoints share
        for cp, amps in zip(run._checkpoints, saved):
            assert np.array_equal(cp.amps, amps)


class StubServer:
    """A server that answers every round tag with ``ops``."""

    def __init__(self, ops, n_digits):
        self.round_tags = tuple(round_tag(k) for k in range(1, n_digits + 1))
        self.ops = tuple(ops)

    def ops_for(self, tag):
        return self.ops


# a two-round digit block: both rounds carry an x pad, the first a z too
BLOCK = digit_block_plan(1, 0, ((1, 0), (1, 1)))
LABELS = ["gate0:m2:k1", "gate0:m2:k2"]


class TestWirePair:
    # (before, rz angle, after) per round
    ROUNDS = ((("x", "z"), 0.7, ("swap",)), (("swap", "z"), -1.3, ("x", "z")),
              ((), math.pi / 8, ("x",)), (("x",), 2.1, ("z", "swap")))

    def test_matches_the_register_kernels(self):
        state = oracles.random_state(4, np.random.default_rng(8))
        steps = [(before, sv.rz_phases(theta), after)
                 for before, theta, after in self.ROUNDS]
        for wire in (0, 2):
            amps = state.amps.copy()
            pair = sv.WirePair(amps, 0, 2)
            # two blocks in a row continue from the first one's net op
            got = np.concatenate([pair.run_block(wire, steps[:1]),
                                  pair.run_block(wire, steps[1:])])
            ops = {"x": sv.x(wire), "z": sv.z(wire), "swap": sv.swap(0, 2)}
            want = []
            for before, theta, after in self.ROUNDS:
                for kind in before:
                    sv._apply_op(amps, ops[kind])
                want.append(sv._partial_trace(amps, (wire,)))
                sv._apply_op(amps, sv.rz(theta, wire))
                want.append(sv._partial_trace(amps, (wire,)))
                for kind in after:
                    sv._apply_op(amps, ops[kind])
            assert got.shape == (2 * len(self.ROUNDS), 2, 2)
            assert np.abs(got - np.array(want)).max() <= TOL
            landed = state.amps.copy()
            pair.apply_to(landed)
            assert np.abs(landed - amps).max() <= TOL

    def test_refuses_gates_it_cannot_fold(self):
        pair = sv.WirePair(oracles.random_state(3, np.random.default_rng(2)).amps,
                           0, 2)
        phases = sv.rz_phases(0.3)
        with pytest.raises(ValueError, match="monomial"):
            pair.run_block(2, [(("h",), phases, ())])
        with pytest.raises(ValueError, match="outside the pair"):
            pair.run_block(1, [((), phases, ())])
        sess = Session(3, seed=0)
        sess.split_pair(0, 2)
        for server_ops in ([sv.h(2)], [sv.rz(0.3, 0)],
                           [sv.rz(0.3, 2), sv.rz(0.3, 2)]):
            with pytest.raises(ValueError, match="one rz on wire 2"):
                sess.ladder_block(2, BLOCK, LABELS, StubServer(server_ops, 2))
        with pytest.raises(ValueError, match="outside the pair"):
            sess.ladder_block(1, BLOCK, LABELS,
                              StubServer([sv.rz(0.3, 1)], 2))
        # a refused block leaves no trace
        assert sess.transcript.rounds == []
        assert sess.transcript.client_op_kinds == []
        assert sess.transcript.server_op_kinds == []
        assert sess.wire_pair.perm == (0, 1, 2, 3)

    def test_session_routes_ops_to_the_split_pair(self):
        state = oracles.random_state(3, np.random.default_rng(4))
        server = StubServer([sv.rz(math.pi / 4, 2)], 2)
        sessions = []
        for session_type in (Session, RegisterSession):
            sess = session_type(3, seed=0)
            sess.amps[:] = state.amps
            sess.split_pair(0, 2)
            sess.ladder_block(2, BLOCK, LABELS, server)
            sessions.append(sess)
        pair, register = sessions
        # the register waits for the join
        assert np.array_equal(pair.amps, state.amps)
        assert pair.transcript.rounds[0].pad_labels == ((2, LABELS[1]),)
        assert_rounds_match(pair.transcript.rounds,
                            register.transcript.rounds)
        for log in ("client_op_kinds", "server_op_kinds"):
            assert (getattr(pair.transcript, log)
                    == getattr(register.transcript, log))
        assert pair.transcript.server_op_kinds == ["rz", "rz"]
        pair.join_pair()
        assert np.abs(pair.amps - register.amps).max() <= TOL

    def test_a_block_needs_a_split_pair(self):
        with pytest.raises(ProtocolError, match="split"):
            Session(3, seed=0).ladder_block(
                2, BLOCK, LABELS, StubServer([sv.rz(0.3, 2)], 2))


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestBlockStep:
    def test_record_block_matches_record_per_round(self):
        rng = np.random.default_rng(5)
        densities = np.array([random_density(rng) for _ in range(6)])
        tags = [(round_tag(k), ((3, f"gate0:m3:k{k}"),)) for k in (3, 2, 1)]
        one, block = (Transcript(seed=1, epsilon=0.1, n_qubits=4)
                      for _ in range(2))
        for i, (tag, labels) in enumerate(tags):
            one.record(tag, (3,), densities[2 * i].copy(),
                       densities[2 * i + 1].copy(), labels)
        block.record_block((3,), tags, densities)
        assert block.digest() == one.digest()
        assert len(block.rounds) == len(one.rounds) == 3
        for a, b in zip(block.rounds, one.rounds):
            assert (a.tag, a.transmitted, a.pad_labels) == (
                b.tag, b.transmitted, b.pad_labels)
            for half in ("sent", "received"):
                x, y = getattr(a, half), getattr(b, half)
                assert np.array_equal(x, y)
                assert np.array_equal(a.wire_state(x, 3), b.wire_state(y, 3))
                # a view of the one stacked array
                assert x.base is densities

    def test_block_densities_are_read_only(self):
        res = run_protocol(Circuit(1, (sv.h(0), sv.rz(0.9, 0))),
                           math.pi / 2**5, seed=6)
        transit = res.state.n_qubits - 1
        rounds = [r for r in res.transcript.rounds
                  if r.transmitted == (transit,)]
        # blocks 2..5 hold all 15 rounds but the opening one
        assert len(rounds) == 5 * 6 // 2 - 1
        for rnd in rounds:
            for rho in (rnd.sent, rnd.received,
                        rnd.wire_state(rnd.sent, transit),
                        rnd.wire_state(rnd.received, transit)):
                assert not rho.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    rho[0, 0] = 0.0
            for rho in (rnd.sent, rnd.received):
                with pytest.raises(ValueError, match="read-only"):
                    rho.base[0, 0, 0] = 0.0

    def test_every_round_replays_to_its_reply(self):
        # at eps = pi/2^5 an rz runs digit blocks m = 1..5, rounds k = m..1
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(2.3, 0), sv.h(1)))
        epsilon = math.pi / 2**5
        base = CheckpointedRun(circ, epsilon, seed=7)
        seen = set()
        for i, rnd in enumerate(base.result.transcript.rounds):
            for _, label in rnd.pad_labels:
                if ":m" not in label:
                    continue
                m, k = (int(x) for x in re.findall(r":m(\d+):k(\d+)",
                                                    label)[0])
                seen.add((m, k))
                for pair in ((0, 0), (1, 1)):
                    got = base.replay(i, label, pair)
                    assert len(got) == i + 1
                    want = run_pinned(circ, epsilon, 7, {label: pair},
                                      session_type=RegisterSession)
                    assert_rounds_match(got, want.transcript.rounds[:i + 1])
        assert seen == {(m, k) for m in range(1, 6) for k in range(1, m + 1)}

    @staticmethod
    def _counts(monkeypatch, epsilon, session_type):
        """(running-hash updates, _apply_op calls) of one run."""
        updates, applied = [], []

        class CountingStream:
            def __init__(self, stream):
                self.stream = stream

            def update(self, data):
                updates.append(len(data))
                self.stream.update(data)

            def digest(self):
                return self.stream.digest()

        def counting_session(*args, **kwargs):
            sess = session_type(*args, **kwargs)
            sess.transcript._stream = CountingStream(sess.transcript._stream)
            return sess

        apply_op = sv._apply_op

        def counting_apply(amps, op):
            applied.append(op)
            apply_op(amps, op)

        circ = Circuit(1, (sv.h(0), sv.rz(0.7, 0)))
        with monkeypatch.context() as patched:
            patched.setattr(sv, "_apply_op", counting_apply)
            run_pinned(circ, epsilon, 3, session_type=counting_session)
        return len(updates), len(applied)

    def test_hash_updates_and_kernels_do_not_grow_with_rounds(self,
                                                              monkeypatch):
        eps = {m: math.pi / 2**m for m in (4, 8)}
        blocks = 8 - 4
        rounds = 8 * 9 // 2 - 4 * 5 // 2
        engine = {m: self._counts(monkeypatch, eps[m], Session)
                  for m in (4, 8)}
        # at most one hash update and one kernel more per extra digit block
        assert engine[8][0] - engine[4][0] <= blocks
        assert engine[8][1] - engine[4][1] <= blocks
        # the per-op reference pays per round, so the counters can see it
        reference = {m: self._counts(monkeypatch, eps[m], RegisterSession)
                     for m in (4, 8)}
        assert reference[8][0] - reference[4][0] >= 2 * rounds
        assert reference[8][1] - reference[4][1] >= rounds
