"""The two-wire rz ladder against the per-op register engine.

Digit blocks m >= 2 of an rz gate run as one step per gate on the
reduced density of the working wire and transit (``Session.ladder`` and
``statevec.WirePair.run_block``); ``register_engine`` runs the same
blocks op by op on the whole register.  Both must record the same
rounds and reach the same register, within float rounding.  The
table-driven fold must match the list-based one in ``oracles`` byte for
byte.
"""

import copy
from collections import Counter
import gc
import itertools
import math
import re
import weakref

import numpy as np
import pytest

from blindqc import paulis, protocol
from blindqc import statevec as sv
from blindqc.angles import precision_bits
from blindqc.audit import ALL_PAIRS
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


def random_case(case, epsilon):
    """The seeded random circuit and protocol seed of one test case."""
    rng = np.random.default_rng(1000 * case + int(-math.log10(epsilon)))
    n = int(rng.integers(1, 7))
    circ = random_circuit(rng, n, int(rng.integers(3, 9)))
    return circ, int(rng.integers(2**31))


# 8 working qubits fill all 12 wires; wire 7 sits just below slot 1
FULL_REGISTER = Circuit(8, (sv.h(7), sv.cz(7, 2), sv.h(2), sv.rz(-2.6, 7),
                            sv.rz(1.1, 2), sv.measure(2), sv.h(7),
                            sv.rz(0.4, 7)))


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
        circ, seed = random_case(case, epsilon)
        assert_runs_match(
            run_protocol(circ, epsilon, seed, extractor=extractor),
            run_pinned(circ, epsilon, seed, extractor=extractor,
                       session_type=RegisterSession))

    @pytest.mark.parametrize("extractor", ["floor", "balanced"])
    @pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-6])
    def test_full_register_with_rz_next_to_the_slots(self, epsilon, extractor):
        assert_runs_match(
            run_protocol(FULL_REGISTER, epsilon, 9, extractor=extractor),
            run_pinned(FULL_REGISTER, epsilon, 9, extractor=extractor,
                       session_type=RegisterSession))

    @pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-6])
    def test_each_pad_label_pads_one_wire_of_one_round(self, epsilon):
        # a one-time pad is blind only if its key is used once; each
        # wire's twirl alone cannot see a label that pads two wires
        runs = [(FULL_REGISTER, 9)] + [random_case(c, epsilon)
                                       for c in range(4)]
        n_labels = 0
        for circ, seed in runs:
            uses = Counter(label for rnd in run_protocol(
                circ, epsilon, seed).transcript.rounds
                for _, label in rnd.pad_labels)
            assert all(n == 1 for n in uses.values()), uses.most_common(1)
            n_labels += len(uses)
        assert n_labels > 0

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-6])
    def test_forks_resumed_in_later_blocks(self, epsilon):
        # a fork in a digit block m >= 2 starts from the split pair
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
            pairs = ((0, 1), (1, 1))
            for pair, replay in zip(pairs, base.replay(i, label, pairs),
                                    strict=True):
                want = run_pinned(circ, epsilon, 2, {label: pair},
                                  session_type=RegisterSession)
                # pinning a label changes no round before its own
                assert_rounds_match(rounds[:i] + [replay],
                                    want.transcript.rounds[:i + 1])


class TestCheckpoints:
    CIRC = Circuit(3, (sv.h(0), sv.rz(0.9, 1), sv.cz(0, 2), sv.rz(-1.7, 2)))

    @pytest.mark.parametrize("epsilon", [2.0, 1.0, 1e-1, 1e-2, 1e-6])
    def test_register_copies_per_gate(self, epsilon):
        run = CheckpointedRun(self.CIRC, epsilon, seed=5)
        rounds = run.result.transcript.rounds
        registers = []
        for cp, rnd in zip(run._checkpoints, rounds, strict=True):
            if rnd.transmitted == (run._run.slots[3],):
                # a ladder round touches only the split pair
                assert isinstance(cp.state, sv.WirePair)
            else:
                assert cp.state.shape == (2 ** run._session.n_qubits,)
                registers.append(id(cp.state))
            # the step holds no state of its own
            assert not any(isinstance(v, (np.ndarray, sv.WirePair))
                           for v in cp.step.keywords.values())
        # one register copy per block round: h, rz's opening, cz, rz's opening
        assert len(set(registers)) == len(registers) == 4
        assert id(run._session.amps) not in registers

    @pytest.mark.parametrize("epsilon", [2.0, 1.0, 1e-1, 1e-2, 1e-6])
    def test_draw_points_per_gate(self, epsilon):
        run = CheckpointedRun(self.CIRC, epsilon, seed=5)
        m_bits = run._run.n_digits
        rounds = run.result.transcript.rounds
        # a block round per gate, then every round of blocks m >= 2
        assert len(run._checkpoints) == len(rounds) == 4 + 2 * (
            m_bits * (m_bits + 1) // 2 - 1)
        ladder = []
        for i, (cp, rnd) in enumerate(zip(run._checkpoints, rounds)):
            step = cp.step
            if step.func is protocol._Run._ladder_round:
                # a ladder round is padded by its own label alone
                label = step.keywords["labels"][step.keywords["r"].index - 1]
                assert rnd.pad_labels == ((run._run.slots[3], label),)
                ladder.append(label)
            else:
                assert step.func is protocol._Run._block_trip
                assert step.keywords["tag"] == rnd.tag
            # each checkpoint re-runs its own round: pinning a label to the
            # pair the seed draws replays the round bit for bit
            label = rnd.pad_labels[0][1]
            (again,) = run.replay(i, label, [run.keys.pad_pair(label)])
            assert again.pad_labels == rnd.pad_labels
            assert np.array_equal(again.sent, rnd.sent)
            assert np.array_equal(again.received, rnd.received)
        assert ladder == [f"gate{j}:m{m}:k{k}" for j in (1, 3)
                          for m in range(2, m_bits + 1)
                          for k in range(m, 0, -1)]

    def test_block_round_replays_stop_at_their_round_trip(self,
                                                           monkeypatch):
        # the run decrypts the slots after a block round's step returns; a
        # replay, whose state nothing reads after its one round, does not
        run = CheckpointedRun(self.CIRC, 1e-1, seed=5)
        folds = []
        fold = paulis.key_update_circuit

        def counting_fold(*args):
            folds.append(args)
            return fold(*args)

        monkeypatch.setattr(paulis, "key_update_circuit", counting_fold)
        blocks = [(i, label) for i, rnd
                  in enumerate(run.result.transcript.rounds)
                  if rnd.transmitted != (run._run.slots[3],)
                  for _, label in rnd.pad_labels]
        # h, cz: four slot labels each; each rz opening round: three + m1:k1
        assert len(blocks) == 16
        for i, label in blocks:
            run.replay(i, label, [(0, 1), (1, 1)])
        assert folds == []

    def test_replaying_a_label_twice_returns_identical_messages(self):
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(2.2, 0)))
        run = CheckpointedRun(circ, 1e-2, seed=3)
        saved = [copy.deepcopy(cp.state) for cp in run._checkpoints]
        rounds = run.result.transcript.rounds
        labels = [(i, label) for i, rnd in enumerate(rounds)
                  for _, label in rnd.pad_labels]
        pairs = ((1, 0), (0, 1), (1, 1))
        for i, label in labels:
            for first, second in zip(run.replay(i, label, pairs),
                                     run.replay(i, label, pairs),
                                     strict=True):
                assert (first.pad_labels == second.pad_labels
                        == rounds[i].pad_labels)
                assert np.array_equal(first.sent, second.sent)
                assert np.array_equal(first.received, second.received)
        # no fork wrote to the states the checkpoints saved
        for cp, state in zip(run._checkpoints, saved, strict=True):
            if isinstance(state, sv.WirePair):
                assert vars(cp.state) == vars(state)
            else:
                assert np.array_equal(cp.state, state)

    @pytest.mark.parametrize("circ", [
        FULL_REGISTER,
        Circuit(2, (sv.h(0), sv.rz(1.1, 1), sv.measure(0), sv.h(0))),
    ], ids=["full-register", "mid-measure"])
    def test_a_label_replays_its_pairs_together_as_one_by_one(self, circ):
        # a block round runs once on a stack of three registers, a ladder
        # round three times on one fork: each replayed round must be the
        # one a replay of its pair alone records
        run = CheckpointedRun(circ, 1e-2, seed=6)
        saved = [copy.deepcopy(cp.state) for cp in run._checkpoints]
        kinds = Counter()
        for i, rnd in enumerate(run.result.transcript.rounds):
            for _, label in rnd.pad_labels:
                own = run.keys.pad_pair(label)
                pairs = [p for p in itertools.product((0, 1), repeat=2)
                         if p != own]
                together = run.replay(i, label, pairs)
                alone = [run.replay(i, label, [pair])[0] for pair in pairs]
                for a, b in zip(together, alone, strict=True):
                    assert (a.tag, a.transmitted, a.pad_labels) == (
                        rnd.tag, rnd.transmitted, rnd.pad_labels)
                    assert (b.tag, b.transmitted, b.pad_labels) == (
                        rnd.tag, rnd.transmitted, rnd.pad_labels)
                    assert a.sent.tobytes() == b.sent.tobytes()
                    assert a.received.tobytes() == b.received.tobytes()
                kinds[type(run._checkpoints[i].state)] += 1
        assert kinds[np.ndarray] > 0 and kinds[sv.WirePair] > 0
        # no replay wrote to the states the checkpoints saved
        for cp, state in zip(run._checkpoints, saved, strict=True):
            if isinstance(state, sv.WirePair):
                assert vars(cp.state) == vars(state)
            else:
                assert np.array_equal(cp.state, state)

    def test_replays_feed_no_running_hash(self, monkeypatch):
        # a fork never reaches a gate boundary, so its stream takes nothing
        run = CheckpointedRun(self.CIRC, 1e-2, seed=5)
        forks, updates = [], []
        fork = Session.fork

        class WatchedStream:
            def update(self, data):
                updates.append(len(data))

        def watched_fork(self, *args):
            forks.append(fork(self, *args))
            forks[-1].transcript._stream = WatchedStream()
            return forks[-1]

        monkeypatch.setattr(Session, "fork", watched_fork)
        kinds = Counter()
        for i, rnd in enumerate(run.result.transcript.rounds):
            for _, label in rnd.pad_labels:
                assert len(run.replay(i, label, ALL_PAIRS)) == 4
                kinds[type(run._checkpoints[i].state)] += 1
        assert kinds[np.ndarray] > 0 and kinds[sv.WirePair] > 0
        assert len(forks) == sum(kinds.values())
        assert updates == []

    def test_a_run_and_its_checkpoints_form_no_cycle(self):
        # a step bound to the run would tie the run to its own checkpoint
        # list and keep every register copy until the cyclic collector ran
        enabled = gc.isenabled()
        gc.disable()
        try:
            run = CheckpointedRun(self.CIRC, 1e-2, seed=5)
            ref = weakref.ref(run._run)
            del run
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


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
        # a round refused after others have folded leaves U as it was
        with pytest.raises(ValueError, match="monomial"):
            pair.run_block(2, [(("x", "z"), phases, ("swap",)),
                               (("z",), phases, ("h",))])
        assert pair.perm == (0, 1, 2, 3)
        assert pair.phases == (1.0, 1.0, 1.0, 1.0)
        sess = Session(3, seed=0)
        sess.split_pair(0, 2)
        for server_ops in ([sv.h(2)], [sv.rz(0.3, 0)],
                           [sv.rz(0.3, 2), sv.rz(0.3, 2)]):
            with pytest.raises(ValueError, match="one rz on wire 2"):
                sess.ladder(2, [(BLOCK, LABELS)], StubServer(server_ops, 2))
        with pytest.raises(ValueError, match="outside the pair"):
            sess.ladder(1, [(BLOCK, LABELS)], StubServer([sv.rz(0.3, 1)], 2))
        # a ladder refused in its last block, at the one tag the server
        # answers wrongly
        server = StubServer([sv.rz(0.3, 2)], 3)
        server.ops_for = lambda tag: ((sv.h(2),) if tag == round_tag(3)
                                      else server.ops)
        three = digit_block_plan(1, 1, ((1, 0), (0, 1), (1, 1)))
        with pytest.raises(ValueError, match="one rz on wire 2"):
            sess.ladder(2, [(BLOCK, LABELS), (BLOCK, LABELS),
                            (three, [f"gate0:m3:k{k}" for k in (1, 2, 3)])],
                        server)
        # a refused ladder leaves no trace
        assert sess.transcript.rounds == []
        assert sess.transcript.client_op_kinds == []
        assert sess.transcript.server_op_kinds == []
        assert sess.wire_pair.perm == (0, 1, 2, 3)
        assert sess.wire_pair.phases == (1.0, 1.0, 1.0, 1.0)

    @staticmethod
    def _random_rounds(rng, n_rounds):
        """Rounds of random x, z and swap runs around an rz; angle 0 gives
        phases with exact zero parts, the ladder's pi/2^k the rest."""
        angles = [0.0, -math.pi / 2] + [math.pi / 2**k for k in range(1, 23)]

        def kinds():
            return tuple(("x", "z", "swap")[int(i)]
                         for i in rng.integers(3, size=int(rng.integers(4))))

        return [(kinds(), sv.rz_phases(angles[int(rng.integers(len(angles)))]),
                 kinds()) for _ in range(n_rounds)]

    @pytest.mark.parametrize("start", ["entangled", "product"])
    def test_fold_matches_the_list_reference_byte_for_byte(self, start):
        rng = np.random.default_rng(31 if start == "product" else 32)
        for _ in range(12):
            if start == "product":
                # a qubit beside a wire in |0>, like the working wire beside
                # a reset transit: rho = rho_q (x) |0><0| has exact zeros
                q = oracles.random_state(1, rng).amps
                zero = np.array([1.0, 0.0], dtype=complex)
                amps = np.kron(*((zero, q) if rng.integers(2) else (q, zero)))
                wires = (0, 1)
            else:
                amps = oracles.random_state(3, rng).amps
                wires = (0, 2)
            for wire in wires:
                pair = sv.WirePair(amps, *wires)
                # the fold's input, the density at the split, is handed
                # over; test_statevec pins it against an einsum oracle
                ref = oracles.ListPair(wires, pair.rho)
                # blocks in a row continue from the last one's net op
                for n_rounds in (1, 40, 7):
                    rounds = self._random_rounds(rng, n_rounds)
                    got = pair.run_block(wire, rounds)
                    want = oracles.pair_run_block(ref, wire, rounds)
                    assert got.shape == want.shape == (2 * n_rounds, 2, 2)
                    assert got.tobytes() == want.tobytes()
                    assert pair.perm == ref.perm
                    assert ([type(v) for v in pair.phases]
                            == [type(v) for v in ref.phases])
                    assert (np.array(pair.phases, dtype=complex).tobytes()
                            == np.array(ref.phases, dtype=complex).tobytes())

    def test_session_routes_ops_to_the_split_pair(self):
        state = oracles.random_state(3, np.random.default_rng(4))
        server = StubServer([sv.rz(math.pi / 4, 2)], 2)
        sessions = []
        for session_type in (Session, RegisterSession):
            sess = session_type(3, seed=0)
            sess.amps[:] = state.amps
            sess.split_pair(0, 2)
            sess.ladder(2, [(BLOCK, LABELS)], server)
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
            Session(3, seed=0).ladder(
                2, [(BLOCK, LABELS)], StubServer([sv.rz(0.3, 2)], 2))


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestBlockStep:
    def test_one_record_of_three_rounds_matches_three_records(self):
        rng = np.random.default_rng(5)
        densities = np.array([random_density(rng) for _ in range(6)])
        tags = [(round_tag(k), ((3, f"gate0:m3:k{k}"),)) for k in (3, 2, 1)]
        one, block = (Transcript(seed=1, epsilon=0.1, n_qubits=4)
                      for _ in range(2))
        for i, tag in enumerate(tags):
            one.record((3,), (tag,), densities[2 * i:2 * i + 2].copy())
        block.record((3,), tags, densities)
        assert block.digest() == one.digest()
        assert len(block.rounds) == len(one.rounds) == 3
        for a, b in zip(block.rounds, one.rounds):
            assert (a.tag, a.transmitted, a.pad_labels) == (
                b.tag, b.transmitted, b.pad_labels)
            for half in ("sent", "received"):
                x, y = getattr(a, half), getattr(b, half)
                assert np.array_equal(x, y)
                assert np.array_equal(a.wire_state(x, 3), b.wire_state(y, 3))
                # a read-only view of the one stacked array
                assert x.base is densities
                assert not x.flags.writeable

    def test_a_plain_run_makes_one_ladder_step_per_rz(self, monkeypatch):
        steps, records = [], []
        ladder, record = Session.ladder, Transcript.record

        def counting_ladder(self, transit, blocks, server):
            blocks = list(blocks)
            steps.append(len(blocks))
            return ladder(self, transit, blocks, server)

        def counting_record(self, transmitted, tags, densities):
            # the ladder's rounds send the transit wire alone; the block
            # and opening rounds send all four slots
            if len(transmitted) == 1:
                records.append(len(tags))
            return record(self, transmitted, tags, densities)

        monkeypatch.setattr(Session, "ladder", counting_ladder)
        monkeypatch.setattr(Transcript, "record", counting_record)
        circ = Circuit(2, (sv.rz(0.3, 0), sv.h(1), sv.rz(-1.9, 1),
                           sv.cz(0, 1), sv.rz(2.2, 0)))
        # the checkpointed run takes the plain run's ladder step
        for run, epsilon in itertools.product(
                (run_protocol, CheckpointedRun), (2.0, 1e-1, 1e-6)):
            m_bits = precision_bits(epsilon)
            steps.clear()
            records.clear()
            run(circ, epsilon, 4)
            # blocks 2..M of each of the three rz, and all their rounds
            per_gate = [m_bits - 1] if m_bits > 1 else []
            assert steps == per_gate * 3
            assert records == [m_bits * (m_bits + 1) // 2 - 1] * len(steps)

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
        rounds = base.result.transcript.rounds
        seen = set()
        for i, rnd in enumerate(rounds):
            for _, label in rnd.pad_labels:
                if ":m" not in label:
                    continue
                m, k = (int(x) for x in re.findall(r":m(\d+):k(\d+)",
                                                    label)[0])
                seen.add((m, k))
                pairs = ((0, 0), (1, 1))
                for pair, replay in zip(pairs, base.replay(i, label, pairs),
                                        strict=True):
                    want = run_pinned(circ, epsilon, 7, {label: pair},
                                      session_type=RegisterSession)
                    assert_rounds_match(rounds[:i] + [replay],
                                        want.transcript.rounds[:i + 1])
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
        # no hash update more, since the gate's ladder is recorded at once,
        # and at most one kernel more per extra digit block
        assert engine[8][0] <= engine[4][0]
        assert engine[8][1] - engine[4][1] <= blocks
        # the per-op reference pays per round, so the counters can see it
        reference = {m: self._counts(monkeypatch, eps[m], RegisterSession)
                     for m in (4, 8)}
        assert reference[8][0] - reference[4][0] >= rounds
        assert reference[8][1] - reference[4][1] >= rounds
