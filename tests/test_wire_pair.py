"""The package's engine against the slot-ful register engine.

The package keeps the four block slots off its register: a carried slot
is a relabelling of its working wire and a dummy slot a two-amplitude
state, and digit blocks m >= 2 of an rz gate run as one step per gate on
the working wire and transit, rho_q (x) |0><0| (``Session.ladder`` and
``statevec.WirePair.run_block``).  ``register_engine.run_reference`` keeps
the slots on the register and runs every round op by op.  Both must
record the same rounds, within 1e-14 per density, and reach the same
working state, within 1e-12.  The table-driven fold must match the
list-based one in ``oracles`` byte for byte.
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

from blindqc import protocol
from blindqc import statevec as sv
from blindqc.angles import precision_bits
from blindqc.audit import ALL_PAIRS
from blindqc.circuits import Circuit
from blindqc.protocol import (N_SLOTS, checked_run, digit_block_plan,
                              round_tag, run_protocol)
from blindqc.session import ProtocolError, Round, Session, Transcript
from conftest import KeptRun, kept_run
import oracles
from register_engine import RegisterSession, run_reference

TOL = 1e-12
# a density of the slot-free engine against the slot-ful one
DENSITY_TOL = 1e-14


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
            assert np.abs(x - y).max() <= DENSITY_TOL
            for wire in a.transmitted:
                assert np.abs(a.wire_state(x, wire)
                              - b.wire_state(y, wire)).max() <= DENSITY_TOL


def assert_runs_match(got, want):
    assert_rounds_match(got.rounds, want.rounds)
    got = got.result
    assert got.transcript.client_op_kinds == want.transcript.client_op_kinds
    assert got.transcript.server_op_kinds == want.transcript.server_op_kinds
    assert got.transcript.markers == want.transcript.markers
    assert got.transcript.round_trips() == want.transcript.round_trips()
    assert got.outcomes == want.outcomes
    assert got.digits == want.digits
    assert np.abs(got.working_state.amps
                  - want.working_state.amps).max() <= TOL


class TestAgainstRegisterEngine:
    @pytest.mark.parametrize("extractor", ["floor", "balanced"])
    @pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-6])
    @pytest.mark.parametrize("case", range(4))
    def test_random_circuits(self, case, epsilon, extractor):
        circ, seed = random_case(case, epsilon)
        assert_runs_match(
            kept_run(circ, epsilon, seed, extractor=extractor),
            run_reference(circ, epsilon, seed, extractor=extractor))

    @pytest.mark.parametrize("extractor", ["floor", "balanced"])
    @pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-6])
    def test_full_register_with_rz_next_to_the_slots(self, epsilon, extractor):
        assert_runs_match(
            kept_run(FULL_REGISTER, epsilon, 9, extractor=extractor),
            run_reference(FULL_REGISTER, epsilon, 9, extractor=extractor))

    @pytest.mark.parametrize("epsilon", [1e-1, 1e-2, 1e-6])
    def test_each_pad_label_pads_one_wire_of_one_round(self, epsilon):
        # a one-time pad is blind only if its key is used once; each
        # wire's twirl alone cannot see a label that pads two wires
        runs = [(FULL_REGISTER, 9)] + [random_case(c, epsilon)
                                       for c in range(4)]
        n_labels = 0
        for circ, seed in runs:
            rounds = kept_run(circ, epsilon, seed).rounds
            uses = Counter(label for rnd in rounds
                           for _, label in rnd.pad_labels)
            assert all(n == 1 for n in uses.values()), uses.most_common(1)
            n_labels += len(uses)
        assert n_labels > 0

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-6])
    def test_forks_resumed_in_later_blocks(self, epsilon):
        # a fork in a digit block m >= 2 starts from the split pair
        circ = Circuit(8, (sv.h(7), sv.cz(7, 0), sv.rz(2.3, 7),
                           sv.rz(-0.8, 0)))
        base = KeptRun(circ, epsilon, seed=2)
        rounds = base.rounds
        late = [(i, label) for i, rnd in enumerate(rounds)
                for _, label in rnd.pad_labels if ":m1:" not in label
                and ":slot" not in label]
        assert late
        # the first and last rounds of the ladder, and some in between
        for i, label in late[::max(1, len(late) // 6)] + late[-1:]:
            pairs = ((0, 1), (1, 1))
            for pair, replay in zip(pairs, base.replay(i, label, pairs),
                                    strict=True):
                want = run_reference(circ, epsilon, 2, {label: pair})
                # pinning a label changes no round before its own
                assert_rounds_match(rounds[:i] + [replay],
                                    want.rounds[:i + 1])


class TestCheckpoints:
    CIRC = Circuit(3, (sv.h(0), sv.rz(0.9, 1), sv.cz(0, 2), sv.rz(-1.7, 2)))

    @pytest.mark.parametrize("epsilon", [2.0, 1.0, 1e-1, 1e-2, 1e-6])
    def test_register_copies_per_gate(self, epsilon):
        run = KeptRun(self.CIRC, epsilon, seed=5)
        registers = []
        for rnd, state, step in run.checked:
            if rnd.transmitted == (run.run.slots[3],):
                # a ladder round touches only the split pair
                assert isinstance(state, sv.WirePair)
            else:
                assert state.shape == (2 ** run.run.session.n_qubits,)
                registers.append(id(state))
            # the step holds no state of its own
            assert not any(isinstance(v, (np.ndarray, sv.WirePair))
                           for v in step.keywords.values())
        # one register copy per block round: h, rz's opening, cz, rz's opening
        assert len(set(registers)) == len(registers) == 4
        assert id(run.run.session.amps) not in registers

    @pytest.mark.parametrize("epsilon", [2.0, 1.0, 1e-1, 1e-2, 1e-6])
    def test_draw_points_per_gate(self, epsilon):
        run = KeptRun(self.CIRC, epsilon, seed=5)
        m_bits = run.run.n_digits
        # a block round per gate, then every round of blocks m >= 2
        assert len(run.checked) == run.result.transcript.round_trips() == (
            4 + 2 * (m_bits * (m_bits + 1) // 2 - 1))
        ladder = []
        for i, (rnd, _, step) in enumerate(run.checked):
            if step.func is protocol._Run._ladder_round:
                # a ladder round is padded by its own label alone
                label = step.keywords["labels"][step.keywords["r"].index - 1]
                assert rnd.pad_labels == ((run.run.slots[3], label),)
                ladder.append(label)
            else:
                assert step.func is protocol._Run._block_trip
                assert step.keywords["tag"] == rnd.tag
            # each step re-runs its own round: pinning a label to the pair
            # the seed draws replays the round bit for bit
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
        unpads = []
        unpad = protocol._block_unpad

        def counting_unpad(*args):
            unpads.append(args)
            return unpad(*args)

        # counts every decrypt, also those the cache answers
        monkeypatch.setattr(protocol, "_block_unpad", counting_unpad)
        run = KeptRun(self.CIRC, 1e-1, seed=5)
        # the run itself decrypts once per delegated gate
        assert len(unpads) == len(self.CIRC.ops)
        unpads.clear()
        blocks = [(i, label) for i, rnd in enumerate(run.rounds)
                  if rnd.transmitted != (run.run.slots[3],)
                  for _, label in rnd.pad_labels]
        # h, cz: four slot labels each; each rz opening round: three + m1:k1
        assert len(blocks) == 16
        for i, label in blocks:
            run.replay(i, label, [(0, 1), (1, 1)])
        assert unpads == []

    def test_replaying_a_label_twice_returns_identical_messages(self):
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(2.2, 0)))
        run = KeptRun(circ, 1e-2, seed=3)
        saved = [copy.deepcopy(state) for _, state, _ in run.checked]
        rounds = run.rounds
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
        # no fork wrote to the states the run handed its check
        for (_, kept, _), state in zip(run.checked, saved, strict=True):
            if isinstance(state, sv.WirePair):
                assert vars(kept) == vars(state)
            else:
                assert np.array_equal(kept, state)

    @pytest.mark.parametrize("circ", [
        FULL_REGISTER,
        Circuit(2, (sv.h(0), sv.rz(1.1, 1), sv.measure(0), sv.h(0))),
    ], ids=["full-register", "mid-measure"])
    def test_a_label_replays_its_pairs_together_as_one_by_one(self, circ):
        # each round runs once per pair on one fork: each replayed round
        # must be the one a replay of its pair alone makes
        run = KeptRun(circ, 1e-2, seed=6)
        saved = [copy.deepcopy(state) for _, state, _ in run.checked]
        kinds = Counter()
        for i, rnd in enumerate(run.rounds):
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
                kinds[type(run.checked[i][1])] += 1
        assert kinds[np.ndarray] > 0 and kinds[sv.WirePair] > 0
        # no replay wrote to the states the run handed its check
        for (_, kept, _), state in zip(run.checked, saved, strict=True):
            if isinstance(state, sv.WirePair):
                assert vars(kept) == vars(state)
            else:
                assert np.array_equal(kept, state)

    def test_replays_feed_no_running_hash(self, monkeypatch):
        # a fork records nothing, so its stream takes nothing
        run = KeptRun(self.CIRC, 1e-2, seed=5)
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
        for i, rnd in enumerate(run.rounds):
            for _, label in rnd.pad_labels:
                assert len(run.replay(i, label, ALL_PAIRS)) == 4
                kinds[type(run.checked[i][1])] += 1
        assert kinds[np.ndarray] > 0 and kinds[sv.WirePair] > 0
        assert len(forks) == sum(kinds.values())
        assert updates == []

    def test_a_run_and_its_checkpoints_form_no_cycle(self):
        # a step bound to the run would tie the run to the rounds its check
        # gets and keep their states until the cyclic collector ran
        enabled = gc.isenabled()
        gc.disable()
        try:
            refs = []
            res = checked_run(self.CIRC, 1e-2, 5, lambda run, _, rounds: (
                refs.extend([weakref.ref(run)] + [
                    weakref.ref(state) for _, state, _ in rounds])))
            # a run per step: four block rounds and two ladder chunks
            assert len(refs) == 6 + res.transcript.round_trips()
            # nothing outlives the run: not it, not a state it handed over
            assert all(ref() is None for ref in refs)
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
    # (before, rz angle, after) per round; the last round brings the
    # working qubit back, so transit ends in |0> under x on either wire
    ROUNDS = ((("x", "z"), 0.7, ("swap",)), (("swap", "z"), -1.3, ("x", "z")),
              ((), math.pi / 8, ("x",)), (("x", "swap"), 2.1, ("z", "swap")))

    def test_matches_the_register_kernels(self):
        # working wire 1 of three, transit wire 3 above them in |0>
        state = oracles.random_state(3, np.random.default_rng(8))
        steps = [(before, sv.rz_phases(theta), after)
                 for before, theta, after in self.ROUNDS]
        for wire in (1, 3):
            amps = np.kron([1.0, 0.0], state.amps)
            pair = sv.WirePair(state.amps, 1, 3)
            # two blocks in a row continue from the first one's net op
            got = np.concatenate([pair.run_block(wire, steps[:1]),
                                  pair.run_block(wire, steps[1:])])
            ops = {"x": sv.x(wire), "z": sv.z(wire), "swap": sv.swap(1, 3)}
            want = []
            for before, theta, after in self.ROUNDS:
                for kind in before:
                    sv._apply_op(amps, ops[kind])
                want.append(oracles.reduced_density(amps, (wire,)))
                sv._apply_op(amps, sv.rz(theta, wire))
                want.append(oracles.reduced_density(amps, (wire,)))
                for kind in after:
                    sv._apply_op(amps, ops[kind])
            assert got.shape == (2 * len(self.ROUNDS), 2, 2)
            assert np.abs(got - np.array(want)).max() <= TOL
            # transit is back in |0>, so U acts on the working wire alone
            assert not amps[8:].any() and max(pair.perm[:2]) <= 1
            landed = state.amps.copy()
            pair.apply_to(landed)
            assert np.abs(landed - amps[:8]).max() <= TOL

    def test_refuses_gates_it_cannot_fold(self):
        amps = oracles.random_state(2, np.random.default_rng(2)).amps
        pair = sv.WirePair(amps, 0, 2)
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
        # two working wires and the transit slot 2 above them
        sess = Session(2, seed=0)
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
                # the working wire beside a reset transit, as a run splits
                # them: rho = rho_q (x) |0><0| has exact zeros
                amps, wires = oracles.random_state(1, rng).amps, (0, 1)
            else:
                amps, wires = oracles.random_state(3, rng).amps, (0, 3)
            for wire in wires:
                pair = sv.WirePair(amps, *wires)
                if start == "entangled":
                    # the fold takes any density at the split: here wires
                    # 0 and 2 of a random register
                    pair.rho = oracles.reduced_density(amps, (0, 2)).tolist()
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
        # two working wires and the transit slot 2, which the register
        # engine holds on its register in |0>
        state = oracles.random_state(2, np.random.default_rng(4))
        server = StubServer([sv.rz(math.pi / 4, 2)], 2)
        pair = Session(2, seed=0)
        pair.amps[:] = state.amps
        pair.split_pair(0, 2)
        densities, tags, _ = pair.ladder(2, [(BLOCK, LABELS)], server)
        views = iter(densities)
        rounds = [Round(tag, (2,), sent, received, labels)
                  for (tag, labels), sent, received in zip(tags, views, views)]
        register = RegisterSession(3, seed=0)
        register.amps[:4] = state.amps
        register.ladder(2, 0, [(BLOCK, LABELS)], server)
        # the register waits for the join
        assert np.array_equal(pair.amps, state.amps)
        assert rounds[0].pad_labels == ((2, LABELS[1]),)
        assert_rounds_match(rounds, register.rounds)
        for log in ("client_op_kinds", "server_op_kinds"):
            assert (getattr(pair.transcript, log)
                    == getattr(register.transcript, log))
        assert pair.transcript.server_op_kinds == ["rz", "rz"]
        pair.join_pair()
        assert not register.amps[4:].any()
        assert np.abs(pair.amps - register.amps[:4]).max() <= TOL

    def test_split_and_join_need_transit_in_zero(self):
        server = StubServer([sv.rz(math.pi / 4, 1)], 2)
        sess = Session(1, seed=0)
        sess.client_apply([sv.h(0), sv.x(1)])
        with pytest.raises(ProtocolError, match="not in"):
            sess.split_pair(0, 1)
        sess.client_apply([sv.x(1)])
        sess.split_pair(0, 1)
        # the block's last round leaves the working qubit in transit
        last = BLOCK.rounds[-1]
        stuck = BLOCK._replace(rounds=(*BLOCK.rounds[:-1],
                                       last._replace(swap_after=0)))
        sess.ladder(1, [(stuck, LABELS)], server)
        with pytest.raises(ProtocolError, match="outside"):
            sess.join_pair()

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
        # each transcript hashes each stack as it is recorded
        one, block = (Transcript(seed=1, epsilon=0.1, n_qubits=4)
                      for _ in range(2))
        for i, tag in enumerate(tags):
            one.record((3,), (tag,), densities[2 * i:2 * i + 2].copy())
        block.record((3,), tags, densities)
        for t in (one, block):
            t.hash_register(np.ones(2))
        assert block.digest() == one.digest()
        assert block == one
        assert block.tags == [tag for tag, _ in tags]
        assert block.round_trips() == 3

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
        # the checked run takes the plain run's ladder step
        for run, epsilon in itertools.product(
                (run_protocol, KeptRun), (2.0, 1e-1, 1e-6)):
            m_bits = precision_bits(epsilon)
            steps.clear()
            records.clear()
            run(circ, epsilon, 4)
            # blocks 2..M of each of the three rz, and all their rounds
            per_gate = [m_bits - 1] if m_bits > 1 else []
            assert steps == per_gate * 3
            assert records == [m_bits * (m_bits + 1) // 2 - 1] * len(steps)

    def test_block_densities_are_read_only(self):
        # every round a check receives, block round or ladder round, is a
        # read-only view of its step's stack
        run = KeptRun(Circuit(1, (sv.h(0), sv.rz(0.9, 0))), math.pi / 2**5,
                      seed=6)
        transit = run.result.working_state.n_qubits + N_SLOTS - 1
        ladder = [r for r in run.rounds if r.transmitted == (transit,)]
        # blocks 2..5 hold all 15 rounds but the opening one
        assert len(ladder) == 5 * 6 // 2 - 1
        # the h round and the rz's opening round send all four slots
        blocks = [r for r in run.rounds if len(r.transmitted) == N_SLOTS]
        assert len(blocks) == 2
        assert len(run.rounds) == len(ladder) + len(blocks)
        for rnd in run.rounds:
            for rho in (rnd.sent, rnd.received):
                assert not rho.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    rho[0, 0] = 0.0
                with pytest.raises(ValueError, match="read-only"):
                    rho.base[0, 0, 0] = 0.0
        for rnd in ladder:
            for rho in (rnd.wire_state(rnd.sent, transit),
                        rnd.wire_state(rnd.received, transit)):
                assert not rho.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    rho[0, 0] = 0.0

    def test_every_round_replays_to_its_reply(self):
        # at eps = pi/2^5 an rz runs digit blocks m = 1..5, rounds k = m..1
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(2.3, 0), sv.h(1)))
        epsilon = math.pi / 2**5
        base = KeptRun(circ, epsilon, seed=7)
        rounds = base.rounds
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
                    want = run_reference(circ, epsilon, 7, {label: pair})
                    assert_rounds_match(rounds[:i] + [replay],
                                        want.rounds[:i + 1])
        assert seen == {(m, k) for m in range(1, 6) for k in range(1, m + 1)}

    @staticmethod
    def _counts(monkeypatch, epsilon, run):
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

        init = Transcript.__init__

        def counting_init(self, *args, **kwargs):
            # every transcript, the package's and the reference's, counts
            # each update its running hash takes, whoever makes it
            init(self, *args, **kwargs)
            self._stream = CountingStream(self._stream)

        apply_op = sv._apply_op

        def counting_apply(amps, op, qubits=None):
            applied.append(op)
            apply_op(amps, op, qubits)

        circ = Circuit(1, (sv.h(0), sv.rz(0.7, 0)))
        with monkeypatch.context() as patched:
            patched.setattr(Transcript, "__init__", counting_init)
            patched.setattr(sv, "_apply_op", counting_apply)
            run(circ, epsilon, 3)
        return len(updates), len(applied)

    def test_hash_updates_and_kernels_do_not_grow_with_rounds(self,
                                                              monkeypatch):
        eps = {m: math.pi / 2**m for m in (4, 8)}
        blocks = 8 - 4
        rounds = 8 * 9 // 2 - 4 * 5 // 2
        engine = {m: self._counts(monkeypatch, eps[m], run_protocol)
                  for m in (4, 8)}
        # no hash update more, since the gate's ladder is recorded at once,
        # and at most one kernel more per extra digit block
        assert engine[8][0] <= engine[4][0]
        assert engine[8][1] - engine[4][1] <= blocks
        # the per-op reference pays per round, so the counters can see it
        reference = {m: self._counts(monkeypatch, eps[m], run_reference)
                     for m in (4, 8)}
        assert reference[8][0] - reference[4][0] >= rounds
        assert reference[8][1] - reference[4][1] >= rounds
