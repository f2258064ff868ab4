"""Full delegated execution against direct simulation."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from blindqc import statevec as sv
from blindqc.angles import precision_bits
from blindqc.circuits import Circuit
from blindqc.protocol import (
    BLOCK_TAG,
    N_SLOTS,
    OPENING_TAG,
    BlindServer,
    RegisterCapacityError,
    UnsupportedGateError,
    _Run,
    checked_run,
    replay,
    round_tag,
    run_protocol,
)
from blindqc.session import KeySource, ProtocolError, Session
from conftest import (KeptRun, digitized_reference, random_lowered_circuit,
                      rz_error_budget)
import oracles
from register_engine import run_reference

PI = math.pi
EPS_M3 = PI / 8  # three digit blocks


class ZeroPadKeys(KeySource):
    """Draws every pad as (0, 0); measurement draws stay the seed's."""

    def pad_pair(self, label: str) -> tuple[int, int]:
        return (0, 0)


def direct(circuit: Circuit) -> sv.Statevector:
    state = oracles.new_state(circuit.n_qubits)
    return oracles.apply(state, *circuit.ops)


class TestSingleGates:
    def test_h_gate(self):
        res = run_protocol(Circuit(1, (sv.h(0),)), EPS_M3, seed=0)
        assert oracles.phase_aligned_distance(
            res.working_state, direct(Circuit(1, (sv.h(0),)))) < 1e-10
        assert res.transcript.round_trips() == 1

    def test_cz_gate(self):
        circ = Circuit(2, (sv.h(0), sv.h(1), sv.cz(0, 1)))
        res = run_protocol(circ, EPS_M3, seed=1)
        assert oracles.phase_aligned_distance(res.working_state, direct(circ)) < 1e-10
        assert res.transcript.round_trips() == 3

    def test_cz_operand_order_is_respected(self):
        # cz is symmetric; check both operand orders against the same truth
        circ_a = Circuit(2, (sv.h(0), sv.cz(0, 1)))
        circ_b = Circuit(2, (sv.h(0), sv.cz(1, 0)))
        res_a = run_protocol(circ_a, EPS_M3, seed=2)
        res_b = run_protocol(circ_b, EPS_M3, seed=2)
        assert oracles.phase_aligned_distance(
            res_a.working_state, res_b.working_state) < 1e-10

    def test_rz_gate_schedule(self):
        circ = Circuit(1, (sv.h(0), sv.rz(1.0, 0)))
        res = run_protocol(circ, EPS_M3, seed=3)
        # h costs one trip, rz costs M(M+1)/2 = 6
        assert res.transcript.round_trips() == 7
        tags = res.transcript.tags
        assert tags[0] == '{"kind":"block"}'
        assert tags[1] == '{"k":1,"kind":"block"}'
        assert tags[2:] == [f'{{"k":{k},"kind":"round"}}'
                            for k in (2, 1, 3, 2, 1)]
        assert oracles.phase_aligned_distance(
            res.working_state,
            digitized_reference(circ, 3)) < 1e-10

    def test_rz_digits_are_reported(self):
        res = run_protocol(Circuit(1, (sv.rz(PI / 2, 0),)), EPS_M3, seed=4)
        assert res.digits[0].digits == (1, 0, 0)

    def test_measurement_is_local_and_deterministic(self):
        circ = Circuit(1, (sv.h(0), sv.measure(0)))
        res = run_protocol(circ, EPS_M3, seed=5)
        again = run_protocol(circ, EPS_M3, seed=5)
        assert res.outcomes[1] == again.outcomes[1]
        target = np.zeros(2, dtype=complex)
        target[res.outcomes[1]] = 1.0
        assert oracles.phase_aligned_distance(
            res.working_state, oracles.new_state(1, target)) < 1e-10
        # measurement adds no round trips
        assert res.transcript.round_trips() == 1
        outs = {run_protocol(circ, EPS_M3, seed=s).outcomes[1]
                for s in range(8)}
        assert outs == {0, 1}


class TestAgainstReference:
    def test_random_circuits_match_digitized_reference(self):
        rng = np.random.default_rng(41)
        for i in range(6):
            circ = random_lowered_circuit(rng, 2, 8)
            res = run_protocol(circ, 1e-2, seed=1000 + i)
            ref = digitized_reference(circ, 9)
            assert oracles.phase_aligned_distance(res.working_state, ref) < 1e-9

    def test_infidelity_stays_within_truncation_budget(self):
        rng = np.random.default_rng(43)
        for i in range(4):
            circ = random_lowered_circuit(rng, 2, 10)
            res = run_protocol(circ, 1e-2, seed=2000 + i)
            exact = direct(circ)
            infid = 1.0 - oracles.fidelity(res.working_state, exact)
            assert infid <= rz_error_budget(circ, 9) + 1e-12


class TestHygiene:
    def test_slots_end_clean(self):
        circ = Circuit(2, (sv.h(0), sv.rz(0.7, 1), sv.cz(0, 1)))
        n = circ.n_qubits
        session = Session(n, 6, epsilon=EPS_M3)
        res = _Run(circ, EPS_M3, session).run()
        # every working wire is back in place and every slot ends in |0>,
        # carrying no wire and holding no phase
        assert session.amps.size == 2**n
        assert session.held == [*range(n), *[(1.0, 0.0)] * N_SLOTS]
        # the slot-ful engine's full state factors as working x |0000>
        full = run_reference(circ, EPS_M3, 6).state.amps.reshape(2**4, 2**n)
        assert np.abs(full[1:]).max() < 1e-12
        assert np.abs(full[0] - res.working_state.amps).max() < 1e-12

    def test_a_run_simulates_only_the_working_wires(self, monkeypatch):
        # the slots stay off the register: it holds 2**n amplitudes at
        # every gate boundary, and only the circuit's own measure gates
        # collapse it, never a slot reset
        circ = Circuit(3, (sv.h(0), sv.cz(0, 2), sv.rz(0.7, 1), sv.measure(2),
                           sv.h(1), sv.rz(-2.2, 0), sv.cz(1, 0),
                           sv.measure(0)))
        sizes, measured = [], []
        mark_gate, measure = Session.mark_gate, sv._measure

        def watched_mark_gate(self, *args):
            sizes.append(self.amps.size)
            mark_gate(self, *args)

        def watched_measure(amps, q, u):
            measured.append(q)
            return measure(amps, q, u)

        monkeypatch.setattr(Session, "mark_gate", watched_mark_gate)
        monkeypatch.setattr(sv, "_measure", watched_measure)
        for epsilon in (1e-1, 1e-6):
            sizes.clear()
            measured.clear()
            run_protocol(circ, epsilon, seed=4)
            assert sizes == [2**3] * len(circ.ops)
            assert measured == [2, 0]

    def test_long_h_circuits_stay_normalized(self):
        # every h scales by SQRT_HALF, which rounds low, always the same
        # way; the register is renormalized at each gate boundary, as the
        # slot-ful reference is by its slot resets, so no loss builds up
        circ = Circuit(2, tuple(sv.cz(0, 1) if j % 5 == 0 else sv.h(j % 2)
                                for j in range(600)))
        res = run_protocol(circ, EPS_M3, seed=5)
        want = run_reference(circ, EPS_M3, 5).working_state.amps
        assert abs(np.linalg.norm(res.working_state.amps) - 1.0) <= 1e-15
        assert np.abs(res.working_state.amps - want).max() <= 1e-14

    def test_pads_do_not_change_the_computation(self):
        circ = Circuit(2, (sv.h(0), sv.rz(-1.3, 0), sv.cz(0, 1)))
        padded = run_protocol(circ, EPS_M3, seed=7)
        session = Session(circ.n_qubits, 7, epsilon=EPS_M3)
        session.keys = ZeroPadKeys(7)
        bare = _Run(circ, EPS_M3, session).run()
        # the unpadded run's traffic differs, its result does not
        assert bare.transcript.digest() != padded.transcript.digest()
        assert oracles.phase_aligned_distance(
            padded.working_state, bare.working_state) < 1e-10

    def test_a_run_draws_each_pad_label_once(self, monkeypatch):
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.7, 1), sv.h(1)))
        draws = []
        pad_pair = KeySource.pad_pair

        def counted_pad_pair(self, label):
            draws.append(label)
            return pad_pair(self, label)

        rounds = KeptRun(circ, 1e-2, seed=0).rounds
        labels = [label for rnd in rounds for _, label in rnd.pad_labels]
        monkeypatch.setattr(KeySource, "pad_pair", counted_pad_pair)
        run_protocol(circ, 1e-2, seed=0)
        # h and cz four slots each, rz three slots and 45 digit rounds
        assert len(labels) == len(set(labels)) == 4 + 4 + 3 + 45 + 4
        # a block's pads are drawn to pad and reused to decrypt
        assert sorted(draws) == sorted(labels)

    def test_same_seed_same_digest(self):
        circ = Circuit(2, (sv.h(0), sv.rz(0.4, 1), sv.measure(0)))
        a = run_protocol(circ, 1e-2, seed=8).transcript.digest()
        b = run_protocol(circ, 1e-2, seed=8).transcript.digest()
        c = run_protocol(circ, 1e-2, seed=9).transcript.digest()
        assert a == b
        assert a != c

    def test_round_counts_per_gate_kind(self):
        bits = precision_bits(1e-2)
        assert bits == 9
        circ = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(2.2, 0)))
        res = run_protocol(circ, 1e-2, seed=10)
        spans = [(mk.kind, mk.round_end - mk.round_start)
                 for mk in res.transcript.markers]
        assert spans == [("h", 1), ("cz", 1), ("rz", bits * (bits + 1) // 2)]


class TestErrors:
    def test_unlowered_gate_is_rejected(self):
        with pytest.raises(UnsupportedGateError):
            run_protocol(Circuit(2, (sv.cx(0, 1),)), EPS_M3, seed=0)

    def test_register_cap(self):
        with pytest.raises(RegisterCapacityError):
            run_protocol(Circuit(9, (sv.h(0),)), EPS_M3, seed=0)

    def test_digit_count_stops_at_the_float_exponent_range(self):
        circ = Circuit(1, (sv.h(0),))
        assert precision_bits(PI / 2**1023) == 1023
        res = run_protocol(circ, PI / 2**1023, seed=0)
        assert res.transcript.round_trips() == 1
        # refused before any round
        with pytest.raises(ValueError, match="1024 digit blocks"):
            run_protocol(circ, 2e-308, seed=0)

    def test_server_rejects_unknown_tags(self):
        server = BlindServer(2, 3)
        for tag in ('{"kind":"teleport"}', round_tag(0), round_tag(4),
                    round_tag(9), '{"k":2,"kind":"block"}',
                    # valid tags spelled any way but the canonical one
                    '{"kind":"round","k":2}', '{"k": 2, "kind": "round"}',
                    '{"k":"2","kind":"round"}', '{"kind": "block"}'):
            with pytest.raises(ProtocolError):
                server.ops_for(tag)
        assert server.ops_for(round_tag(3))[0].angle == pytest.approx(PI / 8)

    def test_server_block_angles(self):
        server = BlindServer(1, 3)
        plain = server.ops_for(BLOCK_TAG)
        first = server.ops_for(OPENING_TAG)
        assert [op.kind.value for op in plain] == ["h", "cz", "rz"]
        assert plain[2].angle == pytest.approx(PI - PI / 8)
        assert first[2].angle == pytest.approx(PI / 2)


class TestSharedOps:
    """The round loop reuses prebuilt ops instead of building new ones."""

    @staticmethod
    def _constructions(monkeypatch, circuit, epsilon) -> int:
        built = []
        check = sv.GateOp.__post_init__

        def counting(op):
            built.append(op)
            check(op)

        with monkeypatch.context() as patched:
            patched.setattr(sv.GateOp, "__post_init__", counting)
            run_protocol(circuit, epsilon, seed=3)
        return len(built)

    def test_op_constructions_do_not_grow_with_round_trips(self, monkeypatch):
        circ = Circuit(1, (sv.h(0), sv.rz(0.7, 0)))
        eps = {m: PI / 2**m for m in (4, 8)}
        for m in (4, 8):
            # 1 + 10 and 1 + 36 round trips
            res = run_protocol(circ, eps[m], seed=3)
            assert res.transcript.round_trips() == 1 + m * (m + 1) // 2
        built = {m: self._constructions(monkeypatch, circ, eps[m])
                 for m in (4, 8)}
        # only the server's table: one rz per round tag plus two block rz
        assert built == {4: 4 + 2, 8: 8 + 2}

    def test_server_table_is_built_once(self):
        server = BlindServer(2, 3)
        for tag in (BLOCK_TAG, OPENING_TAG, round_tag(1), round_tag(3)):
            assert server.ops_for(tag) is server.ops_for(tag)
        assert server.round_tags == tuple(round_tag(k) for k in (1, 2, 3))

    def test_shared_ops_are_frozen_plain_int_ops(self):
        op = sv.x(np.int64(5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.qubits = (6,)
        assert sv.x(5) is op
        assert type(sv.x(5).qubits[0]) is int
        assert sv.swap(np.int64(2), 7) is sv.swap(2, 7)
        assert sv.cz(1, 2) is not sv.cz(2, 1)


class TestTags:
    def test_tags_are_canonical_json(self):
        def canonical(tag):
            return json.dumps(tag, sort_keys=True, separators=(",", ":"))

        assert BLOCK_TAG == canonical({"kind": "block"})
        assert OPENING_TAG == canonical({"kind": "block", "k": 1})
        for k in range(1, 1024):
            assert round_tag(k) == canonical({"kind": "round", "k": k})


class TestCheckedRun:
    """``checked_run`` hands its check each step's rounds as it records
    them, and ``replay`` re-runs any of them under pinned pairs."""

    CIRC = Circuit(2, (sv.h(0), sv.cz(0, 1), sv.rz(0.7, 1), sv.measure(0),
                       sv.rz(-2.2, 0)))
    # at 5e-14 (M = 46) each rz ladder runs as two chunks
    EPSILONS = (1e-1, 5e-14)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_the_check_gets_every_round_once_in_round_order(self, epsilon):
        steps = []
        checked_run(self.CIRC, epsilon, 3,
                    lambda run, first, rounds: steps.append(
                        (first, run.session.transcript.round_trips(),
                         [rnd for rnd, _, _ in rounds])))
        # each step arrives just after its own rounds are recorded, with
        # the index of its first round
        ends = list(itertools.accumulate(len(r) for _, _, r in steps))
        assert [end for _, end, _ in steps] == ends
        assert [first for first, _, _ in steps] == [0] + ends[:-1]
        ladders = [r for _, _, r in steps if len(r[0].transmitted) == 1]
        assert len(ladders) == (4 if epsilon < 1e-13 else 2)
        # the rounds the slot-ful engine makes, one by one
        got = [rnd for _, _, rounds in steps for rnd in rounds]
        want = run_reference(self.CIRC, epsilon, 3).rounds
        assert [(r.tag, r.transmitted, r.pad_labels) for r in got] == [
            (r.tag, r.transmitted, r.pad_labels) for r in want]

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_replay_under_the_runs_own_pair_is_the_round(self, epsilon):
        replayed = []

        def check(run, first, rounds):
            for checked in rounds:
                rnd = checked[0]
                for _, label in rnd.pad_labels:
                    own = run.session.keys.pad_pair(label)
                    (again,) = replay(run, checked, label, [own])
                    assert again.tobytes() == (rnd.sent.tobytes()
                                               + rnd.received.tobytes())
                    replayed.append(label)

        res = checked_run(self.CIRC, epsilon, 3, check)
        m_bits = precision_bits(epsilon)
        assert len(replayed) == len(set(replayed)) == (
            4 + 4 + 2 * (3 + m_bits * (m_bits + 1) // 2))
        assert res.transcript.round_trips() == 2 + m_bits * (m_bits + 1)

    def test_replay_refuses_a_label_off_the_round_and_no_pairs(self):
        refused = []

        def check(run, first, rounds):
            label = rounds[0][0].pad_labels[0][1]
            other = (rounds[1][0].pad_labels[0][1] if len(rounds) > 1
                     else "gate9:slot1")
            with pytest.raises(ValueError, match="does not pad"):
                replay(run, rounds[0], other, [(0, 1)])
            with pytest.raises(ValueError, match="at least one pair"):
                replay(run, rounds[0], label, [])
            refused.append(other)

        checked_run(self.CIRC, 1e-1, 3, check)
        assert refused[:2] == ["gate9:slot1"] * 2
        assert "gate2:m2:k1" in refused

    @pytest.mark.parametrize("extractor", ["floor", "balanced"])
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_a_checked_run_is_the_plain_run(self, epsilon, extractor):
        plain = run_protocol(self.CIRC, epsilon, 3, extractor=extractor)
        got = checked_run(self.CIRC, epsilon, 3,
                          lambda run, first, rounds: None, extractor)
        assert got.transcript == plain.transcript
        assert got.transcript.digest() == plain.transcript.digest()
        assert np.array_equal(got.working_state.amps,
                              plain.working_state.amps)
        assert (got.digits, got.outcomes) == (plain.digits, plain.outcomes)
